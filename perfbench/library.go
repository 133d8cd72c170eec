package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"lagraph/internal/algo"
	"lagraph/internal/bench"
	"lagraph/internal/gap"
	"lagraph/internal/gen"
	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
	"lagraph/internal/parallel"
)

// Library-mode workloads: the six GAP kernels dispatched through the
// algorithm catalog (internal/algo → internal/lagraph → internal/grb and
// internal/parallel) on one graph, with every property prebuilt, next to
// the hand-written GAP reference (internal/gap) on the same sources.

// libSpec names a library workload's graph.
type libSpec struct {
	class      string // generator class
	scale      int    // log2 of the vertex count
	edgeFactor int    // Kron only
}

var libSpecs = map[string]libSpec{
	"kron16": {class: "Kron", scale: 16, edgeFactor: 8},
	"road14": {class: "Road", scale: 14},
}

const (
	// groupSize is the source group of one trial: bfs and sssp run once
	// per source, bc runs once with the group as its batch (the GAP batch
	// size). Repeated trials rotate through the groups, as the GAP runner
	// rotates sources.
	groupSize = 4
	numGroups = 64
	// A run sets up at least setupReps times and for at least setupTime,
	// for the median setup_s.
	setupReps = 5
	setupTime = 2 * time.Second
)

// libGraph is one set-up library workload.
type libGraph struct {
	w      *bench.Workload // every kernel but tc; w.Sources holds the groups in order
	tc     *bench.Workload // tc's undirected graph (w itself when w is undirected)
	phases map[string]float64
}

// setupLibrary generates the graph, imports it into GraphBLAS, builds the
// GAP CSR and materializes every property the six kernels declare, timing
// each phase. The steps are those of bench.Load, split so each layer's
// share of setup_s is visible.
func setupLibrary(spec libSpec, seed uint64) (*libGraph, error) {
	phases := map[string]float64{}
	tic := time.Now()
	lap := func(name string) {
		now := time.Now()
		phases[name] += now.Sub(tic).Seconds() * 1e3
		tic = now
	}

	var e *gen.EdgeList
	switch spec.class {
	case "Kron":
		e = gen.Kron(spec.scale, spec.edgeFactor, seed)
	case "Road":
		e = gen.Road(1<<(spec.scale/2), seed)
	default:
		return nil, fmt.Errorf("unknown graph class %q", spec.class)
	}
	e.AddUniformWeights(seed+17, 1, 255)
	lap("gen.generate_ms")

	ptr, idx, vals := e.CSR()
	A, err := grb.ImportCSR(e.N, e.N, ptr, idx, vals, false)
	if err != nil {
		return nil, fmt.Errorf("import: %w", err)
	}
	kind := lagraph.AdjacencyUndirected
	if e.Directed {
		kind = lagraph.AdjacencyDirected
	}
	lg, err := lagraph.New(&A, kind)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	lap("grb.import_ms")

	gg := gap.Build(e.N, e.Src, e.Dst, e.W, e.Directed)
	lap("gap.build_ms")

	w := &bench.Workload{Name: e.Name, Seed: seed, Edges: e, LG: lg, GG: gg}
	// tc needs an undirected graph: the harness symmetrises directed
	// classes exactly as gapbench does (an undirected graph is its own
	// twin, so the phase is near zero there).
	tcw := bench.TCWorkload(w)
	if tcw.LG.Kind != lagraph.AdjacencyUndirected {
		return nil, fmt.Errorf("tc graph for %s is not undirected", e.Name)
	}
	lap("bench.tc_twin_ms")

	for _, label := range bench.AlgNames {
		d, err := algo.Default().Lookup(bench.CatalogName(label))
		if err != nil {
			return nil, err
		}
		g := lg
		if d.Undirected {
			g = tcw.LG
		}
		if err := algo.EnsureProperties(d, g); err != nil {
			return nil, fmt.Errorf("%s properties: %w", d.Name, err)
		}
	}
	lap("lagraph.properties_ms")
	return &libGraph{w: w, tc: tcw, phases: phases}, nil
}

// groupSources draws numGroups·groupSize distinct seed-derived sources and
// deals them into groups stratified by BFS depth: each group takes one
// source from every depth quartile of the draw, picked at random (from
// the seed) within the quartile. On the road grid a source's depth (from
// ~dim levels at the centre to ~2·dim at a corner) sets most of its bfs,
// bc and sssp cost, so without the strata the seed alone moved a group's
// time by ±15%. The draw is large so that its depths, and on kron16 its
// share of slow bc batches, vary little from seed to seed; runs reach
// only the first groups, which makes them a random sample of batches.
func groupSources(gg *gap.Graph, seed uint64) []int {
	n := int(gg.N)
	draw := pickSources(func(v int) int64 { return gg.OutDegree(int32(v)) }, n, groupSize*numGroups, seed)
	order := make([]int, len(draw)) // positions in draw, by depth
	depth := make([]int32, len(draw))
	for i, v := range draw {
		order[i] = i
		for _, l := range gap.BFSLevels(gg, int32(v)) {
			depth[i] = max(depth[i], l)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return depth[order[a]] < depth[order[b]] })
	rng := &splitmix64{state: seed ^ 0xdea1}
	for q := 0; q < groupSize; q++ {
		quartile := order[q*numGroups : (q+1)*numGroups]
		for i := len(quartile) - 1; i > 0; i-- {
			j := rng.intn(i + 1)
			quartile[i], quartile[j] = quartile[j], quartile[i]
		}
	}
	out := make([]int, 0, len(draw))
	for g := 0; g < numGroups; g++ {
		for q := 0; q < groupSize; q++ {
			out = append(out, draw[order[q*numGroups+g]])
		}
	}
	return out
}

// call is one catalog invocation of a trial with the check of its output.
type call struct {
	key   string // metric key: bc bfs pr cc sssp tc
	group int    // source group (0 for kernels without sources)
	d     *algo.Descriptor
	g     *algo.Graph
	raw   map[string]any
	check func(algo.Result) error
}

// buildCalls lays out the calls of every kernel and source group, in
// Table III order, each with a check against the GAP reference output.
// A call computes its reference on its first check, outside the timed
// region, so groups a short run never reaches cost nothing.
func buildCalls(lg *libGraph) ([]call, error) {
	w, n := lg.w, lg.w.Edges.N
	var calls []call
	group := 0
	add := func(key string, g *algo.Graph, raw map[string]any, check func(algo.Result) error) error {
		d, err := algo.Default().Lookup(bench.CatalogName(key))
		if err != nil {
			return err
		}
		calls = append(calls, call{key: key, group: group, d: d, g: g, raw: raw, check: check})
		return nil
	}
	groups := func(each func(srcs []int) error) error {
		for group = 0; group < numGroups; group++ {
			if err := each(w.Sources[group*groupSize : (group+1)*groupSize]); err != nil {
				return err
			}
		}
		group = 0
		return nil
	}
	vec := func(out algo.Result, name string) *algo.VecSummary {
		s, _ := out[name].(*algo.VecSummary)
		return s
	}

	if err := groups(func(srcs []int) error {
		var ref []float64
		return add("bc", w.LG, map[string]any{"sources": srcs, "limit": n}, func(out algo.Result) error {
			if ref == nil {
				ref = gap.BC(w.GG, toInt32(srcs))
			}
			return checkClose("bc", vec(out, "centrality"), ref, 0, bcRelTol)
		})
	}); err != nil {
		return nil, err
	}
	if err := groups(func(srcs []int) error {
		for _, s := range srcs {
			var ref []int32
			if err := add("bfs", w.LG, map[string]any{"source": s, "limit": n}, func(out algo.Result) error {
				if ref == nil {
					ref = gap.BFSLevels(w.GG, int32(s))
				}
				return checkParents(vec(out, "parent"), ref, s, w.GG.InNeighbors)
			}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	prRef, _ := gap.PageRank(w.GG, 0.85, 1e-4, 20)
	if err := add("pr", w.LG, map[string]any{"damping": 0.85, "tol": 1e-4, "max_iter": 20, "limit": n}, func(out algo.Result) error {
		return checkClose("pr", vec(out, "ranks"), prRef, prAbsTol, 0)
	}); err != nil {
		return nil, err
	}
	ccRef := gap.ConnectedComponents(w.GG)
	ccRef64 := make([]int64, len(ccRef))
	for i, c := range ccRef {
		ccRef64[i] = int64(c)
	}
	if err := add("cc", w.LG, map[string]any{"limit": n}, func(out algo.Result) error {
		return checkPartition(vec(out, "labels"), ccRef64)
	}); err != nil {
		return nil, err
	}
	if err := groups(func(srcs []int) error {
		for _, s := range srcs {
			var ref []float32
			if err := add("sssp", w.LG, map[string]any{"source": s, "delta": 64, "limit": n}, func(out algo.Result) error {
				if ref == nil {
					ref = gap.SSSPDelta(w.GG, int32(s), 64)
				}
				return checkDistances(vec(out, "distances"), ref)
			}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	tcRef := gap.TriangleCount(lg.tc.GG)
	if err := add("tc", lg.tc.LG, nil, func(out algo.Result) error {
		return checkCount("tc", out["triangles"], tcRef)
	}); err != nil {
		return nil, err
	}
	return calls, nil
}

func toInt32(xs []int) []int32 {
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}

// kernelLayer is what a traced trial records for one kernel, summed over
// the kernel's calls.
type kernelLayer struct {
	iterations         int
	allocBytes, allocs uint64
	cpu, wall          float64 // seconds
}

// trialStats is one trial's outcome.
type trialStats struct {
	secs     map[string]float64      // kernel key → wall seconds of its calls
	dispatch []float64               // per call: Validate + EnsureProperties, seconds
	layers   map[string]*kernelLayer // traced trials only
}

// runTrial runs every call once and checks each output. Only d.Run is
// timed; dispatch (validation and the property check) is timed apart.
// A traced trial also attaches a probe and samples allocation and CPU
// counters around each call.
func runTrial(calls []call, traced bool, t *tally) trialStats {
	st := trialStats{secs: map[string]float64{}}
	if traced {
		st.layers = map[string]*kernelLayer{}
	}
	for _, c := range calls {
		dstart := time.Now()
		p, err := c.d.Validate(c.raw)
		if err == nil {
			err = algo.EnsureProperties(c.d, c.g)
		}
		st.dispatch = append(st.dispatch, time.Since(dstart).Seconds())
		if err != nil {
			t.add(fmt.Errorf("%s dispatch: %w", c.key, err))
			continue
		}

		ctx := context.Background()
		var (
			prb      *lagraph.Probe
			ms0, ms1 runtime.MemStats
			cpu0     float64
		)
		if traced {
			prb = lagraph.NewProbe(0)
			ctx = lagraph.WithProbe(ctx, prb)
			runtime.ReadMemStats(&ms0)
			cpu0 = cpuSeconds()
		}
		start := time.Now()
		out, err := c.d.Run(ctx, c.g, p)
		secs := time.Since(start).Seconds()
		st.secs[c.key] += secs
		if traced {
			cpu := cpuSeconds() - cpu0
			runtime.ReadMemStats(&ms1)
			kl := st.layers[c.key]
			if kl == nil {
				kl = &kernelLayer{}
				st.layers[c.key] = kl
			}
			kl.iterations += prb.Snapshot().Iterations
			kl.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
			kl.allocs += ms1.Mallocs - ms0.Mallocs
			kl.cpu += cpu
			kl.wall += secs
		}
		if err != nil && !lagraph.IsWarning(err) {
			t.add(fmt.Errorf("%s: %w", c.key, err))
			continue
		}
		t.add(c.check(out))
	}
	return st
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// gcCPU samples the runtime's cumulative GC CPU and total CPU estimates.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// gcShare is the GC's share of CPU time between two gcCPU samples.
func gcShare(gc0, tot0, gc1, tot1 float64) float64 {
	if tot1 <= tot0 {
		return 0
	}
	return (gc1 - gc0) / (tot1 - tot0)
}

// keys are the metric keys of the six kernels in Table III order.
func keys() []string {
	out := make([]string, len(bench.AlgNames))
	for i, label := range bench.AlgNames {
		out[i] = strings.ToLower(label)
	}
	return out
}

// measure runs trials in rounds until budget has passed: in a round every
// kernel, in Table III order, runs trials for at least minTurn and at
// least one trial (bc two: on kron16 about one 4-source batch in five
// runs 3-5x slower than the rest, so its median needs more batches before
// it stops moving with their share). So the expensive kernels are sampled
// in every round, and every kernel's samples spread over the whole run
// instead of sitting in one block that a burst of load on the host could
// cover. A kernel's trials rotate through the source groups, the way the
// GAP runner rotates sources; the first round always runs. It returns
// each kernel's per-trial times.
func measure(calls []call, budget time.Duration, t *tally) map[string][]float64 {
	all := map[string][]float64{}
	groups := map[string][][]call{} // kernel → source group → calls
	for _, c := range calls {
		for len(groups[c.key]) <= c.group {
			groups[c.key] = append(groups[c.key], nil)
		}
		groups[c.key][c.group] = append(groups[c.key][c.group], c)
	}
	end := time.Now().Add(budget)
	for round := 0; round == 0 || time.Now().Before(end); round++ {
		for _, k := range keys() {
			trials := 1
			if k == "bc" {
				trials = 2
			}
			for turn := time.Now(); trials > 0 || time.Since(turn) < minTurn; trials-- {
				g := len(all[k]) % len(groups[k])
				runtime.GC() // every trial starts from the same heap state
				all[k] = append(all[k], runTrial(groups[k][g], false, t).secs[k])
			}
		}
	}
	return all
}

// groupZero is the calls of one trial over source group 0.
func groupZero(calls []call) []call {
	var out []call
	for _, c := range calls {
		if c.group == 0 {
			out = append(out, c)
		}
	}
	return out
}

// graphSeed generates the library workloads' graphs, as gapbench's
// default seed does; --seed picks their sources and so the work. With a
// graph drawn anew for every seed, the share of kron16's bc batches that
// run slow (see measure) went from graph to graph from about 0.1 to 0.45,
// and at the upper end a run's median landed on a slow batch.
const graphSeed = 1

// minTurn is the least time a kernel runs trials in each round of
// measure, so cheap kernels collect several samples a round.
const minTurn = 200 * time.Millisecond

// servicePass is how long a library workload's traced run drives the
// service, so that it reports the service layers too.
const servicePass = 8.0 // seconds

// untracedReps is how many untraced trials of source group 0 the kernel
// layers are compared with. They run right before the traced trial, so
// the first of them also warms the graph up on the service workload.
const untracedReps = 3

// runLibrary sets up kron16 or road14 at least setupReps times and for at
// least setupTime, draws the sources from cfg.seed, then measures every
// kernel for cfg.seconds in all. Untraced, it reports setup_s and each
// kernel's median per-trial time. Traced, it then reports the kernel
// layers and, from a short traced phase of the service workload on the
// same seed, the service layers.
func runLibrary(cfg config) (metricSet, *tally, error) {
	spec := libSpecs[cfg.workload]
	t := &tally{}
	var setups []float64
	var lg *libGraph
	for begin := time.Now(); len(setups) < setupReps || time.Since(begin) < setupTime; {
		lg = nil
		runtime.GC()
		start := time.Now()
		g, err := setupLibrary(spec, graphSeed)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		lg = g
	}
	lg.w.Sources = groupSources(lg.w.GG, cfg.seed)
	calls, err := buildCalls(lg)
	if err != nil {
		return nil, nil, err
	}

	all := measure(calls, time.Duration(cfg.seconds*float64(time.Second)), t)
	if !cfg.trace {
		m := metricSet{}
		m.set("setup_s", "s", median(setups))
		for _, k := range keys() {
			m.set(k+"_s", "s", median(all[k]))
		}
		return m, t, nil
	}

	m, overhead := kernelLayers(lg, calls, t)
	m.set("trace.overhead_pct", "%", overhead)
	svc := cfg
	svc.seconds = servicePass
	sm, _, err := traceService(svc, t)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range sm {
		if _, ok := m[k]; !ok { // the kernel trial's GC share stays
			m[k] = v
		}
	}
	return m, t, nil
}

// libraryLayers sets up spec's graph from seed in library mode and
// returns its kernel layers.
func libraryLayers(spec libSpec, seed uint64, t *tally) (metricSet, error) {
	lg, err := setupLibrary(spec, seed)
	if err != nil {
		return nil, fmt.Errorf("library setup: %w", err)
	}
	lg.w.Sources = groupSources(lg.w.GG, seed)
	calls, err := buildCalls(lg)
	if err != nil {
		return nil, err
	}
	m, _ := kernelLayers(lg, calls, t)
	return m, nil
}

// kernelLayers runs untracedReps untraced trials, one traced trial and
// one trial on a single worker thread over source group 0, times the GAP
// reference on the same group, and reports the kernel layers against the
// median untraced trial. It also returns the traced trial's overhead over
// that median, in percent.
func kernelLayers(lg *libGraph, calls []call, t *tally) (metricSet, float64) {
	trial := groupZero(calls)
	group0 := map[string][]float64{}
	for i := 0; i < untracedReps; i++ {
		runtime.GC()
		for k, secs := range runTrial(trial, false, t).secs {
			group0[k] = append(group0[k], secs)
		}
	}
	runtime.GC()
	gc0, tot0 := gcCPU()
	traced := runTrial(trial, true, t)
	gc1, tot1 := gcCPU()
	prev := parallel.SetMaxThreads(1)
	runtime.GC()
	single := runTrial(trial, false, t)
	parallel.SetMaxThreads(prev)
	gapSecs := gapTimes(lg)

	m := metricSet{}
	var untracedSum, tracedSum float64
	for _, k := range keys() {
		kl := traced.layers[k]
		med := median(group0[k])
		if k != "tc" { // tc records work counters, no iterations
			m.set("lagraph."+k+".iterations", "count", float64(kl.iterations))
		}
		m.set("lagraph."+k+".alloc_bytes", "bytes", float64(kl.allocBytes))
		m.set("lagraph."+k+".allocs", "count", float64(kl.allocs))
		m.set("parallel."+k+".cpu_per_wall", "ratio", kl.cpu/kl.wall)
		m.set("parallel."+k+".speedup", "ratio", single.secs[k]/med)
		m.set("gap."+k+"_s", "s", gapSecs[k])
		m.set("ss_gap."+k, "ratio", med/gapSecs[k])
		untracedSum += med
		tracedSum += traced.secs[k]
	}
	m.set("algo.dispatch_ms", "ms", median(traced.dispatch)*1e3)
	for name, ms := range lg.phases {
		m.set(name, "ms", ms)
	}
	m.set("runtime.gc_cpu_share", "ratio", gcShare(gc0, tot0, gc1, tot1))
	return m, (tracedSum/untracedSum - 1) * 100
}

// gapTimes times the GAP reference through the harness's cell runner on
// source group 0 (the first groupSize sources), as the per-trial total
// of each kernel (median of three passes).
func gapTimes(lg *libGraph) map[string]float64 {
	out := map[string]float64{}
	for _, label := range bench.AlgNames {
		key := strings.ToLower(label)
		w, trials := lg.w, 1
		switch key {
		case "bfs", "sssp":
			trials = groupSize
		case "tc":
			w = lg.tc
		}
		var passes []float64
		for i := 0; i < 3; i++ {
			res, err := bench.RunCell(label, "GAP", w, trials)
			if err != nil {
				continue
			}
			passes = append(passes, res.Seconds*float64(trials))
		}
		out[key] = median(passes)
	}
	return out
}
