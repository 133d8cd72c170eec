package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"lagraph/internal/algo"
	"lagraph/internal/gen"
	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
	"lagraph/internal/obs"
	"lagraph/internal/registry"
	"lagraph/internal/server"
	"lagraph/internal/store"
	"lagraph/internal/stream"
)

// The service workload: an in-process lagraphd (the server behind
// httptest, as the e2e suites run it) with a durable store, fed one
// generated Kron graph by upload. An open-loop writer posts mutation
// batches on a fixed schedule (internal/server → internal/stream →
// internal/store) while one closed-loop reader cycles the six GAP kernels
// (internal/server → internal/jobs → internal/registry → kernel).

const (
	svcScale      = 13
	svcEdgeFactor = 8
	batchOps      = 64                    // edge operations per mutation batch
	batchInterval = 50 * time.Millisecond // 20 batches/s
	graphName     = "churn"
)

// readerCycle is the closed-loop reader's query rotation: the six
// kernels in Table III order, by their catalog names.
var readerCycle = []string{"bc", "bfs", "pagerank", "cc", "sssp", "tc"}

// metricKey is the metric key of a catalog kernel, as in the library
// workloads.
func metricKey(alg string) string {
	if alg == "pagerank" {
		return "pr"
	}
	return alg
}

// edgeKey is one undirected edge, u < v.
type edgeKey struct{ u, v int32 }

func keyOf(u, v int) edgeKey {
	if u > v {
		u, v = v, u
	}
	return edgeKey{int32(u), int32(v)}
}

// model is the benchmark's own copy of the served graph: the upload plus
// every acknowledged batch, applied in order.
type model struct {
	n     int
	edges map[edgeKey]float64
}

func (m *model) apply(ops []stream.Op) {
	for _, op := range ops {
		k := keyOf(op.Src, op.Dst)
		if op.Op == stream.OpDelete {
			delete(m.edges, k)
		} else {
			m.edges[k] = *op.Weight
		}
	}
}

// graph builds the model as a library-mode graph.
func (m *model) graph() (*algo.Graph, error) {
	ptr := make([]int, m.n+1)
	for k := range m.edges {
		ptr[k.u+1]++
		ptr[k.v+1]++
	}
	for i := 0; i < m.n; i++ {
		ptr[i+1] += ptr[i]
	}
	idx := make([]int, ptr[m.n])
	vals := make([]float64, ptr[m.n])
	next := append([]int(nil), ptr[:m.n]...)
	put := func(i, j int32, w float64) {
		idx[next[i]], vals[next[i]] = int(j), w
		next[i]++
	}
	for k, w := range m.edges {
		put(k.u, k.v, w)
		put(k.v, k.u, w)
	}
	A, err := grb.ImportCSR(m.n, m.n, ptr, idx, vals, true)
	if err != nil {
		return nil, err
	}
	return lagraph.New(&A, lagraph.AdjacencyUndirected)
}

// svcInput is everything a service run derives from its seed.
type svcInput struct {
	seed    uint64
	upload  []byte    // the graph in LAGraph binary form
	orig    []edgeKey // the uploaded edges, the writer's delete targets
	sources []int     // the reader's rotating sources
	model   *model
}

func makeInput(seed uint64) (*svcInput, error) {
	e := gen.Kron(svcScale, svcEdgeFactor, seed)
	e.AddUniformWeights(seed+17, 1, 255)
	ptr, idx, vals := e.CSR()
	A, err := grb.ImportCSR(e.N, e.N, ptr, idx, vals, false)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := lagraph.BinWrite(&buf, A); err != nil {
		return nil, err
	}
	in := &svcInput{seed: seed, upload: buf.Bytes(), model: &model{n: e.N, edges: map[edgeKey]float64{}}}
	deg := make([]int64, e.N)
	for k := range e.Src {
		u, v := e.Src[k], e.Dst[k]
		deg[u]++
		if u < v {
			in.orig = append(in.orig, edgeKey{u, v})
			in.model.edges[edgeKey{u, v}] = e.W[k]
		}
	}
	in.sources = pickSources(func(v int) int64 { return deg[v] }, e.N, 64, seed)
	return in, nil
}

// batch returns mutation batch i: a pure function of the seed and i.
// Three ops in four upsert a random vertex pair with an integer weight;
// the fourth deletes an uploaded edge (a no-op once already deleted).
// Every batch upserts, so every batch publishes a new version.
func (in *svcInput) batch(i int) []stream.Op {
	rng := &splitmix64{state: in.seed*0x9e3779b97f4a7c15 + uint64(i)}
	ops := make([]stream.Op, batchOps)
	for k := range ops {
		if k%4 == 3 {
			e := in.orig[rng.intn(len(in.orig))]
			ops[k] = stream.Op{Op: stream.OpDelete, Src: int(e.u), Dst: int(e.v)}
			continue
		}
		u := rng.intn(in.model.n)
		v := rng.intn(in.model.n - 1)
		if v >= u {
			v++ // no self loops
		}
		w := float64(1 + rng.intn(255))
		ops[k] = stream.Op{Op: stream.OpUpsert, Src: u, Dst: v, Weight: &w}
	}
	return ops
}

// readerQuery is the reader's query q.
func (in *svcInput) readerQuery(q int) (string, map[string]any) {
	alg := readerCycle[q%len(readerCycle)]
	round := q / len(readerCycle)
	src := in.sources[round%len(in.sources)]
	switch alg {
	case "bc": // a batch of groupSize, rotating through the sources
		first := (round * groupSize) % len(in.sources)
		return alg, map[string]any{"sources": in.sources[first : first+groupSize]}
	case "bfs":
		return alg, map[string]any{"source": src}
	case "pagerank":
		return alg, map[string]any{"damping": 0.85, "tol": 1e-4, "max_iter": 20}
	case "sssp":
		return alg, map[string]any{"source": src, "delta": 64}
	}
	return alg, map[string]any{}
}

// service is one in-process durable lagraphd.
type service struct {
	dir    string
	srv    *server.Server
	reg    *registry.Registry
	ts     *httptest.Server
	client *http.Client
}

// startService opens a store in dir and serves it with lagraphd's
// default flags (1 GiB registry budget, fsync on, 5-minute checkpoints,
// 30-second flight-recorder window).
func startService(dir string) (*service, error) {
	st, err := store.Open(store.Options{Dir: dir, Fsync: true, CheckpointInterval: 5 * time.Minute})
	if err != nil {
		return nil, err
	}
	reg := registry.New(1 << 30)
	srv := server.New(reg, server.Options{
		Store:          st,
		Obs:            obs.NewRegistry(),
		IncidentWindow: 30 * time.Second,
	})
	ts := httptest.NewServer(srv.Handler())
	return &service{dir: dir, srv: srv, reg: reg, ts: ts, client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}, nil
}

func (s *service) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	s.srv.Close()
	s.reg.Close()
	os.RemoveAll(s.dir)
}

// reply is one HTTP exchange's outcome.
type reply struct {
	traceID string
	body    []byte
}

// do sends one request; body is JSON-encoded unless it is raw bytes.
// A non-2xx status is an error.
func (s *service) do(method, path string, body any) (reply, error) {
	var rd io.Reader
	ctype := "application/json"
	switch b := body.(type) {
	case nil:
	case []byte:
		rd, ctype = bytes.NewReader(b), "application/octet-stream"
	default:
		enc, err := json.Marshal(b)
		if err != nil {
			return reply{}, err
		}
		rd = bytes.NewReader(enc)
	}
	req, err := http.NewRequest(method, s.ts.URL+path, rd)
	if err != nil {
		return reply{}, err
	}
	if rd != nil {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	r := reply{traceID: resp.Header.Get("X-Trace-Id"), body: data}
	if err != nil {
		return r, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return r, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return r, nil
}

// getJSON GETs path into out.
func (s *service) getJSON(path string, out any) error {
	r, err := s.do("GET", path, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(r.body, out)
}

// setupService generates the run's input, starts a fresh durable server,
// uploads the graph (persisted before the upload is acknowledged) and
// runs one BFS so the graph's properties are built. It returns the
// upload's trace id.
func setupService(cfg config, name string) (*service, *svcInput, string, error) {
	in, err := makeInput(cfg.seed)
	if err != nil {
		return nil, nil, "", err
	}
	s, err := startService(filepath.Join(cfg.workdir, fmt.Sprintf("store-%d-%s", os.Getpid(), name)))
	if err != nil {
		return nil, nil, "", err
	}
	up, err := s.do("POST", "/graphs?format=bin&kind=undirected&name="+graphName, in.upload)
	if err == nil {
		_, err = s.do("POST", "/graphs/"+graphName+"/algorithms/bfs", map[string]any{"source": in.sources[0]})
	}
	if err != nil {
		s.close()
		return nil, nil, "", err
	}
	return s, in, up.traceID, nil
}

// graphInfo is the part of GET /graphs/{name} the model check reads.
type graphInfo struct {
	Version uint64 `json:"version"`
	Edges   int    `json:"edges"`
}

// svcStats is the part of GET /stats the model check reads.
type svcStats struct {
	Stream stream.Stats `json:"stream"`
}

// phase is one measured load phase's raw samples.
type phase struct {
	elapsed   float64              // first due time to the reader's last reply, s
	queries   []float64            // reader latencies, s
	byAlg     map[string][]float64 // reader latencies by kernel, s
	mutations []float64            // writer latencies from each due time, s
	lag       []float64            // writer send time minus due time, s
	spans     spanSamples
	gcShare   float64
	before    *obs.Exposition
	after     *obs.Exposition
}

// runPhase drives the writer and the reader for cfg.seconds, then checks
// the server against the model. Traced, it also collects every request's
// trace and scrapes /metrics around the phase.
func runPhase(cfg config, s *service, in *svcInput, traced bool, t *tally) (*phase, error) {
	var info graphInfo
	var st0 svcStats
	if err := s.getJSON("/graphs/"+graphName, &info); err != nil {
		return nil, err
	}
	if err := s.getJSON("/stats", &st0); err != nil {
		return nil, err
	}
	ph := &phase{byAlg: map[string][]float64{}}
	var col *collector
	if traced {
		exp, err := scrape(s)
		if err != nil {
			return nil, err
		}
		ph.before = exp
		col = startCollector(s)
	}
	startVersion := info.Version
	gc0, tot0 := gcCPU()

	var mu sync.Mutex // guards t
	record := func(err error) {
		mu.Lock()
		t.add(err)
		mu.Unlock()
	}
	t0 := time.Now()
	deadline := t0.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var acked int
	var readerEnd time.Time
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // open-loop writer
		defer wg.Done()
		for i := 0; ; i++ {
			due := t0.Add(time.Duration(i) * batchInterval)
			if !due.Before(deadline) {
				return
			}
			time.Sleep(time.Until(due))
			ph.lag = append(ph.lag, time.Since(due).Seconds())
			ops := in.batch(i)
			r, err := s.do("POST", "/graphs/"+graphName+"/edges", map[string]any{"ops": ops})
			ph.mutations = append(ph.mutations, time.Since(due).Seconds())
			if err == nil {
				var res stream.Result
				if err = json.Unmarshal(r.body, &res); err == nil {
					in.model.apply(ops)
					acked++
					if want := startVersion + uint64(acked); res.Version != want {
						err = fmt.Errorf("batch %d published version %d, want %d", i, res.Version, want)
					}
				}
			}
			record(err)
			col.add(r.traceID)
		}
	}()
	go func() { // closed-loop reader
		defer wg.Done()
		for q := 0; time.Now().Before(deadline); q++ {
			alg, params := in.readerQuery(q)
			start := time.Now()
			r, err := s.do("POST", "/graphs/"+graphName+"/algorithms/"+alg, params)
			secs := time.Since(start).Seconds()
			ph.queries = append(ph.queries, secs)
			ph.byAlg[alg] = append(ph.byAlg[alg], secs)
			record(err)
			col.add(r.traceID)
		}
		readerEnd = time.Now()
	}()
	wg.Wait()
	ph.elapsed = readerEnd.Sub(t0).Seconds()
	gc1, tot1 := gcCPU()
	ph.gcShare = gcShare(gc0, tot0, gc1, tot1)
	if traced {
		ph.spans = col.finish()
		exp, err := scrape(s)
		if err != nil {
			return nil, err
		}
		ph.after = exp
	}
	if err := checkModel(s, in, startVersion, acked, st0, t); err != nil {
		return nil, err
	}
	return ph, nil
}

// checkModel compares the server with the model after a phase: the
// version counts one publication per acknowledged batch, the stream
// engine applied exactly the acknowledged ops, the edge count matches,
// and a final BFS and CC on the server equal a library-mode run on the
// model graph.
func checkModel(s *service, in *svcInput, startVersion uint64, acked int, st0 svcStats, t *tally) error {
	var info graphInfo
	var st1 svcStats
	if err := s.getJSON("/graphs/"+graphName, &info); err != nil {
		return err
	}
	if err := s.getJSON("/stats", &st1); err != nil {
		return err
	}
	t.add(expect("graph version", int64(info.Version), int64(startVersion)+int64(acked)))
	t.add(expect("ops applied", st1.Stream.OpsApplied-st0.Stream.OpsApplied, int64(acked*batchOps)))
	t.add(expect("stored entries", int64(info.Edges), int64(2*len(in.model.edges))))

	g, err := in.model.graph()
	if err != nil {
		return err
	}
	n := in.model.n
	queries := []struct {
		alg    string
		params map[string]any
		vec    string
	}{
		{"bfs", map[string]any{"source": in.sources[0], "level": true, "limit": n}, "level"},
		{"cc", map[string]any{"limit": n}, "labels"},
	}
	for _, q := range queries {
		want, err := libraryRun(g, q.alg, q.params)
		if err != nil {
			return err
		}
		ref, _ := want[q.vec].(*algo.VecSummary)
		r, err := s.do("POST", "/graphs/"+graphName+"/algorithms/"+q.alg, q.params)
		if err != nil {
			t.add(err)
			continue
		}
		got, err := decodeVec(r.body, q.vec)
		if err != nil {
			t.add(err)
			continue
		}
		if q.alg == "bfs" {
			t.add(checkSame("bfs levels", got, ref, n))
			continue
		}
		vals, _, err := dense(ref, n)
		if err != nil {
			return err
		}
		labels := make([]int64, n)
		for i, x := range vals {
			labels[i] = int64(x)
		}
		t.add(checkPartition(got, labels))
	}
	return nil
}

func expect(what string, got, want int64) error {
	if got != want {
		return fmt.Errorf("model check: %s %d, want %d", what, got, want)
	}
	return nil
}

// libraryRun runs a catalog kernel in-process, as the library does.
func libraryRun(g *algo.Graph, alg string, raw map[string]any) (algo.Result, error) {
	d, err := algo.Default().Lookup(alg)
	if err != nil {
		return nil, err
	}
	p, err := d.Validate(raw)
	if err != nil {
		return nil, err
	}
	if err := algo.EnsureProperties(d, g); err != nil {
		return nil, err
	}
	out, err := d.Run(context.Background(), g, p)
	if err != nil && !lagraph.IsWarning(err) {
		return nil, err
	}
	return out, nil
}

// decodeVec extracts one result vector from an algorithm response.
func decodeVec(body []byte, key string) (*algo.VecSummary, error) {
	var env map[string]json.RawMessage
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, err
	}
	var s algo.VecSummary
	if err := json.Unmarshal(env[key], &s); err != nil {
		return nil, fmt.Errorf("decoding %q: %w", key, err)
	}
	return &s, nil
}

// runService sets up at least setupReps times and for at least setupTime,
// and measures one phase on the last setup. Traced, the untraced phase is
// followed by a traced one on a fresh setup of the same input, so the two
// see identical work, and by the kernel layers of the uploaded graph in
// library mode.
func runService(cfg config) (metricSet, *tally, error) {
	t := &tally{}
	var setups []float64
	var s *service
	var in *svcInput
	for begin := time.Now(); len(setups) < setupReps || time.Since(begin) < setupTime; {
		if s != nil {
			s.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		s, in, _, err = setupService(cfg, strconv.Itoa(len(setups)))
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	plain, err := runPhase(cfg, s, in, false, t)
	s.close()
	if err != nil {
		return nil, nil, err
	}
	e2e := serviceE2E(plain)
	if !cfg.trace {
		e2e.set("setup_s", "s", median(setups))
		return e2e, t, nil
	}

	m, traced, err := traceService(cfg, t)
	if err != nil {
		return nil, nil, err
	}
	lib, err := libraryLayers(libSpec{class: "Kron", scale: svcScale, edgeFactor: svcEdgeFactor}, cfg.seed, t)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range lib {
		if _, ok := m[k]; !ok { // the service phase's GC share stays
			m[k] = v
		}
	}
	m.set("trace.overhead_pct", "%", overheadPct(e2e, serviceE2E(traced)))
	return m, t, nil
}

// traceService sets up the seed's input once more and runs a traced phase
// of cfg.seconds on it. It returns the service-layer metrics and the
// phase.
func traceService(cfg config, t *tally) (metricSet, *phase, error) {
	s, in, upload, err := setupService(cfg, "traced")
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	// Only uploads open a "parse" span: the traced setup's upload gives it.
	tr, ok := fetchTrace(s, upload)
	if !ok {
		s.close()
		return nil, nil, fmt.Errorf("upload trace %s not found", upload)
	}
	traced, err := runPhase(cfg, s, in, true, t)
	s.close()
	if err != nil {
		return nil, nil, err
	}
	m := serviceLayers(traced)
	m.set("server.parse_p50_ms", "ms", median(spanSeconds(tr, "parse"))*1e3)
	return m, traced, nil
}

// serviceE2E computes the end-to-end metrics of a phase: each kernel's
// median reader latency.
func serviceE2E(ph *phase) metricSet {
	m := metricSet{}
	for _, alg := range readerCycle {
		m.set(metricKey(alg)+"_s", "s", median(ph.byAlg[alg]))
	}
	return m
}

// overheadPct is the median relative cost of tracing over the
// end-to-end metrics, in percent (positive: the traced phase was worse).
func overheadPct(plain, traced metricSet) float64 {
	var pcts []float64
	for k, p := range plain {
		pcts = append(pcts, (traced[k].Value/p.Value-1)*100)
	}
	return median(pcts)
}

// serviceLayers computes the per-layer metrics of a traced phase from
// its spans and its /metrics deltas.
func serviceLayers(ph *phase) metricSet {
	m := metricSet{}
	ms := func(xs []float64, q float64) float64 { return quantile(xs, q) * 1e3 }
	sp := ph.spans
	m.set("server.self_p50_ms", "ms", ms(sp.self, 0.5))
	m.set("registry.properties_p50_ms", "ms", ms(sp.properties, 0.5))
	m.set("registry.properties_p90_ms", "ms", ms(sp.properties, 0.9))
	for _, alg := range readerCycle {
		m.set("lagraph."+alg+".kernel_p50_ms", "ms", ms(sp.kernel[alg], 0.5))
	}
	m.set("client.query_per_s", "1/s", float64(len(ph.queries))/ph.elapsed)
	m.set("client.query_p50_ms", "ms", ms(ph.queries, 0.5))
	m.set("client.query_p90_ms", "ms", ms(ph.queries, 0.9))
	m.set("client.mutate_p50_ms", "ms", ms(ph.mutations, 0.5))
	m.set("store.wal_append_p50_ms", "ms", ms(sp.walAppend, 0.5))
	m.set("store.wal_append_p90_ms", "ms", ms(sp.walAppend, 0.9))
	m.set("client.generator_lag_p90_ms", "ms", ms(ph.lag, 0.9))
	m.set("client.mutate_p90_ms", "ms", ms(ph.mutations, 0.9))
	m.set("runtime.gc_cpu_share", "ratio", ph.gcShare)

	d := func(name string) float64 { return counter(ph.after, name) - counter(ph.before, name) }
	h := func(name string) histogram { return histogramOf(ph.after, name).minus(histogramOf(ph.before, name)) }
	wait := h("jobs_wait_seconds")
	m.set("jobs.wait_p50_ms", "ms", wait.quantile(0.5)*1e3)
	m.set("jobs.wait_p90_ms", "ms", wait.quantile(0.9)*1e3)
	m.set("jobs.wait_mean_ms", "ms", wait.mean()*1e3)
	m.set("jobs.cache_hit_ratio", "ratio", ratio(d("jobs_result_cache_hits_total"), d("jobs_submitted_total")))
	m.set("registry.property_hit_ratio", "ratio",
		1-ratio(d("registry_property_computes_total"), d("registry_property_requests_total")))
	apply := h("stream_apply_seconds")
	m.set("stream.apply_p50_ms", "ms", apply.quantile(0.5)*1e3)
	m.set("stream.apply_p90_ms", "ms", apply.quantile(0.9)*1e3)
	m.set("stream.apply_mean_ms", "ms", apply.mean()*1e3)
	m.set("store.wal_bytes_per_op", "bytes", ratio(d("store_wal_append_bytes_total"), d("stream_ops_applied_total")))
	m.set("stream.compactions", "count", d("stream_compactions_total"))
	m.set("stream.compaction_ms", "ms", h("stream_compaction_seconds").mean()*1e3)
	m.set("store.checkpoints", "count", d("store_checkpoints_total"))
	m.set("store.checkpoint_ms", "ms", h("store_checkpoint_seconds").mean()*1e3)
	m.set("store.checkpoint_bytes", "bytes", d("store_checkpoint_bytes_total"))
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// scrape fetches and parses GET /metrics.
func scrape(s *service) (*obs.Exposition, error) {
	r, err := s.do("GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	return obs.ParseExposition(bytes.NewReader(r.body))
}

// counter reads an unlabeled sample (0 when absent).
func counter(exp *obs.Exposition, name string) float64 {
	for _, s := range exp.Samples {
		if s.Name == name && len(s.Labels) == 0 {
			return s.Value
		}
	}
	return 0
}

// histogram is an unlabeled histogram's cumulative buckets.
type histogram struct {
	le         []float64 // upper bounds, +Inf last
	cum        []float64
	sum, count float64
}

func histogramOf(exp *obs.Exposition, name string) histogram {
	var h histogram
	for _, s := range exp.Samples {
		switch {
		case s.Name == name+"_bucket":
			le, err := strconv.ParseFloat(s.Labels["le"], 64)
			if err != nil {
				continue
			}
			h.le = append(h.le, le)
			h.cum = append(h.cum, s.Value)
		case s.Name == name+"_sum" && len(s.Labels) == 0:
			h.sum = s.Value
		case s.Name == name+"_count" && len(s.Labels) == 0:
			h.count = s.Value
		}
	}
	return h
}

// minus is the histogram of the observations made between b and h.
func (h histogram) minus(b histogram) histogram {
	out := histogram{le: h.le, cum: make([]float64, len(h.cum)), sum: h.sum - b.sum, count: h.count - b.count}
	for i := range h.cum {
		out.cum[i] = h.cum[i]
		if i < len(b.cum) {
			out.cum[i] -= b.cum[i]
		}
	}
	return out
}

func (h histogram) mean() float64 { return ratio(h.sum, h.count) }

// quantile interpolates linearly inside the bucket holding the q-th
// observation, as Prometheus' histogram_quantile does; its resolution is
// the bucket width.
func (h histogram) quantile(q float64) float64 {
	if h.count == 0 || len(h.cum) == 0 {
		return 0
	}
	rank := q * h.count
	lo, prev := 0.0, 0.0
	for i, c := range h.cum {
		if c >= rank {
			if i == len(h.cum)-1 && i > 0 { // +Inf bucket: the last finite bound
				return h.le[i-1]
			}
			if c == prev {
				return h.le[i]
			}
			return lo + (h.le[i]-lo)*(rank-prev)/(c-prev)
		}
		lo, prev = h.le[i], c
	}
	return lo
}

// spanSamples are the span durations a traced phase collected, seconds.
type spanSamples struct {
	self       []float64            // root span minus the time its descendants cover
	properties []float64            // "properties": lease plus property materialization
	kernel     map[string][]float64 // "kernel:<alg>" by algorithm
	walAppend  []float64            // "wal append": WAL write plus fsync
}

// collector fetches each finished request's trace from /debug/traces/{id}
// while the phase runs, before the server's bounded ring evicts it.
type collector struct {
	ids  chan string
	done chan spanSamples
}

func startCollector(s *service) *collector {
	// The buffer holds every id a phase can produce faster than the
	// fetches drain them, so the load goroutines never wait on tracing.
	c := &collector{ids: make(chan string, 1<<14), done: make(chan spanSamples, 1)}
	go func() {
		acc := spanSamples{kernel: map[string][]float64{}}
		for id := range c.ids {
			if tr, ok := fetchTrace(s, id); ok {
				acc.add(tr)
			}
		}
		c.done <- acc
	}()
	return c
}

// add queues a trace id. Nil-safe, so untraced phases pass a nil collector.
func (c *collector) add(id string) {
	if c != nil && id != "" {
		c.ids <- id
	}
}

// finish waits for the queued fetches and returns the samples.
func (c *collector) finish() spanSamples {
	close(c.ids)
	return <-c.done
}

// fetchTrace reads one trace, retrying briefly: the server rings a trace
// only after the response has been written.
func fetchTrace(s *service, id string) (obs.TraceInfo, bool) {
	for try := 0; try < 100; try++ {
		var tr obs.TraceInfo
		if err := s.getJSON("/debug/traces/"+id, &tr); err == nil && !tr.Open {
			return tr, true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return obs.TraceInfo{}, false
}

func (acc *spanSamples) add(tr obs.TraceInfo) {
	if len(tr.Spans) == 0 {
		return
	}
	root := tr.Spans[0]
	rootLo := float64(root.OffsetUS) / 1e6
	rootHi := rootLo + root.Seconds
	type iv struct{ lo, hi float64 }
	var ivs []iv
	for _, sp := range tr.Spans[1:] {
		lo := float64(sp.OffsetUS) / 1e6
		ivs = append(ivs, iv{max(lo, rootLo), min(lo+sp.Seconds, rootHi)})
		switch {
		case sp.Name == "properties":
			acc.properties = append(acc.properties, sp.Seconds)
		case sp.Name == "wal append":
			acc.walAppend = append(acc.walAppend, sp.Seconds)
		case strings.HasPrefix(sp.Name, "kernel:"):
			alg := strings.TrimPrefix(sp.Name, "kernel:")
			acc.kernel[alg] = append(acc.kernel[alg], sp.Seconds)
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, end := 0.0, rootLo
	for _, v := range ivs {
		lo := max(v.lo, end)
		if v.hi > lo {
			covered += v.hi - lo
			end = v.hi
		}
	}
	acc.self = append(acc.self, root.Seconds-covered)
}

// spanSeconds returns the durations of a trace's spans with one name.
func spanSeconds(tr obs.TraceInfo, name string) []float64 {
	var out []float64
	for _, sp := range tr.Spans {
		if sp.Name == name {
			out = append(out, sp.Seconds)
		}
	}
	return out
}
