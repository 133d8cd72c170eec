// Command perfbench is the repository benchmark: it runs one workload from
// a seed for a fixed time, checks every output it produced, and prints one
// JSON result line whose metrics are the end-to-end numbers (--trace 0) or
// the per-layer numbers (--trace 1). See README.md in this directory for
// the workloads, the metrics and the layer each one belongs to.
//
//	bash perfbench/run.sh --workload kron16 --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is a run's named results.
type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// tally counts operations and the ones that failed: a failed request, a
// kernel error or an output that does not match its reference.
type tally struct {
	attempted, failed int
	firstErr          error
}

// add records one attempted operation; a non-nil err marks it failed.
func (t *tally) add(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string // scratch space for the service workload's store
}

var workloads = map[string]func(config) (metricSet, *tally, error){
	"kron16":        runLibrary,
	"road14":        runLibrary,
	"service-churn": runService,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "kron16 | road14 | service-churn")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed every input of the run is derived from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured time per run")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "scratch directory")
	flag.Parse()
	cfg.trace = trace == 1

	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload kron16|road14|service-churn --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	scale := svcScale
	if spec, ok := libSpecs[cfg.workload]; ok {
		scale = spec.scale
	}
	header, _ := json.Marshal(map[string]any{
		"workload":   cfg.workload,
		"scale":      scale,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"rev":        revision(),
	})
	fmt.Println(string(header))

	m, t, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if t.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed; first: %v\n", t.failed, t.attempted, t.firstErr)
	}
	line, err := json.Marshal(result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// revision is the VCS revision stamped into the binary, "unknown" when the
// build had no repository around it.
func revision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified). It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// splitmix64 derives every seeded input of the benchmark.
type splitmix64 struct{ state uint64 }

func (s *splitmix64) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) intn(n int) int { return int(s.next() % uint64(n)) }

// pickSources draws count distinct vertices with at least one out-edge,
// the way the GAP runner samples sources: a pure function of the degree
// array and the seed.
func pickSources(outDegree func(v int) int64, n, count int, seed uint64) []int {
	rng := &splitmix64{state: seed ^ 0x5eed5eed}
	seen := map[int]bool{}
	var out []int
	for len(out) < count {
		v := rng.intn(n)
		if !seen[v] && outDegree(v) > 0 {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
