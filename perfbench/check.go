package main

import (
	"fmt"
	"math"
	"sort"

	"lagraph/internal/algo"
)

// Output checks. The library workloads compare every catalog result with
// the GAP reference on the same graph and sources; the service workload
// compares the server's final answers with a library-mode run on its own
// model of the graph. A mismatch is returned as an error and counted as a
// failed operation.

// Tolerances for the floating-point kernels. PageRank sums in a different
// order on the two sides; BC divides path counts that reach 1e15 on Kron.
const (
	prAbsTol = 1e-9
	bcRelTol = 1e-6
)

// dense expands a result vector into a length-n slice plus a presence
// mask. A truncated summary cannot be checked and is an error.
func dense(s *algo.VecSummary, n int) ([]float64, []bool, error) {
	if s == nil {
		return nil, nil, fmt.Errorf("result vector missing")
	}
	if s.Truncated || len(s.Entries) != s.NVals {
		return nil, nil, fmt.Errorf("result vector truncated: %d of %d entries", len(s.Entries), s.NVals)
	}
	vals := make([]float64, n)
	has := make([]bool, n)
	for _, e := range s.Entries {
		if e.I < 0 || e.I >= n {
			return nil, nil, fmt.Errorf("result index %d outside [0,%d)", e.I, n)
		}
		vals[e.I], has[e.I] = e.V, true
	}
	return vals, has, nil
}

// checkParents checks a BFS parent vector against the reference levels
// (-1 = unreached): the same vertices are reached, the source is its own
// parent, and every other reached vertex hangs off an in-neighbour one
// level closer to the source. The tree's depths are then exactly the
// reference levels.
func checkParents(s *algo.VecSummary, ref []int32, src int, inNeighbors func(v int32) []int32) error {
	vals, has, err := dense(s, len(ref))
	if err != nil {
		return fmt.Errorf("bfs: %w", err)
	}
	for v, want := range ref {
		if has[v] != (want >= 0) {
			return fmt.Errorf("bfs: vertex %d reached=%v, reference reached=%v", v, has[v], want >= 0)
		}
		if !has[v] {
			continue
		}
		p := int(vals[v])
		if v == src {
			if p != src {
				return fmt.Errorf("bfs: source %d has parent %d", v, p)
			}
			continue
		}
		if p < 0 || p >= len(ref) || ref[p] != want-1 {
			return fmt.Errorf("bfs: vertex %d at level %d has parent %d outside level %d", v, want, p, want-1)
		}
		in := inNeighbors(int32(v))
		if k := sort.Search(len(in), func(i int) bool { return in[i] >= int32(p) }); k == len(in) || in[k] != int32(p) {
			return fmt.Errorf("bfs: vertex %d has parent %d, which is not an in-neighbour", v, p)
		}
	}
	return nil
}

// checkSame compares two result vectors exactly: the same indices with
// the same values.
func checkSame(name string, got, want *algo.VecSummary, n int) error {
	gv, gh, err := dense(got, n)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	wv, wh, err := dense(want, n)
	if err != nil {
		return fmt.Errorf("%s: reference: %w", name, err)
	}
	for v := 0; v < n; v++ {
		if gh[v] != wh[v] || gv[v] != wv[v] {
			return fmt.Errorf("%s: vertex %d = %v (present %v), reference %v (present %v)", name, v, gv[v], gh[v], wv[v], wh[v])
		}
	}
	return nil
}

// checkDistances compares SSSP distances exactly: weights are integers,
// so both sides' sums are exact. Unreachable vertices (+inf in the
// reference) must be absent from the result.
func checkDistances(s *algo.VecSummary, ref []float32) error {
	vals, has, err := dense(s, len(ref))
	if err != nil {
		return fmt.Errorf("sssp: %w", err)
	}
	for v, want := range ref {
		reach := !math.IsInf(float64(want), 1)
		if has[v] != reach {
			return fmt.Errorf("sssp: vertex %d reachable=%v, reference reachable=%v", v, has[v], reach)
		}
		if reach && vals[v] != float64(want) {
			return fmt.Errorf("sssp: vertex %d distance %v, reference %v", v, vals[v], want)
		}
	}
	return nil
}

// checkClose compares a real-valued vector entrywise within
// abs + rel·|reference|; absent entries read as 0.
func checkClose(name string, s *algo.VecSummary, ref []float64, abs, rel float64) error {
	vals, _, err := dense(s, len(ref))
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	for v, want := range ref {
		if d := math.Abs(vals[v] - want); !(d <= abs+rel*math.Abs(want)) {
			return fmt.Errorf("%s: vertex %d = %v, reference %v", name, v, vals[v], want)
		}
	}
	return nil
}

// checkPartition compares component labels as partitions: labels may
// name components differently, but two vertices share a component on one
// side exactly when they do on the other.
func checkPartition(s *algo.VecSummary, ref []int64) error {
	vals, has, err := dense(s, len(ref))
	if err != nil {
		return fmt.Errorf("cc: %w", err)
	}
	fwd := map[float64]int64{}
	back := map[int64]float64{}
	for v, want := range ref {
		if !has[v] {
			return fmt.Errorf("cc: vertex %d has no label", v)
		}
		got := vals[v]
		if w, ok := fwd[got]; ok && w != want {
			return fmt.Errorf("cc: vertex %d joins component %v, which the reference splits", v, got)
		}
		if g, ok := back[want]; ok && g != got {
			return fmt.Errorf("cc: vertex %d leaves reference component %d", v, want)
		}
		fwd[got], back[want] = want, got
	}
	return nil
}

// checkCount compares an exact integer output.
func checkCount(name string, got any, want int64) error {
	n, ok := got.(int64)
	if !ok {
		return fmt.Errorf("%s: unexpected result type %T", name, got)
	}
	if n != want {
		return fmt.Errorf("%s: %d, reference %d", name, n, want)
	}
	return nil
}
