package lagraph

import (
	"context"

	"lagraph/internal/grb"
)

// BellmanFord computes single-source shortest paths by repeated min.plus
// relaxation, after LAGraph's LAGraph_BF_basic (Advanced mode: it reads
// only G.A). Unlike delta-stepping (paper Algorithm 5) it accepts negative
// edge weights, and it reports whether a negative cycle is reachable from
// the source (in which case the distances are not meaningful).
// Unreachable vertices are absent from the result.
//
// One relaxation round is a single vxm on the min.plus semiring:
//
//	dᵀ = dᵀ min.plus A   followed by   d = d min∪ d'
//
// After n-1 rounds every shortest path is settled; a change in round n
// proves a reachable negative cycle. ctx is polled once per round.
func BellmanFord[T grb.Number](ctx context.Context, g *Graph[T], src int) (*grb.Vector[T], bool, error) {
	if err := validateSource(g, src, "BellmanFord"); err != nil {
		return nil, false, err
	}
	prb := ProbeFrom(ctx)
	n := g.NumNodes()
	d := grb.MustVector[T](n)
	var zero T
	lagTry(d.SetElement(zero, src))
	minPlus := grb.MinPlus[T]()
	minOp := grb.MinOp[T]()
	// Rounds 1..n-1 settle every shortest path; round n only looks for a
	// further improvement, which proves a negative cycle.
	for round := 1; round <= n; round++ {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		// d' = dᵀ min.plus A.
		dNew := grb.MustVector[T](n)
		if err := grb.VxM(dNew, grb.NoVMask, nil, minPlus, d, g.A, nil); err != nil {
			return nil, false, wrap(StatusInvalidValue, err, "BellmanFord relax")
		}
		// merged = d min∪ d'.
		merged := d.Dup()
		if err := grb.EWiseAddV(merged, grb.NoVMask, nil, minOp, merged, dNew, nil); err != nil {
			return nil, false, wrap(StatusInvalidValue, err, "BellmanFord merge")
		}
		same, err := VectorIsEqual(d, merged)
		if err != nil {
			return nil, false, err
		}
		d = merged
		if prb.Enabled() {
			prb.Iter(IterStat{Iter: round, Frontier: d.NVals()})
		}
		if same {
			prb.SetConverged(true)
			return d, false, nil
		}
	}
	prb.SetConverged(false)
	return d, true, nil
}
