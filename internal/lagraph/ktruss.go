package lagraph

import (
	"context"

	"lagraph/internal/grb"
)

// KTruss computes the k-truss of an undirected graph: the maximal
// subgraph in which every edge participates in at least k-2 triangles.
// Self-edges are ignored. The returned matrix holds, for every surviving
// edge, its triangle support. Follows LAGraph's LAGraph_ktruss: iterate
// C⟨s(C)⟩ = C plus.pair Cᵀ, drop edges below support, until fixpoint.
// ctx is polled once per round.
func KTruss[T grb.Value](ctx context.Context, g *Graph[T], k int) (*grb.Matrix[int64], error) {
	if g == nil || g.A == nil {
		return nil, errf(StatusInvalidGraph, "KTruss: nil graph")
	}
	if g.Kind != AdjacencyUndirected {
		return nil, errf(StatusInvalidGraph, "KTruss: requires an undirected graph")
	}
	if k < 3 {
		return nil, errf(StatusInvalidValue, "KTruss: k must be at least 3")
	}
	prb := ProbeFrom(ctx)
	n := g.A.NRows()
	// C = pattern of A without the diagonal, as int64.
	C := grb.MustMatrix[int64](n, n)
	one := grb.UnaryOp[T, int64]{Name: "one", F: func(T) int64 { return 1 }}
	if err := grb.Apply(C, grb.NoMask, nil, one, g.A, nil); err != nil {
		return nil, wrap(StatusInvalidValue, err, "KTruss pattern")
	}
	if err := grb.Select(C, grb.NoMask, nil, grb.Offdiag[int64](), C, 0, nil); err != nil {
		return nil, wrap(StatusInvalidValue, err, "KTruss strip diagonal")
	}
	support := int64(k - 2)
	semiring := grb.PlusPair[int64, int64, int64]()
	for round := 1; ; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		before := C.NVals()
		// S⟨s(C)⟩ = C plus.pair Cᵀ: per-edge triangle support.
		S := grb.MustMatrix[int64](n, n)
		if err := grb.MxM(S, grb.StructMaskOf(C), nil, semiring, C, C, grb.DescT1); err != nil {
			return nil, wrap(StatusInvalidValue, err, "KTruss support")
		}
		// Keep edges with enough support.
		if err := grb.Select(C, grb.NoMask, nil, grb.ValueGE[int64](), S, support, nil); err != nil {
			return nil, wrap(StatusInvalidValue, err, "KTruss prune")
		}
		after := C.NVals()
		prb.Iter(IterStat{Iter: round, Frontier: after, Work: int64(before - after)})
		if after == before {
			prb.SetConverged(true)
			return C, nil
		}
	}
}
