package lagraph

import (
	"context"

	"lagraph/internal/grb"
)

// MaximalIndependentSet computes a maximal independent set of an
// undirected graph with Luby's algorithm, after LAGraph's
// LAGraph_MaximalIndependentSet: every undecided vertex draws a
// deterministic pseudo-random score from seed; vertices beating all
// undecided neighbours join the set and their neighbours drop out.
// Returns a boolean vector marking members. ctx is polled once per round.
func MaximalIndependentSet[T grb.Value](ctx context.Context, g *Graph[T], seed uint64) (*grb.Vector[bool], error) {
	if g == nil || g.A == nil {
		return nil, errf(StatusInvalidGraph, "MaximalIndependentSet: nil graph")
	}
	if g.Kind != AdjacencyUndirected {
		return nil, errf(StatusInvalidGraph, "MaximalIndependentSet: requires an undirected graph")
	}
	prb := ProbeFrom(ctx)
	n := g.A.NRows()
	mis := grb.MustVector[bool](n)
	// candidates: all vertices, scored by a seeded hash (degree-0 vertices
	// trivially join on the first round — they have no neighbours).
	cand := grb.DenseVector(n, uint64(0))
	scoreOf := func(i int) uint64 {
		x := uint64(i)*0x9e3779b97f4a7c15 + seed
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 29
		return x | 1 // never zero, so valued masks keep every candidate
	}
	score := grb.UnaryOp[uint64, uint64]{
		Name: "score",
		PosF: func(_ uint64, i, _ int) uint64 { return scoreOf(i) },
	}
	if err := grb.ApplyV(cand, grb.NoVMask, nil, score, cand, nil); err != nil {
		return nil, wrap(StatusInvalidValue, err, "MIS scores")
	}
	maxSecond := grb.Semiring[T, uint64, uint64]{
		Name: "max.second",
		Add:  grb.MaxMonoid[uint64](),
		Mul:  grb.Second[T, uint64](),
	}
	winBool := grb.Semiring[T, bool, bool]{
		Name: "lor.second",
		Add:  grb.LorMonoid(),
		Mul:  grb.Second[T, bool](),
	}
	for round := 1; cand.NVals() > 0; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// neighbourMax(i) = max score among i's undecided neighbours.
		nbrMax := grb.MustVector[uint64](n)
		if err := grb.MxV(nbrMax, grb.StructVMaskOf(cand), nil, maxSecond, g.A, cand, grb.DescR); err != nil {
			return nil, wrap(StatusInvalidValue, err, "MIS neighbour max")
		}
		// Winners: candidates whose score beats every undecided
		// neighbour (vertices with no undecided neighbour win outright).
		winners := grb.MustVector[bool](n)
		cand.Iterate(func(i int, s uint64) {
			m, err := nbrMax.ExtractElement(i)
			if err != nil || s > m {
				lagTry(winners.SetElement(true, i))
			}
		})
		if winners.NVals() == 0 {
			// Ties (astronomically unlikely with 64-bit scores): break
			// deterministically by smallest id to guarantee progress.
			i0, _ := cand.ExtractTuples()
			lagTry(winners.SetElement(true, i0[0]))
		}
		prb.Iter(IterStat{Iter: round, Frontier: cand.NVals(), Work: int64(winners.NVals())})
		// mis ∪= winners.
		if err := grb.AssignVectorScalar(mis, grb.StructVMaskOf(winners), nil, true, grb.All, nil); err != nil {
			return nil, wrap(StatusInvalidValue, err, "MIS add winners")
		}
		// Remove winners and their neighbours from the candidates.
		nbr := grb.MustVector[bool](n)
		if err := grb.MxV(nbr, grb.NoVMask, nil, winBool, g.A, winners, nil); err != nil {
			return nil, wrap(StatusInvalidValue, err, "MIS winner neighbours")
		}
		next := grb.MustVector[uint64](n)
		cand.Iterate(func(i int, s uint64) {
			if _, err := winners.ExtractElement(i); err == nil {
				return
			}
			if _, err := nbr.ExtractElement(i); err == nil {
				return
			}
			lagTry(next.SetElement(s, i))
		})
		cand = next
	}
	return mis, nil
}
