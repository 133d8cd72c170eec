package lagraph

import (
	"context"
	"math/rand"
	"testing"

	"lagraph/internal/grb"
)

func TestMISIsIndependentAndMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		n := 10 + rng.Intn(60)
		g := randUndirectedGraph(rng, n, 0.15)
		mis, err := MaximalIndependentSet(context.Background(), g, uint64(trial)+1)
		if err != nil {
			t.Fatal(err)
		}
		member := make([]bool, n)
		mis.Iterate(func(i int, v bool) { member[i] = v })
		edges := edgeSet(g.A)
		// Independence: no edge inside the set.
		for e := range edges {
			if member[e[0]] && member[e[1]] {
				t.Fatalf("edge %v inside the independent set", e)
			}
		}
		// Maximality: every non-member has a member neighbour.
		for v := 0; v < n; v++ {
			if member[v] {
				continue
			}
			hasMemberNbr := false
			for e := range edges {
				if e[0] == v && member[e[1]] {
					hasMemberNbr = true
					break
				}
			}
			if !hasMemberNbr {
				t.Fatalf("vertex %d could still join the set", v)
			}
		}
	}
}

func TestMISIncludesIsolatedVertices(t *testing.T) {
	// Two isolated vertices and one edge.
	A, _ := grb.MatrixFromTuples(4, 4, []int{0, 1}, []int{1, 0}, []float64{1, 1}, nil)
	g, _ := New(&A, AdjacencyUndirected)
	mis, err := MaximalIndependentSet(context.Background(), g, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{2, 3} {
		if _, err := mis.ExtractElement(v); err != nil {
			t.Fatalf("isolated vertex %d not in MIS", v)
		}
	}
	if mis.NVals() != 3 { // one endpoint + two isolated
		t.Fatalf("MIS size %d, want 3", mis.NVals())
	}
}
