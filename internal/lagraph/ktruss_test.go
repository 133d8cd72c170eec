package lagraph

import (
	"context"
	"math/rand"
	"testing"

	"lagraph/internal/grb"
)

func randUndirectedGraph(rng *rand.Rand, n int, density float64) *Graph[float64] {
	var rows, cols []int
	var vals []float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				rows = append(rows, i, j)
				cols = append(cols, j, i)
				vals = append(vals, 1, 1)
			}
		}
	}
	A, err := grb.MatrixFromTuples(n, n, rows, cols, vals, nil)
	if err != nil {
		panic(err)
	}
	g, err := New(&A, AdjacencyUndirected)
	if err != nil {
		panic(err)
	}
	return g
}

// edgeSet extracts the adjacency as a set of ordered pairs.
func edgeSet[T grb.Value](A *grb.Matrix[T]) map[[2]int]bool {
	out := map[[2]int]bool{}
	rows, cols, _ := A.ExtractTuples()
	for k := range rows {
		out[[2]int{rows[k], cols[k]}] = true
	}
	return out
}

// refKTruss iteratively strips edges with support < k-2.
func refKTruss(edges map[[2]int]bool, k int) map[[2]int]bool {
	cur := map[[2]int]bool{}
	for e := range edges {
		cur[e] = true
	}
	for {
		drop := [][2]int{}
		for e := range cur {
			i, j := e[0], e[1]
			support := 0
			for f := range cur {
				if f[0] == i && cur[[2]int{f[1], j}] && cur[[2]int{j, f[1]}] {
					support++
				}
			}
			if support < k-2 {
				drop = append(drop, e)
			}
		}
		if len(drop) == 0 {
			return cur
		}
		for _, e := range drop {
			delete(cur, e)
			delete(cur, [2]int{e[1], e[0]})
		}
	}
}

func TestKTrussMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		n := 6 + rng.Intn(14)
		g := randUndirectedGraph(rng, n, 0.4)
		for _, k := range []int{3, 4} {
			got, err := KTruss(context.Background(), g, k)
			if err != nil {
				t.Fatal(err)
			}
			want := refKTruss(edgeSet(g.A), k)
			gotSet := edgeSet(got)
			if len(gotSet) != len(want) {
				t.Fatalf("k=%d: %d edges, want %d", k, len(gotSet), len(want))
			}
			for e := range want {
				if !gotSet[e] {
					t.Fatalf("k=%d: missing edge %v", k, e)
				}
			}
		}
	}
}

func TestKTrussSupportValues(t *testing.T) {
	// K4: every edge has support 2 — it is a 4-truss.
	var rows, cols []int
	var vals []float64
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				rows = append(rows, i)
				cols = append(cols, j)
				vals = append(vals, 1)
			}
		}
	}
	A, _ := grb.MatrixFromTuples(4, 4, rows, cols, vals, nil)
	g, _ := New(&A, AdjacencyUndirected)
	tr, err := KTruss(context.Background(), g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NVals() != 12 {
		t.Fatalf("K4 4-truss must keep all 12 directed edges, got %d", tr.NVals())
	}
	_, _, sup := tr.ExtractTuples()
	for _, s := range sup {
		if s != 2 {
			t.Fatalf("K4 edge support %d, want 2", s)
		}
	}
	// But a 5-truss of K4 is empty.
	tr5, err := KTruss(context.Background(), g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tr5.NVals() != 0 {
		t.Fatalf("K4 5-truss should be empty, got %d edges", tr5.NVals())
	}
}

func TestKTrussValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randUndirectedGraph(rng, 5, 0.5)
	if _, err := KTruss(context.Background(), g, 2); err == nil {
		t.Fatal("k=2 accepted")
	}
	// Directed graphs are rejected.
	A := grb.MustMatrix[float64](3, 3)
	A.SetElement(1, 0, 1)
	dg, _ := New(&A, AdjacencyDirected)
	if _, err := KTruss(context.Background(), dg, 3); err == nil {
		t.Fatal("directed graph accepted")
	}
	if _, err := MaximalIndependentSet(context.Background(), dg, 1); err == nil {
		t.Fatal("MIS on directed graph accepted")
	}
	if _, err := LocalClusteringCoefficient(context.Background(), dg); err == nil {
		t.Fatal("LCC on directed graph accepted")
	}
}
