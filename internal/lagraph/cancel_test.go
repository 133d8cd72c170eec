package lagraph

import (
	"context"
	"errors"
	"testing"
	"time"

	"lagraph/internal/gen"
	"lagraph/internal/grb"
)

// Cancellation contract: every exported kernel polls its context inside
// the iteration loop and returns context.Canceled — the raw sentinel, not a
// wrapped lagraph error — once the context is done.

// cancelledCtx returns an already-cancelled context.
func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestAllAlgorithmsObservePreCancelledContext(t *testing.T) {
	g := graphFromEdges(t, gen.Kron(7, 8, 1)) // undirected, so TC runs too
	if err := g.PropertyAT(); err != nil && !IsWarning(err) {
		t.Fatal(err)
	}
	if err := g.PropertyRowDegree(); err != nil && !IsWarning(err) {
		t.Fatal(err)
	}
	ctx := cancelledCtx()

	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"bfs", func() error { _, _, err := BreadthFirstSearch(ctx, g, 0, true, true); return err }},
		{"bfs.level", func() error { _, err := BFSLevel(ctx, g, 0); return err }},
		{"bfs.pushonly", func() error { _, err := BFSParentPushOnly(ctx, g, 0); return err }},
		{"bfs.step", func() error {
			n := g.NumNodes()
			p, q := grb.MustVector[int64](n), grb.MustVector[int64](n)
			lagTry(p.SetElement(0, 0))
			lagTry(q.SetElement(0, 0))
			return BFSStep(ctx, g, p, q)
		}},
		{"pagerank-gap", func() error { _, _, err := PageRankGAP(ctx, g, 0.85, 1e-4, 100); return err }},
		{"pagerank-gx", func() error { _, _, err := PageRankGX(ctx, g, 0.85, 1e-4, 100); return err }},
		{"cc", func() error { _, err := ConnectedComponents(ctx, g); return err }},
		{"cc.advanced", func() error { _, err := ConnectedComponentsAdvanced(ctx, g); return err }},
		{"sssp", func() error { _, err := SSSPDeltaStepping(ctx, g, 0, 2); return err }},
		{"tc", func() error { _, err := TriangleCount(ctx, g); return err }},
		{"tc.advanced", func() error { _, err := TriangleCountAdvanced(ctx, g, TCSandiaLUT, true); return err }},
		{"lcc", func() error { _, err := LocalClusteringCoefficient(ctx, g); return err }},
		{"bc", func() error { _, err := BetweennessCentrality(ctx, g, []int{0, 1}); return err }},
		{"bellmanford", func() error { _, _, err := BellmanFord(ctx, g, 0); return err }},
		{"cdlp", func() error { _, err := CommunityDetectionLabelPropagation(ctx, g, 10); return err }},
		{"ktruss", func() error { _, err := KTruss(ctx, g, 3); return err }},
		{"mis", func() error { _, err := MaximalIndependentSet(ctx, g, 0); return err }},
	} {
		if err := tc.run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", tc.name, err)
		}
	}
}

// TestPageRankCancelledMidIteration cancels a PageRank that can never
// converge (negative tolerance, effectively unbounded iteration budget)
// and requires the loop to stop promptly with context.Canceled — the
// "cancelled job stops consuming CPU" half of the jobs-engine contract.
func TestPageRankCancelledMidIteration(t *testing.T) {
	g := graphFromEdges(t, gen.Kron(8, 8, 1))
	if err := g.PropertyAT(); err != nil && !IsWarning(err) {
		t.Fatal(err)
	}
	if err := g.PropertyRowDegree(); err != nil && !IsWarning(err) {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, iters, err := PageRankGX(ctx, g, 0.85, -1 /* never converges */, 1<<30)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v after %d iters, want context.Canceled", err, iters)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %s; the loop is not polling its context", elapsed)
	}
	if iters == 0 {
		t.Fatal("expected at least one completed iteration before cancellation")
	}
}
