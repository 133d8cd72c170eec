package lagraph

// Context support for the long-running algorithms.
//
// Every exported kernel takes a context.Context as its first argument and
// has exactly one entry point. Its loop polls ctx.Err() once per
// iteration/epoch — a single non-blocking check per frontier step,
// PageRank sweep, Δ-bucket, BC level, FastSV round, relaxation round or
// label-propagation round, so the overhead is unmeasurable against the
// matrix work inside the loop — and returns the context's error
// (context.Canceled or context.DeadlineExceeded, unwrapped, so errors.Is
// works) as soon as cancellation is observed. Kernels without a loop (tc,
// lcc) poll between their phases. igraph lists interruptible long
// computations among the robustness requirements of a production
// network-analysis library; this is the LAGraph-side half of that
// contract, with the jobs engine supplying the contexts. Callers with
// nothing to cancel pass context.Background().
