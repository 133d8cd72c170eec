// Package lagraph is the paper's primary contribution: a library of
// production-worthy graph algorithms built on top of the GraphBLAS
// (implemented here by lagraph/internal/grb).
//
// # Core data structure (paper §II-A)
//
// Graph is deliberately NOT opaque: its fields — the adjacency matrix A,
// the Kind, and the cached properties AT, RowDegree, ColDegree,
// ASymmetricPattern and NDiag — are exported, and any code may read or set
// them. The invariant is a convention, exactly as in the paper: whoever
// modifies G.A must clear or update the cached properties (DeleteProperties
// resets them to unknown). New has move-constructor semantics: the caller's
// matrix pointer is taken over and nilled.
//
// # User modes (paper §II-B)
//
// Basic entry points (BreadthFirstSearch, ConnectedComponents,
// TriangleCount, LocalClusteringCoefficient) "just work": they may inspect
// the graph, compute and cache properties, and pick among specialised
// implementations. Advanced entry points (BFSLevel, BFSParentPushOnly,
// BFSStep, PageRankGAP, PageRankGX, SSSPDeltaStepping,
// BetweennessCentrality, the *Advanced variants, BellmanFord,
// CommunityDetectionLabelPropagation, KTruss, MaximalIndependentSet) never
// mutate the graph: when a required cached property is missing they fail
// with StatusPropertyMissing rather than surprise the caller with hidden
// work. The algorithm catalog (internal/algo) declares each kernel's
// properties and materializes them before it runs, so service callers get
// Basic-mode convenience from Advanced-mode kernels.
//
// Each kernel has exactly one exported entry point, and every one takes a
// context.Context first (see ctx.go).
//
// # Calling conventions (paper §II-C, §II-D)
//
// The C library returns an int (0 success, <0 error, >0 warning) plus a
// message buffer char msg[LAGRAPH_MSG_LEN]. In Go, every algorithm returns
// (outputs..., error); the error wraps a Status and a message retrievable
// with StatusOf and MessageOf. Warnings are represented as a *Warning that
// satisfies error but compares true with IsWarning. The LAGraph_TRY /
// GrB_TRY macros map onto Try (panic on error) and Catch (recover into an
// error variable), giving the same "write the happy path, free resources
// in one place" structure the paper describes.
package lagraph
