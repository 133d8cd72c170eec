package store

import (
	"context"
	"path/filepath"
	"testing"

	"lagraph/internal/lagraph"
	"lagraph/internal/stream"
)

// Replication surface tests: the epoch lifecycle, the CRC-verified tail
// reads a leader serves, and the follower-side checkpoint install.

func TestEpochLifecycle(t *testing.T) {
	dir := t.TempDir()
	opts := stream.Options{CompactThreshold: 1 << 20, CompactRatio: 1e9}
	h, _ := newHarness(t, dir, opts)
	defer h.st.Close()
	defer h.eng.Close()

	h.loadGraph(t, "g", lagraph.AdjacencyDirected, 4, [][3]float64{{0, 1, 1}})
	e1 := h.st.Epoch("g")
	if e1 == "" {
		t.Fatal("SaveGraph minted no epoch")
	}

	// A mid-history checkpoint (compaction-style, non-fresh) preserves the
	// incarnation: same graph, same epoch.
	if _, err := h.eng.Apply(context.Background(), "g", []stream.Op{{Op: stream.OpUpsert, Src: 1, Dst: 2}}); err != nil {
		t.Fatal(err)
	}
	lease, err := h.reg.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	e := lease.Entry()
	e.EnsureFinalized()
	if err := h.st.Checkpoint("g", lagraph.AdjacencyDirected, e.Graph().A, e.Version()); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	lease.Release()
	if got := h.st.Epoch("g"); got != e1 {
		t.Fatalf("checkpoint changed epoch %q → %q", e1, got)
	}

	// Delete + recreate under the same name is a new incarnation: the
	// fresh SaveGraph mints a different epoch, so a follower holding the
	// old incarnation's WAL positions cannot mistake the new log for a
	// continuation. (reg.Remove drives st.RemoveGraph via the attached
	// removal listener, as DELETE /graphs/{name} does.)
	if err := h.reg.Remove("g"); err != nil {
		t.Fatal(err)
	}
	h.loadGraph(t, "g", lagraph.AdjacencyDirected, 4, [][3]float64{{2, 3, 9}})
	e2 := h.st.Epoch("g")
	if e2 == "" || e2 == e1 {
		t.Fatalf("recreate epoch %q, want a fresh one != %q", e2, e1)
	}
}

func TestTailSince(t *testing.T) {
	dir := t.TempDir()
	opts := stream.Options{CompactThreshold: 1 << 20, CompactRatio: 1e9}
	h, _ := newHarness(t, dir, opts)
	defer h.st.Close()
	defer h.eng.Close()

	h.loadGraph(t, "g", lagraph.AdjacencyDirected, 8, [][3]float64{{0, 1, 1}})
	for i := 0; i < 3; i++ {
		if _, err := h.eng.Apply(context.Background(), "g", []stream.Op{
			{Op: stream.OpUpsert, Src: i, Dst: i + 4, Weight: fp(float64(i))},
			{Op: stream.OpDelete, Src: 7, Dst: 7},
		}); err != nil {
			t.Fatal(err)
		}
	}

	tail, err := h.st.TailSince("g", 1)
	if err != nil {
		t.Fatal(err)
	}
	if tail.Epoch != h.st.Epoch("g") || tail.CheckpointVersion != 1 {
		t.Fatalf("tail header = epoch %q ckpt %d", tail.Epoch, tail.CheckpointVersion)
	}
	if len(tail.Batches) != 3 {
		t.Fatalf("TailSince(1) = %d batches, want 3", len(tail.Batches))
	}
	for i, b := range tail.Batches {
		if b.Version != uint64(i+2) {
			t.Fatalf("batch %d version %d, want %d", i, b.Version, i+2)
		}
		if len(b.Ops) != 2 {
			t.Fatalf("batch %d has %d ops, want 2", i, len(b.Ops))
		}
	}
	// Resume mid-log: only the records strictly after the cursor.
	tail, err = h.st.TailSince("g", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail.Batches) != 1 || tail.Batches[0].Version != 4 {
		t.Fatalf("TailSince(3) = %+v", tail.Batches)
	}
	// Caught up: an empty (but valid) tail.
	tail, err = h.st.TailSince("g", 4)
	if err != nil || len(tail.Batches) != 0 {
		t.Fatalf("TailSince(4) = %v batches, err %v", len(tail.Batches), err)
	}
	if _, err := h.st.TailSince("nope", 0); err == nil {
		t.Fatal("TailSince on unknown graph succeeded")
	}
}

func TestTailSinceExcludesTornTail(t *testing.T) {
	dir := t.TempDir()
	opts := stream.Options{CompactThreshold: 1 << 20, CompactRatio: 1e9}
	h, _ := newHarness(t, dir, opts)
	defer h.eng.Close()

	h.loadGraph(t, "g", lagraph.AdjacencyDirected, 4, [][3]float64{{0, 1, 1}})
	if _, err := h.eng.Apply(context.Background(), "g", []stream.Op{{Op: stream.OpUpsert, Src: 1, Dst: 2}}); err != nil {
		t.Fatal(err)
	}
	h.st.Close() // release the append handle; the junk below is the tail
	appendJunk(t, filepath.Join(dirForName(dir, "g"), "wal.log"), []byte{9, 9, 9})

	st2, err := Open(Options{Dir: dir, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	tail, err := st2.TailSince("g", 0)
	if err != nil {
		t.Fatalf("TailSince over torn tail: %v", err)
	}
	// The good prefix ships; the torn record is simply not served.
	if len(tail.Batches) != 1 || tail.Batches[0].Version != 2 {
		t.Fatalf("torn-tail TailSince = %+v, want the one good batch", tail.Batches)
	}
}

func TestInstallCheckpointAdoptsLeaderState(t *testing.T) {
	leaderDir, followerDir := t.TempDir(), t.TempDir()
	opts := stream.Options{CompactThreshold: 1 << 20, CompactRatio: 1e9}

	leader, _ := newHarness(t, leaderDir, opts)
	defer leader.st.Close()
	defer leader.eng.Close()
	leader.loadGraph(t, "g", lagraph.AdjacencyUndirected, 6,
		[][3]float64{{0, 1, 1}, {1, 0, 1}, {2, 3, 2}, {3, 2, 2}})
	want := fingerprint(t, leader.reg, "g")

	ck, err := leader.st.ReadCheckpoint("g")
	if err != nil {
		t.Fatal(err)
	}
	if ck.Version != 1 || ck.Epoch == "" || ck.Kind != "undirected" {
		t.Fatalf("checkpoint = v%d epoch %q kind %q", ck.Version, ck.Epoch, ck.Kind)
	}

	// Install on the follower's store: prior junk under the same name —
	// a dead incarnation's checkpoint and WAL — must be wiped.
	follower, _ := newHarness(t, followerDir, opts)
	follower.loadGraph(t, "g", lagraph.AdjacencyDirected, 3, [][3]float64{{0, 1, 5}})
	if _, err := follower.eng.Apply(context.Background(), "g", []stream.Op{{Op: stream.OpUpsert, Src: 1, Dst: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := follower.reg.Remove("g"); err != nil {
		t.Fatal(err)
	}
	if err := follower.st.InstallCheckpoint("g", lagraph.AdjacencyUndirected, ck.Version, ck.Epoch, ck.Data); err != nil {
		t.Fatalf("InstallCheckpoint: %v", err)
	}
	if got := follower.st.Epoch("g"); got != ck.Epoch {
		t.Fatalf("follower epoch %q, want leader's %q", got, ck.Epoch)
	}
	infos := follower.st.ListDurable()
	if len(infos) != 1 || infos[0].CheckpointVersion != ck.Version || infos[0].WALRecords != 0 {
		t.Fatalf("follower ListDurable = %+v", infos)
	}
	follower.crash()

	// The installed state recovers through the ordinary boot path at the
	// leader's exact version, byte-identical content.
	f2, rep := newHarness(t, followerDir, opts)
	defer f2.st.Close()
	defer f2.eng.Close()
	if len(rep.Failed) != 0 || rep.GraphsRecovered != 1 {
		t.Fatalf("recovery report = %+v", rep)
	}
	checkFingerprint(t, "g", want, fingerprint(t, f2.reg, "g"))
	if got := f2.st.Epoch("g"); got != ck.Epoch {
		t.Fatalf("recovered epoch %q, want %q", got, ck.Epoch)
	}
}

func TestOpenReadRepairsMissingEpoch(t *testing.T) {
	dir := t.TempDir()
	opts := stream.Options{CompactThreshold: 1 << 20, CompactRatio: 1e9}
	h, _ := newHarness(t, dir, opts)
	h.loadGraph(t, "g", lagraph.AdjacencyDirected, 4, [][3]float64{{0, 1, 1}})
	h.st.Close()
	h.eng.Close()

	// Simulate a pre-epoch data directory: strip the epoch from meta.json.
	gf := h.st.graph("g")
	if err := h.st.writeMeta(gf.dir, meta{
		Name: "g", Kind: "directed", CheckpointVersion: 1,
	}); err != nil {
		t.Fatal(err)
	}

	h2, _ := newHarness(t, dir, opts)
	defer h2.st.Close()
	defer h2.eng.Close()
	if h2.st.Epoch("g") == "" {
		t.Fatal("Open did not mint an epoch for a legacy directory")
	}
}
