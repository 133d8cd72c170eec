package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
	"lagraph/internal/registry"
	"lagraph/internal/stream"
)

// fp returns a pointer to a float64 (Op.Weight).
func fp(x float64) *float64 { return &x }

// saveTestGraph persists a matrix through the only creation path
// (SaveGraph), returning the owned matrix for later direct Checkpoint
// calls and content comparisons.
func saveTestGraph(t *testing.T, s *Store, name string, kind lagraph.Kind, m *grb.Matrix[float64], version uint64) *grb.Matrix[float64] {
	t.Helper()
	g, err := lagraph.New(&m, kind)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveGraph(name, g, version); err != nil {
		t.Fatalf("SaveGraph %s: %v", name, err)
	}
	return g.A
}

// testMatrix builds a small finished CSR matrix.
func testMatrix(t *testing.T, n int, tuples [][3]float64) *grb.Matrix[float64] {
	t.Helper()
	var rows, cols []int
	var vals []float64
	for _, tu := range tuples {
		rows = append(rows, int(tu[0]))
		cols = append(cols, int(tu[1]))
		vals = append(vals, tu[2])
	}
	m, err := grb.MatrixFromTuples(n, n, rows, cols, vals, nil)
	if err != nil {
		t.Fatalf("MatrixFromTuples: %v", err)
	}
	return m
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	in := []walRecord{
		{Version: 2, Ops: []stream.Op{
			{Op: stream.OpUpsert, Src: 0, Dst: 1, Weight: fp(2.5)},
			{Op: stream.OpUpsert, Src: 1, Dst: 2},
			{Op: stream.OpDelete, Src: 3, Dst: 4},
		}},
		{Version: 3, Ops: []stream.Op{
			{Op: stream.OpDelete, Src: 0, Dst: 1},
		}},
	}
	if _, err := writeWAL(path, in, true); err != nil {
		t.Fatalf("writeWAL: %v", err)
	}
	out, _, torn, err := readWAL(path)
	if err != nil || torn {
		t.Fatalf("readWAL: err=%v torn=%v", err, torn)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d records, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Version != in[i].Version || len(out[i].Ops) != len(in[i].Ops) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, out[i], in[i])
		}
		for k := range in[i].Ops {
			a, b := in[i].Ops[k], out[i].Ops[k]
			if a.Op != b.Op || a.Src != b.Src || a.Dst != b.Dst {
				t.Fatalf("record %d op %d mismatch: %+v vs %+v", i, k, a, b)
			}
			switch {
			case a.Weight == nil && b.Weight != nil,
				a.Weight != nil && b.Weight == nil,
				a.Weight != nil && *a.Weight != *b.Weight:
				t.Fatalf("record %d op %d weight mismatch", i, k)
			}
		}
	}
}

func TestWALTornTailDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	in := []walRecord{{Version: 2, Ops: []stream.Op{{Op: stream.OpUpsert, Src: 0, Dst: 1}}}}
	goodLen, err := writeWAL(path, in, false)
	if err != nil {
		t.Fatalf("writeWAL: %v", err)
	}
	// A crash mid-append leaves a partial frame.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xde, 0xad, 0xbe})
	f.Close()

	recs, off, torn, err := readWAL(path)
	if err != nil {
		t.Fatalf("readWAL: %v", err)
	}
	if !torn || off != goodLen || len(recs) != 1 {
		t.Fatalf("torn=%v off=%d (want %d) recs=%d", torn, off, goodLen, len(recs))
	}

	// A corrupted (bit-flipped) record is also dropped, together with
	// everything after it.
	if _, err := writeWAL(path, append(in, walRecord{Version: 3}), false); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(path)
	b[int(goodLen)-3] ^= 0xff // flip a byte inside record 1's payload
	os.WriteFile(path, b, 0o644)
	recs, _, torn, err = readWAL(path)
	if err != nil {
		t.Fatalf("readWAL: %v", err)
	}
	if !torn || len(recs) != 0 {
		t.Fatalf("corrupt record not dropped: torn=%v recs=%d", torn, len(recs))
	}
}

func TestAppendRequiresCheckpoint(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	err = s.AppendBatch("ghost", 2, []stream.Op{{Op: stream.OpUpsert, Src: 0, Dst: 1}})
	if !errors.Is(err, ErrUnknown) {
		t.Fatalf("append without checkpoint: err=%v, want ErrUnknown", err)
	}
}

func TestCheckpointDropsSupersededRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := saveTestGraph(t, s, "g", lagraph.AdjacencyDirected,
		testMatrix(t, 4, [][3]float64{{0, 1, 1}, {1, 2, 1}}), 1)
	for v := uint64(2); v <= 4; v++ {
		if err := s.AppendBatch("g", v, []stream.Op{{Op: stream.OpUpsert, Src: 0, Dst: int(v) % 4}}); err != nil {
			t.Fatalf("append v%d: %v", v, err)
		}
	}
	if st := s.StatsSnapshot(); st.WALRecords != 3 {
		t.Fatalf("wal records = %d, want 3", st.WALRecords)
	}
	// Checkpoint at v3 keeps only the v4 record.
	if err := s.Checkpoint("g", lagraph.AdjacencyDirected, m, 3); err != nil {
		t.Fatalf("checkpoint v3: %v", err)
	}
	recs, _, torn, err := readWAL(filepath.Join(dirForName(dir, "g"), "wal.log"))
	if err != nil || torn {
		t.Fatalf("readWAL: err=%v torn=%v", err, torn)
	}
	if len(recs) != 1 || recs[0].Version != 4 {
		t.Fatalf("surviving records = %+v, want just v4", recs)
	}
	// The superseded checkpoint file is gone, the new one referenced.
	if _, err := os.Stat(checkpointPath(dirForName(dir, "g"), 1)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("old checkpoint still present: %v", err)
	}
	if _, err := os.Stat(checkpointPath(dirForName(dir, "g"), 3)); err != nil {
		t.Fatalf("new checkpoint missing: %v", err)
	}
}

func TestRevertBatchRemovesRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	saveTestGraph(t, s, "g", lagraph.AdjacencyDirected,
		testMatrix(t, 4, [][3]float64{{0, 1, 1}}), 1)
	if err := s.AppendBatch("g", 2, []stream.Op{{Op: stream.OpUpsert, Src: 1, Dst: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch("g", 3, []stream.Op{{Op: stream.OpUpsert, Src: 2, Dst: 3}}); err != nil {
		t.Fatal(err)
	}
	s.RevertBatch("g", 3)
	recs, _, torn, err := readWAL(filepath.Join(dirForName(dir, "g"), "wal.log"))
	if err != nil || torn {
		t.Fatalf("readWAL: err=%v torn=%v", err, torn)
	}
	if len(recs) != 1 || recs[0].Version != 2 {
		t.Fatalf("records after revert = %+v, want just v2", recs)
	}
	// The next append reuses the reverted version, as a retried batch
	// would.
	if err := s.AppendBatch("g", 3, []stream.Op{{Op: stream.OpDelete, Src: 0, Dst: 1}}); err != nil {
		t.Fatal(err)
	}
	recs, _, _, _ = readWAL(filepath.Join(dirForName(dir, "g"), "wal.log"))
	if len(recs) != 2 || recs[1].Version != 3 || recs[1].Ops[0].Op != stream.OpDelete {
		t.Fatalf("records after re-append = %+v", recs)
	}
}

func TestRemoveGraphDeletesDir(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	saveTestGraph(t, s, "g", lagraph.AdjacencyDirected,
		testMatrix(t, 2, [][3]float64{{0, 1, 1}}), 1)
	if err := s.RemoveGraph("g"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dirForName(dir, "g")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("graph dir survived removal: %v", err)
	}
	if st := s.StatsSnapshot(); st.GraphsPersisted != 0 {
		t.Fatalf("graphs persisted = %d, want 0", st.GraphsPersisted)
	}
}

func TestExplicitDeleteRemovesDiskStateEvictionKeepsIt(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg := registry.New(0)
	s.Attach(reg)

	m := testMatrix(t, 2, [][3]float64{{0, 1, 1}})
	g, err := lagraph.New(&m, lagraph.AdjacencyDirected)
	if err != nil {
		t.Fatal(err)
	}
	entry, err := reg.Add("g", g)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveGraph("g", g, entry.Version()); err != nil {
		t.Fatal(err)
	}
	if err := reg.Remove("g"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dirForName(dir, "g")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("explicit delete left disk state: %v", err)
	}
}

func TestCheckpointContentRoundTrips(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := saveTestGraph(t, s, "g", lagraph.AdjacencyDirected,
		testMatrix(t, 5, [][3]float64{{0, 1, 1.5}, {2, 2, -3}, {4, 0, 7}}), 9)
	f, err := os.Open(checkpointPath(dirForName(dir, "g"), 9))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := grb.DeserializeMatrix[float64](f)
	if err != nil {
		t.Fatalf("deserialize: %v", err)
	}
	var a, b bytes.Buffer
	if err := grb.SerializeMatrix(&a, m); err != nil {
		t.Fatal(err)
	}
	if err := grb.SerializeMatrix(&b, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("checkpoint round trip is not byte-identical")
	}
}

func TestOpenSkipsForeignAndCleansOrphans(t *testing.T) {
	dir := t.TempDir()
	// A foreign directory and a graph dir with crash leftovers.
	os.MkdirAll(filepath.Join(dir, "not-a-graph"), 0o755)
	s, err := Open(Options{Dir: dir, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	saveTestGraph(t, s, "g", lagraph.AdjacencyUndirected,
		testMatrix(t, 2, [][3]float64{{0, 1, 1}}), 1)
	s.Close()
	gdir := dirForName(dir, "g")
	os.WriteFile(filepath.Join(gdir, "checkpoint-99.bin.tmp"), []byte("junk"), 0o644)
	os.WriteFile(checkpointPath(gdir, 42), []byte("orphan"), 0o644)

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.StatsSnapshot(); st.GraphsPersisted != 1 {
		t.Fatalf("graphs persisted = %d, want 1", st.GraphsPersisted)
	}
	if _, err := os.Stat(filepath.Join(gdir, "checkpoint-99.bin.tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("tmp orphan survived reopen")
	}
	if _, err := os.Stat(checkpointPath(gdir, 42)); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("unreferenced checkpoint survived reopen")
	}
	if _, err := os.Stat(checkpointPath(gdir, 1)); err != nil {
		t.Fatal("live checkpoint removed by cleanup")
	}
}

func TestCheckpointNeverRegresses(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := saveTestGraph(t, s, "g", lagraph.AdjacencyDirected,
		testMatrix(t, 4, [][3]float64{{0, 1, 1}}), 1)
	if err := s.AppendBatch("g", 2, []stream.Op{{Op: stream.OpUpsert, Src: 1, Dst: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch("g", 3, []stream.Op{{Op: stream.OpUpsert, Src: 2, Dst: 3}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint("g", lagraph.AdjacencyDirected, m, 3); err != nil {
		t.Fatal(err)
	}
	// A stale writer — a periodic pass that read the version before the
	// checkpoint above — must be a no-op, not a regression that would
	// orphan the already-dropped v2/v3 records.
	if err := s.Checkpoint("g", lagraph.AdjacencyDirected, m, 2); err != nil {
		t.Fatalf("stale checkpoint errored: %v", err)
	}
	gdir := dirForName(dir, "g")
	if _, err := os.Stat(checkpointPath(gdir, 3)); err != nil {
		t.Fatalf("v3 checkpoint regressed away: %v", err)
	}
	if _, err := os.Stat(checkpointPath(gdir, 2)); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("stale v2 checkpoint was written")
	}
	mb, err := os.ReadFile(filepath.Join(gdir, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(mb, []byte(`"checkpoint_version": 3`)) {
		t.Fatalf("meta regressed: %s", mb)
	}
}

func TestCheckpointCannotResurrectRemovedGraph(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := saveTestGraph(t, s, "g", lagraph.AdjacencyDirected,
		testMatrix(t, 2, [][3]float64{{0, 1, 1}}), 1)
	if err := s.RemoveGraph("g"); err != nil {
		t.Fatal(err)
	}
	// The compactor's trailing journal call racing a DELETE: the store no
	// longer tracks the graph, so the checkpoint must be refused and the
	// directory must stay gone.
	if err := s.Checkpoint("g", lagraph.AdjacencyDirected, m, 2); !errors.Is(err, ErrUnknown) {
		t.Fatalf("checkpoint after remove: err=%v, want ErrUnknown", err)
	}
	if _, err := os.Stat(dirForName(dir, "g")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("removed graph's directory came back")
	}
}

// TestWritesAfterCloseAreRefused: once Close returns the data-dir lock is
// released and the next incarnation may own the directory, so a
// compactor-style checkpoint loop racing Close must stop at ErrClosed
// with nothing landing after Close returns, and later writes of every
// kind must be refused.
func TestWritesAfterCloseAreRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	m := saveTestGraph(t, s, "g", lagraph.AdjacencyDirected,
		testMatrix(t, 4, [][3]float64{{0, 1, 1}}), 1)
	gdir := dirForName(dir, "g")
	listing := func() string {
		ents, err := os.ReadDir(gdir)
		if err != nil {
			t.Error(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		return strings.Join(names, " ")
	}

	// Every checkpoint bumps the version, so any write that lands renames
	// the checkpoint file and shows in the listing.
	done := make(chan error, 1)
	go func() {
		for v := uint64(2); v < 1<<16; v++ {
			if err := s.Checkpoint("g", lagraph.AdjacencyDirected, m, v); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.StatsSnapshot().Checkpoints < 3 {
		if time.Now().After(deadline) {
			t.Fatal("checkpoint loop never started")
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()
	atClose := listing()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("checkpoint loop ended with err=%v, want ErrClosed", err)
	}

	if err := s.Checkpoint("g", lagraph.AdjacencyDirected, m, 1<<20); !errors.Is(err, ErrClosed) {
		t.Fatalf("checkpoint after close: err=%v, want ErrClosed", err)
	}
	if err := s.AppendBatch("g", 1<<20, []stream.Op{{Op: stream.OpUpsert, Src: 1, Dst: 2}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: err=%v, want ErrClosed", err)
	}
	if err := s.RemoveGraph("g"); !errors.Is(err, ErrClosed) {
		t.Fatalf("remove after close: err=%v, want ErrClosed", err)
	}
	if got := listing(); got != atClose {
		t.Fatalf("graph dir changed after Close returned: %q -> %q", atClose, got)
	}
}

func TestSaveGraphWipesStaleHigherVersionState(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	// A dead incarnation left a v57 checkpoint and WAL records behind
	// (e.g. its recovery failed at the registry step, so the name was
	// never re-registered but the files and handle linger).
	saveTestGraph(t, s, "g", lagraph.AdjacencyDirected,
		testMatrix(t, 4, [][3]float64{{0, 1, 1}, {1, 2, 2}}), 57)
	if err := s.AppendBatch("g", 58, []stream.Op{{Op: stream.OpUpsert, Src: 2, Dst: 3}}); err != nil {
		t.Fatal(err)
	}

	// A fresh upload under the same name lands at version 1. It must be
	// fully persisted — not silently skipped because 57 >= 1 — and the
	// dead incarnation's WAL must be gone, or recovery would replay v58
	// onto the new base.
	fresh := saveTestGraph(t, s, "g", lagraph.AdjacencyDirected,
		testMatrix(t, 3, [][3]float64{{0, 2, 9}}), 1)
	gdir := dirForName(dir, "g")
	if _, err := os.Stat(checkpointPath(gdir, 1)); err != nil {
		t.Fatalf("fresh checkpoint not written: %v", err)
	}
	if _, err := os.Stat(checkpointPath(gdir, 57)); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("stale v57 checkpoint survived the fresh save")
	}
	if _, err := os.Stat(filepath.Join(gdir, "wal.log")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("stale WAL survived the fresh save")
	}
	s.Close()

	// Recovery serves exactly the new content at version 1.
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	reg := registry.New(0)
	eng := stream.NewEngine(reg, stream.Options{CompactThreshold: 1 << 20})
	defer eng.Close()
	rep := s2.RecoverInto(reg, eng)
	if rep.GraphsRecovered != 1 || len(rep.Failed) != 0 || rep.BatchesReplayed != 0 {
		t.Fatalf("recovery report = %+v, want 1 graph, 0 batches, no failures", rep)
	}
	lease, err := reg.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	if v := lease.Entry().Version(); v != 1 {
		t.Fatalf("recovered version = %d, want 1", v)
	}
	var want, got bytes.Buffer
	if err := grb.SerializeMatrix(&want, fresh); err != nil {
		t.Fatal(err)
	}
	lease.Entry().EnsureFinalized()
	if err := grb.SerializeMatrix(&got, lease.Graph().A); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("recovered content is not the fresh upload")
	}
}

func TestOpenReportsUnservableDirs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	saveTestGraph(t, s, "ok", lagraph.AdjacencyDirected,
		testMatrix(t, 2, [][3]float64{{0, 1, 1}}), 1)
	saveTestGraph(t, s, "mangled", lagraph.AdjacencyDirected,
		testMatrix(t, 2, [][3]float64{{1, 0, 1}}), 1)
	s.Close()
	// A crash-mangled (empty) meta.json must not silently vanish the
	// graph: the skip is reported and the files stay for inspection.
	if err := os.WriteFile(filepath.Join(dirForName(dir, "mangled"), "meta.json"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.StatsSnapshot()
	if st.GraphsPersisted != 1 {
		t.Fatalf("graphs persisted = %d, want 1", st.GraphsPersisted)
	}
	if len(st.SkippedDirs) != 1 || !strings.Contains(st.SkippedDirs[0], "g-"+"6d616e676c6564") {
		t.Fatalf("skipped dirs = %v, want the mangled graph's dir", st.SkippedDirs)
	}
	if _, err := os.Stat(checkpointPath(dirForName(dir, "mangled"), 1)); err != nil {
		t.Fatalf("skipped graph's files were touched: %v", err)
	}
}

func TestSaveGraphWipesStateOfSkippedDir(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	saveTestGraph(t, s, "g", lagraph.AdjacencyDirected,
		testMatrix(t, 4, [][3]float64{{0, 1, 1}}), 1)
	if err := s.AppendBatch("g", 2, []stream.Op{{Op: stream.OpUpsert, Src: 1, Dst: 2}}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	gdir := dirForName(dir, "g")
	// Mangle meta: the next Open skips the dir, but its WAL and
	// checkpoint files are still there.
	if err := os.WriteFile(filepath.Join(gdir, "meta.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(s2.SkippedDirs()); n != 1 {
		t.Fatalf("skipped dirs = %d, want 1", n)
	}
	// Re-saving the same name must wipe the dead incarnation's WAL —
	// otherwise its v2 record would replay onto the new v1 base at the
	// next boot.
	fresh := saveTestGraph(t, s2, "g", lagraph.AdjacencyDirected,
		testMatrix(t, 3, [][3]float64{{2, 0, 5}}), 1)
	if _, err := os.Stat(filepath.Join(gdir, "wal.log")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("dead incarnation's WAL survived the fresh save")
	}
	s2.Close()

	s3, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	reg := registry.New(0)
	eng := stream.NewEngine(reg, stream.Options{CompactThreshold: 1 << 20})
	defer eng.Close()
	rep := s3.RecoverInto(reg, eng)
	if rep.GraphsRecovered != 1 || rep.BatchesReplayed != 0 || len(rep.Failed) != 0 {
		t.Fatalf("recovery report = %+v, want 1 graph, 0 batches, no failures", rep)
	}
	lease, err := reg.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	var want, got bytes.Buffer
	if err := grb.SerializeMatrix(&want, fresh); err != nil {
		t.Fatal(err)
	}
	lease.Entry().EnsureFinalized()
	if err := grb.SerializeMatrix(&got, lease.Graph().A); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("recovered content is not the fresh upload")
	}
}
