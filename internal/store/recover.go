package store

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
	"lagraph/internal/registry"
	"lagraph/internal/stream"
)

// RecoveryReport summarizes one boot-time recovery for /stats and logs.
type RecoveryReport struct {
	GraphsRecovered int      `json:"graphs_recovered"`
	BatchesReplayed int      `json:"batches_replayed"`
	OpsReplayed     int      `json:"ops_replayed"`
	StaleSkipped    int      `json:"stale_records_skipped"`
	Failed          []string `json:"failed,omitempty"` // "name: reason"
	Seconds         float64  `json:"seconds"`
}

// RecoverInto rebuilds the registry from the store: each persisted graph
// is deserialized from its checkpoint, restored under its recorded
// version, and its WAL tail is replayed through eng's ordinary Apply path
// — the same code that applied the batches the first time — so the
// recovered incarnations carry the same versions and the same pending
// delta state, and result-cache keys minted before the restart stay
// meaningful.
//
// Call it with eng's journal *not yet attached* (stream.Engine.SetJournal
// comes after), otherwise replayed batches would be re-appended to the
// very WAL they came from.
//
// Per-graph failures — an unreadable checkpoint, a version gap in the
// WAL, a registry budget miss — skip that graph (its files stay on disk
// for inspection) and are reported; they do not abort the rest.
func (s *Store) RecoverInto(reg *registry.Registry, eng *stream.Engine) RecoveryReport {
	start := time.Now()
	var rep RecoveryReport

	s.mu.Lock()
	names := make([]string, 0, len(s.graphs))
	for name := range s.graphs {
		names = append(names, name)
	}
	s.mu.Unlock()
	sort.Strings(names)

	for _, name := range names {
		if err := s.recoverOne(reg, eng, name, &rep); err != nil {
			rep.Failed = append(rep.Failed, fmt.Sprintf("%s: %v", name, err))
			// The graph may be half-restored (checkpoint in, replay
			// failed): drop the partial incarnation so the registry never
			// serves state the WAL says is stale.
			_ = reg.Remove(name)
		}
	}
	rep.Seconds = time.Since(start).Seconds()
	s.recMu.Lock()
	s.recovery = &rep
	s.recMu.Unlock()
	return rep
}

// recoverOne restores one graph: checkpoint, then WAL tail.
func (s *Store) recoverOne(reg *registry.Registry, eng *stream.Engine, name string, rep *RecoveryReport) error {
	gf := s.graph(name)
	if gf == nil {
		return ErrUnknown
	}
	gf.mu.Lock()
	dir, kind, version := gf.dir, gf.kind, gf.ckptVersion
	gf.mu.Unlock()

	f, err := os.Open(checkpointPath(dir, version))
	if err != nil {
		return err
	}
	m, err := grb.DeserializeMatrix[float64](f)
	f.Close()
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	A := m
	g, err := lagraph.New(&A, kind)
	if err != nil {
		return err
	}
	if _, err := reg.Restore(name, g, version); err != nil {
		return err
	}
	rep.GraphsRecovered++

	recs, _, _, err := readWAL(gf.walPath())
	if err != nil {
		return err
	}
	expected := version + 1
	for _, rec := range recs {
		if rec.Version <= version {
			// Superseded by the checkpoint (a crash between the meta flip
			// and the WAL rewrite leaves these behind, harmlessly).
			rep.StaleSkipped++
			continue
		}
		if rec.Version != expected {
			return fmt.Errorf("wal: version gap: have %d, want %d", rec.Version, expected)
		}
		res, err := eng.Apply(context.Background(), name, rec.Ops)
		if err != nil {
			return fmt.Errorf("wal replay v%d: %w", rec.Version, err)
		}
		if res.Version != rec.Version {
			return fmt.Errorf("wal replay produced v%d, recorded v%d", res.Version, rec.Version)
		}
		expected++
		rep.BatchesReplayed++
		rep.OpsReplayed += len(rec.Ops)
	}
	return nil
}

// walPath needs no lock: dir is immutable after the handle is created.
func (gf *graphFile) walPath() string { return filepath.Join(gf.dir, "wal.log") }
