package ogpa

// Persistence: binary base snapshots and the durable live-data mode.
//
// A read-only KB can be saved once (SaveSnapshot) and reopened in
// milliseconds (OpenKBSnapshot) — the snapshot holds the graph's CSR
// arrays and symbol table verbatim, so startup skips parsing and
// interning entirely. A live KB becomes durable with
// EnableDurableLiveData(dir): the data directory holds one base snapshot
// plus a write-ahead log of every committed mutation batch, and
// reopening the same directory recovers the exact pre-crash epoch. See
// internal/snap for the on-disk formats and internal/delta for the
// commit protocol (WAL fsync before the epoch publish).

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"ogpa/internal/delta"
	"ogpa/internal/dllite"
	"ogpa/internal/rdf"
	"ogpa/internal/snap"
)

// Data-directory layout for EnableDurableLiveData.
const (
	// SnapshotFile is the base snapshot inside a data directory.
	SnapshotFile = "base.snap"
	// WALFile is the write-ahead log inside a data directory.
	WALFile = "delta.wal"
)

// SaveSnapshot writes the KB's current data graph as a binary snapshot
// (atomic: temp file + rename). On a live KB the overlay is folded first
// and the snapshot captures the current epoch; the WAL and recovery
// chain of a durable KB are untouched — this is an export, not a
// checkpoint. A read-only KB saves at epoch 1, the epoch a live store
// opens with, so the file can seed a durable data directory.
func (kb *KB) SaveSnapshot(path string) error {
	if kb.store != nil {
		_, err := kb.store.SaveTo(path)
		return err
	}
	return snap.SaveSnapshot(path, kb.g, 1)
}

// OpenKBSnapshot loads a KB from the ontology text format and a binary
// snapshot written by SaveSnapshot (or by a durable KB's checkpointer).
// The graph comes back without re-parsing or re-interning anything, and
// it is all the KB keeps of its data.
func OpenKBSnapshot(ontologyPath, snapshotPath string) (*KB, error) {
	of, err := os.Open(ontologyPath)
	if err != nil {
		return nil, err
	}
	defer of.Close()
	t, err := dllite.ParseTBox(of)
	if err != nil {
		return nil, err
	}
	g, _, err := snap.LoadSnapshot(snapshotPath)
	if err != nil {
		return nil, err
	}
	return &KB{tbox: t, g: g}, nil
}

// EnableDurableLiveData is EnableLiveData plus crash safety: mutations
// are logged to a write-ahead log in dir and fsync'd before their epoch
// is published, and the background compactor checkpoints the folded
// overlay back into dir's base snapshot. If dir already holds state from
// a previous run, that state is recovered — snapshot plus committed WAL
// records, torn tail discarded — and REPLACES the KB's loaded data (the
// directory is the durable truth; the -data file only seeds it on first
// run). Calling it twice, or after EnableLiveData, is an error.
func (kb *KB) EnableDurableLiveData(dir string, compactThreshold int) error {
	if kb.store != nil {
		return fmt.Errorf("ogpa: live data already enabled")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("ogpa: create data dir: %w", err)
	}
	snapPath := filepath.Join(dir, SnapshotFile)
	walPath := filepath.Join(dir, WALFile)

	base := kb.g
	baseEpoch := uint64(1)
	switch _, err := os.Stat(snapPath); {
	case err == nil:
		if base, baseEpoch, err = snap.LoadSnapshot(snapPath); err != nil {
			return err
		}
	case errors.Is(err, fs.ErrNotExist):
		// First run: seed the directory with the loaded graph so recovery
		// always has a base to replay the WAL onto.
		if err := snap.SaveSnapshot(snapPath, base, baseEpoch); err != nil {
			return err
		}
	default:
		return fmt.Errorf("ogpa: stat snapshot: %w", err)
	}

	wal, records, err := snap.OpenWAL(walPath)
	if err != nil {
		return err
	}
	store, err := delta.NewStoreRecovered(base, baseEpoch, records, delta.Config{
		CompactThreshold: compactThreshold,
		Name:             rdf.LocalName,
		WAL:              wal,
		SnapshotPath:     snapPath,
	})
	if err != nil {
		//lint:ignore droppederr best-effort handle cleanup; the recovery error is the one to report
		_ = wal.Close()
		return err
	}
	kb.g = base
	kb.store = store
	return nil
}

// Durable reports whether the KB persists mutations (EnableDurableLiveData).
func (kb *KB) Durable() bool { return kb.store != nil && kb.store.SnapshotPath() != "" }

// Checkpoint folds the live overlay into the data directory's base
// snapshot and truncates the WAL (see delta.Store.Checkpoint). It
// returns the checkpointed epoch, or an error on a non-durable KB.
func (kb *KB) Checkpoint() (uint64, error) {
	if kb.store == nil {
		return 0, errReadOnly
	}
	return kb.store.Checkpoint()
}

// Close shuts a live KB down deterministically: mutations start failing,
// the background compactor finishes and exits, and the WAL handle is
// closed (every committed batch is already fsync'd, so nothing is
// flushed or lost), and every subscription closes. No-op on a read-only
// KB; idempotent. Queries against snapshots already taken keep working.
func (kb *KB) Close() error {
	if kb.store == nil {
		return nil
	}
	err := kb.store.Close()
	kb.inc.close()
	return err
}

// PersistenceStats describes the durable state of a KB.
type PersistenceStats struct {
	Durable             bool
	SnapshotPath        string
	SnapshotBytes       int64  // 0 if the snapshot is missing or unreadable
	WALBytes            int64  // committed WAL length, header included
	LastCheckpointEpoch uint64 // recovery floor: epochs above it live in the WAL
	CheckpointErr       string // last background checkpoint failure, "" when healthy
}

// PersistenceStats reports the KB's durable state (zero value when the
// KB is read-only or live-but-in-memory).
func (kb *KB) PersistenceStats() PersistenceStats {
	if !kb.Durable() {
		return PersistenceStats{}
	}
	st := PersistenceStats{
		Durable:             true,
		SnapshotPath:        kb.store.SnapshotPath(),
		WALBytes:            kb.store.WALSize(),
		LastCheckpointEpoch: kb.store.LastCheckpointEpoch(),
	}
	if fi, err := os.Stat(st.SnapshotPath); err == nil {
		st.SnapshotBytes = fi.Size()
	}
	if err := kb.store.CheckpointErr(); err != nil {
		st.CheckpointErr = err.Error()
	}
	return st
}
