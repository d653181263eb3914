// Package delta implements the live-data layer: an epoch-versioned,
// copy-on-write graph store over the immutable CSR base built by
// internal/graph.
//
// A Store holds a base *graph.Graph plus an append-only overlay log of
// inserted/deleted triples (ABox changes only — new vertices, edges,
// labels, attributes; the TBox stays fixed). Reads and writes meet through
// an RCU-style epoch pointer:
//
//   - Writers serialize on an internal mutex, append a whole parsed batch
//     to the log and publish a fresh immutable state with epoch+1 via one
//     atomic pointer swap. A query either sees all of a batch or none of
//     it — never a torn write.
//   - Readers call Snapshot, which is one atomic load: lock-free, and the
//     returned view is immutable forever, no matter how many writes land
//     afterwards.
//
// Snapshot.Graph materializes the epoch's graph lazily and memoizes it
// per epoch (sync.Once), so repeated queries against one epoch pay for it
// once. It starts from the newest epoch whose graph is already built over
// the same base and applies only the ops logged after it, so the first
// read after a commit costs about one batch, however long the overlay.
// The ops are applied through rdf.ApplyTriple straight to a graph.Overlay,
// a copy-on-write derivation that clones each row it changes and shares
// every untouched one with the graph it started from; the result is a
// plain *graph.Graph, which keeps the engine's inner loops monomorphic.
// A background compactor folds the overlay into a fresh canonical CSR
// base once the log crosses a size threshold, restoring flat-arena
// adjacency without changing content (the epoch is preserved — cached
// plans keyed by epoch stay valid).
//
// Triple bodies are routed through internal/rdf's type-aware mapping, so
// rdf:type triples become label mutations, resource-object triples edge
// mutations and literal-object triples attribute mutations, exactly as at
// load time. Vertex deletion does not exist: deleting every triple that
// mentions a vertex leaves it isolated, so VIDs stay stable across epochs
// and compactions.
//
// # Durability
//
// A Store is optionally durable (Config.WAL + Config.SnapshotPath): every
// committed batch is appended to the write-ahead log and fsync'd while
// the writer gate is held, BEFORE the atomic pointer swap publishes the
// batch's epoch — so an epoch a client has observed can never be lost to
// a crash, and a batch whose WAL record is torn was never acknowledged.
// The background compactor then doubles as a checkpointer: fold the
// overlay, write a fresh snapshot at the same epoch, truncate the WAL.
// NewStoreRecovered rebuilds the exact pre-crash state from snapshot +
// replayed WAL records.
package delta

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"ogpa/internal/graph"
	"ogpa/internal/rdf"
	"ogpa/internal/snap"
)

// The Overlay takes triples' names itself: graphNow applies ops to it
// with no adapter.
var _ rdf.Mutator = (*graph.Overlay)(nil)

// DefaultCompactThreshold is the overlay size (in ops) that triggers
// background compaction when Config.CompactThreshold is zero.
const DefaultCompactThreshold = 4096

// Config tunes a Store.
type Config struct {
	// CompactThreshold is the overlay op count that triggers background
	// compaction; 0 means DefaultCompactThreshold, negative disables
	// automatic compaction (Compact can still be called explicitly).
	CompactThreshold int
	// Name rewrites IRIs before interning (e.g. rdf.LocalName); identity
	// when nil. It must match the mapping the base graph was loaded with,
	// or mutations would target differently-spelled vertices.
	Name func(string) string
	// WAL, when non-nil, makes the store durable: every committed batch
	// is appended and fsync'd before its epoch is published. The store
	// takes ownership of the log (Close closes it).
	WAL *snap.WAL
	// SnapshotPath is where the checkpointer writes folded snapshots.
	// Required when WAL is set.
	SnapshotPath string
}

// ErrClosed is returned by mutations on a store after Close.
var ErrClosed = errors.New("delta: store is closed")

// op is one logged mutation: a parsed triple plus its polarity.
type op struct {
	del bool
	t   rdf.Triple
}

// state is one immutable published version of the store. Everything in it
// is fixed at publish time except the memoized materialization, which is
// write-once under the sync.Once.
type state struct {
	epoch uint64
	base  *graph.Graph
	ops   []op // immutable view: writers only append past len(ops)
	store *Store

	once sync.Once
	g    *graph.Graph
}

// newState returns a state over base. One with no ops is built already:
// its graph is the base itself, so its once is spent here.
func (s *Store) newState(epoch uint64, base *graph.Graph, ops []op) *state {
	st := &state{epoch: epoch, base: base, ops: ops, store: s}
	if len(ops) == 0 {
		st.g = base
		st.once.Do(func() {})
	}
	return st
}

// graphNow materializes base+ops, memoized per state so every reader of
// this epoch shares one derivation. It starts from the store's newest
// built state when it shares this state's base and holds no more ops: the
// log under one base is append-only, so that state's ops are a prefix of
// these, and applying the rest over its graph gives what applying all of
// them over the base would (vertices are still appended in order of first
// use, so VIDs agree). Otherwise — an epoch read after a newer one was
// built, or over a base a compaction has since replaced — it starts from
// the base.
func (st *state) graphNow() *graph.Graph {
	st.once.Do(func() {
		built := &st.store.built
		from, done := st.base, 0
		if b := built.Load(); b.base == st.base && len(b.ops) <= len(st.ops) {
			from, done = b.g, len(b.ops)
		}
		ov := graph.NewOverlay(from)
		for _, o := range st.ops[done:] {
			rdf.ApplyTriple(ov, o.t, o.del, st.store.nameFn)
		}
		st.g = ov.Freeze()
		// Move the pointer forward: never to fewer ops, and never off
		// the base of the last rebase.
		for b := built.Load(); b.base == st.base && len(b.ops) < len(st.ops); b = built.Load() {
			if built.CompareAndSwap(b, st) {
				break
			}
		}
	})
	return st.g
}

// writerGate serializes mutations and compaction publishes. It is its own
// struct so the Store's lock-free reader fields stay outside the lock
// discipline.
type writerGate struct {
	mu         sync.Mutex
	compacting bool  // a background compaction goroutine is running
	closed     bool  // Close has run; mutations return ErrClosed
	walErr     error // sticky: a WAL append failed, durability is gone
}

// Store is the mutable graph store. Zero value is not usable; construct
// with NewStore. All methods are safe for concurrent use.
type Store struct {
	cur         atomic.Pointer[state]
	gate        writerGate
	threshold   int
	nameFn      func(string) string
	compactions atomic.Uint64
	bg          sync.WaitGroup

	wal            *snap.WAL // nil for a purely in-memory store
	snapPath       string
	lastCheckpoint atomic.Uint64 // epoch of the newest on-disk snapshot
	checkpointErr  atomic.Pointer[error]

	// watchers receive each committed batch under the writer gate, which
	// is what guarantees publish-order, gap-free delivery. Guarded by
	// gate.mu.
	watchers []*Watcher

	// built is the newest state with a materialized graph over the base
	// of the last rebase; graphNow starts from it. It pins that one
	// graph. A rebase moves it to the new base itself, so no graph over
	// an older base stays reachable from here.
	built atomic.Pointer[state]
}

// NewStore wraps base in a mutable store. The base's symbol table is
// thawed so writer goroutines can intern names of new individuals; the
// base graph itself is never modified. With a durable Config the caller
// must already have written a snapshot of base at epoch 1 (ogpa's
// EnableDurableLiveData does), so that crash recovery has a base to
// replay the fresh WAL onto.
func NewStore(base *graph.Graph, cfg Config) *Store {
	s, _ := newStore(base, 1, nil, cfg)
	return s
}

// NewStoreRecovered rebuilds a durable store from a loaded snapshot and
// the committed WAL records that survived it: each record is replayed as
// one batch, reproducing the exact pre-crash epoch sequence (records at
// or below the snapshot's epoch are skipped — they are already folded
// in). The replayed log stays in the overlay; the next checkpoint folds
// it down.
func NewStoreRecovered(base *graph.Graph, baseEpoch uint64, records []snap.Record, cfg Config) (*Store, error) {
	return newStore(base, baseEpoch, records, cfg)
}

func newStore(base *graph.Graph, baseEpoch uint64, records []snap.Record, cfg Config) (*Store, error) {
	threshold := cfg.CompactThreshold
	if threshold == 0 {
		threshold = DefaultCompactThreshold
	}
	base.Symbols.Thaw()
	s := &Store{
		threshold: threshold,
		nameFn:    cfg.Name,
		wal:       cfg.WAL,
		snapPath:  cfg.SnapshotPath,
	}
	s.lastCheckpoint.Store(baseEpoch)
	epoch := baseEpoch
	var ops []op
	for _, rec := range records {
		if rec.Epoch <= baseEpoch {
			// Folded into the snapshot already: a checkpoint whose WAL
			// truncation did not land before a crash. Replaying it would
			// double-apply, so skip.
			continue
		}
		if rec.Epoch != epoch+1 {
			return nil, fmt.Errorf("delta: WAL epoch gap: snapshot at %d, then record epochs jump %d -> %d", baseEpoch, epoch, rec.Epoch)
		}
		epoch = rec.Epoch
		for _, t := range rec.Triples {
			ops = append(ops, op{del: rec.Del, t: t})
		}
	}
	s.rebase(baseEpoch, base, epoch, ops[:len(ops):len(ops)])
	return s, nil
}

// rebase publishes a state at epoch over a new base, with ops logged over
// it, and moves built to the base itself (the state at baseEpoch). Called
// at construction and, under the writer gate, by Compact and Checkpoint.
func (s *Store) rebase(baseEpoch uint64, base *graph.Graph, epoch uint64, ops []op) {
	s.built.Store(s.newState(baseEpoch, base, nil))
	s.cur.Store(s.newState(epoch, base, ops))
}

// Snapshot is an immutable read view of the store at one epoch.
type Snapshot struct {
	st *state
}

// Snapshot returns the current read view: one atomic load, lock-free.
func (s *Store) Snapshot() Snapshot { return Snapshot{st: s.cur.Load()} }

// Epoch identifies the version; it increments on every applied batch.
func (sn Snapshot) Epoch() uint64 { return sn.st.epoch }

// OverlayOps reports how many logged ops this view layers over its base.
func (sn Snapshot) OverlayOps() int { return len(sn.st.ops) }

// Graph materializes the merged graph for this view (memoized per epoch).
func (sn Snapshot) Graph() *graph.Graph { return sn.st.graphNow() }

// Epoch reports the current epoch.
func (s *Store) Epoch() uint64 { return s.cur.Load().epoch }

// OverlaySize reports the current overlay length in ops (resets to zero
// when compaction folds the overlay into the base).
func (s *Store) OverlaySize() int { return len(s.cur.Load().ops) }

// Compactions reports how many compactions have completed.
func (s *Store) Compactions() uint64 { return s.compactions.Load() }

// InsertTriples parses an N-Triples body and applies every triple as an
// insertion, atomically: either the whole batch is published under one new
// epoch, or (on a parse error) nothing is. Returns the number of triples
// applied.
func (s *Store) InsertTriples(r io.Reader) (int, error) { return s.apply(r, false) }

// DeleteTriples parses an N-Triples body and applies every triple as a
// deletion, with the same atomicity. Deleting an absent triple is a no-op.
func (s *Store) DeleteTriples(r io.Reader) (int, error) { return s.apply(r, true) }

func (s *Store) apply(r io.Reader, del bool) (int, error) {
	// Parse the entire body before taking the writer lock: a parse error
	// must leave the store untouched, and holding the lock across IO would
	// serialize writers on the slowest client.
	var batch []op
	err := rdf.ParseTriples(r, func(t rdf.Triple) error {
		batch = append(batch, op{del: del, t: t})
		return nil
	})
	if err != nil {
		return 0, err
	}
	if len(batch) == 0 {
		return 0, nil
	}

	s.gate.mu.Lock()
	if s.gate.closed {
		s.gate.mu.Unlock()
		return 0, ErrClosed
	}
	if s.gate.walErr != nil {
		err := s.gate.walErr
		s.gate.mu.Unlock()
		return 0, fmt.Errorf("delta: store lost durability: %w", err)
	}
	cur := s.cur.Load()
	var triples []rdf.Triple
	if s.wal != nil || len(s.watchers) > 0 {
		triples = make([]rdf.Triple, len(batch))
		for i, o := range batch {
			triples[i] = o.t
		}
	}
	if s.wal != nil {
		// Durability point: the record must be on stable storage before
		// the swap below makes epoch+1 observable — a crash after a
		// client sees the new epoch must never lose the batch. The fsync
		// runs under the writer gate, which serializes writers on disk
		// latency; that is the price of the ordering and why reads stay
		// entirely outside this lock.
		if err := s.wal.Append(snap.Record{Epoch: cur.epoch + 1, Del: del, Triples: triples}); err != nil {
			// The log may now hold a torn record; appending more behind
			// it would be unrecoverable. Poison the store: the batch is
			// NOT published (all-or-nothing holds), and every later
			// mutation fails fast until the operator restarts — recovery
			// discards the torn tail.
			s.gate.walErr = err
			s.gate.mu.Unlock()
			return 0, fmt.Errorf("delta: store lost durability: %w", err)
		}
	}
	// An amortised append: writers serialise under the gate and always
	// extend the newest state, whose ops is the longest view of its
	// backing array, so the slots written here lie past the end of every
	// published view. Compact cuts its suffix to full capacity, so the
	// first append after it moves to a fresh array.
	ops := append(cur.ops, batch...)
	next := s.newState(cur.epoch+1, cur.base, ops)
	s.cur.Store(next)
	// Deliver to watchers while still holding the gate: this is what makes
	// delivery order equal publish order, with no gaps or interleavings.
	// Each batch carries the view at exactly its own epoch.
	if len(s.watchers) > 0 {
		b := Batch{Epoch: next.epoch, Del: del, Triples: triples, Snap: Snapshot{st: next}}
		for _, w := range s.watchers {
			w.push(b)
		}
	}
	spawn := s.threshold > 0 && len(ops) >= s.threshold && !s.gate.compacting
	if spawn {
		s.gate.compacting = true
		s.bg.Add(1)
	}
	s.gate.mu.Unlock()

	if spawn {
		go s.compactLoop()
	}
	return len(batch), nil
}

// compactLoop runs in the single background compactor goroutine: it folds
// until the overlay is back under threshold, then exits. On a durable
// store it checkpoints instead of plain-compacting, so WAL growth is
// bounded by the same threshold that bounds overlay growth. A checkpoint
// failure (full disk, say) degrades to a plain in-memory compaction —
// recovery-neutral, since the WAL is only ever truncated after a newer
// snapshot is durably published — and parks the error for Stats.
func (s *Store) compactLoop() {
	defer s.bg.Done()
	for {
		if s.wal != nil {
			if _, err := s.Checkpoint(); err != nil && !errors.Is(err, ErrClosed) {
				e := err
				s.checkpointErr.Store(&e)
				s.Compact()
			}
		} else {
			s.Compact()
		}
		s.gate.mu.Lock()
		again := s.threshold > 0 && len(s.cur.Load().ops) >= s.threshold && !s.gate.closed
		if !again {
			s.gate.compacting = false
		}
		s.gate.mu.Unlock()
		if !again {
			return
		}
	}
}

// Compact synchronously folds the current overlay into a fresh canonical
// CSR base. Content and epoch are unchanged — queries and epoch-keyed
// cached plans are unaffected — only the representation is flattened. The
// expensive fold runs outside the writer lock; concurrent writes landing
// meanwhile are replayed onto the new base at publish time (they stay in
// the overlay of the published state).
func (s *Store) Compact() {
	for {
		st := s.cur.Load()
		if len(st.ops) == 0 {
			return
		}
		folded := st.graphNow().Compacted()

		s.gate.mu.Lock()
		cur := s.cur.Load()
		if cur.base != st.base {
			// Another compaction published a new base between our load and
			// the lock; retry against it.
			s.gate.mu.Unlock()
			continue
		}
		// cur.ops extends st.ops (same base, append-only log): the suffix
		// holds exactly the writes that landed during the fold.
		rest := cur.ops[len(st.ops):]
		rest = rest[:len(rest):len(rest)]
		s.rebase(st.epoch, folded, cur.epoch, rest)
		s.compactions.Add(1)
		s.gate.mu.Unlock()
		return
	}
}

// WaitIdle blocks until any background compaction has finished. Tests and
// graceful shutdown use it; queries never need to.
func (s *Store) WaitIdle() { s.bg.Wait() }

// Checkpoint folds the current overlay into a canonical base, writes it
// as a snapshot at the current epoch (atomic tmp+rename), and truncates
// the WAL whose batches the snapshot now subsumes. Epoch and content are
// unchanged. Crash-safe at every step: before the rename, recovery uses
// old snapshot + full WAL; after the rename but before the truncate,
// recovery skips replayed records at or below the new snapshot's epoch.
// Returns the checkpointed epoch.
func (s *Store) Checkpoint() (uint64, error) {
	if s.wal == nil {
		return 0, errors.New("delta: store is not durable (no WAL configured)")
	}
	return s.save(s.snapPath, true)
}

// SaveTo folds the current state and writes it as a snapshot at the
// current epoch to an arbitrary path, leaving the WAL and the recovery
// chain untouched (an export, not a checkpoint). Works on non-durable
// stores too. Returns the epoch the snapshot captures.
func (s *Store) SaveTo(path string) (uint64, error) { return s.save(path, false) }

// save folds the current state into a canonical base and writes it to
// path as a snapshot at the current epoch. A checkpoint first refuses a
// store that lost durability, and after the write truncates the WAL and
// rebases the store on the saved base. Returns the saved epoch.
func (s *Store) save(path string, checkpoint bool) (uint64, error) {
	// Bulk fold outside the lock so writers aren't blocked for the O(|G|)
	// part; only the residual ops that landed meanwhile fold under the
	// gate.
	s.Compact()

	s.gate.mu.Lock()
	defer s.gate.mu.Unlock()
	if s.gate.closed {
		return 0, ErrClosed
	}
	if checkpoint && s.gate.walErr != nil {
		return 0, fmt.Errorf("delta: store lost durability: %w", s.gate.walErr)
	}
	cur := s.cur.Load()
	base := cur.base
	if len(cur.ops) > 0 {
		base = cur.graphNow().Compacted()
	}
	// No writer can intern while we hold the gate, and readers
	// materializing older epochs only re-intern names this state already
	// interned — so the symbol table is stable under SaveSnapshot.
	if err := snap.SaveSnapshot(path, base, cur.epoch); err != nil {
		return 0, err // WAL untouched: recovery still replays everything
	}
	if !checkpoint {
		return cur.epoch, nil
	}
	if err := s.wal.Reset(); err != nil {
		// The snapshot is already live; stale records below its epoch are
		// skipped on recovery, so correctness holds. Appends continue at
		// the file's current end.
		return 0, err
	}
	s.rebase(cur.epoch, base, cur.epoch, nil)
	s.compactions.Add(1)
	s.lastCheckpoint.Store(cur.epoch)
	s.checkpointErr.Store(nil)
	return cur.epoch, nil
}

// Close stops the store deterministically: new mutations fail with
// ErrClosed, the background compactor (if running) finishes its current
// fold and exits, and the WAL handle is closed (records are already
// fsync'd by Append, so nothing is lost). Idempotent. Reads against
// existing snapshots remain valid forever.
func (s *Store) Close() error {
	s.gate.mu.Lock()
	if s.gate.closed {
		s.gate.mu.Unlock()
		return nil
	}
	// Under the same lock apply/compactLoop use for spawn decisions, so
	// either a mutation commits (and any compactor it spawned is in the
	// WaitGroup) strictly before this, or it observes closed and bails.
	s.gate.closed = true
	s.watchers = nil // nothing commits after this; queued batches stay drainable
	s.gate.mu.Unlock()

	s.bg.Wait()
	if s.wal != nil {
		return s.wal.Close()
	}
	return nil
}

// LastCheckpointEpoch reports the epoch of the newest on-disk snapshot
// (the recovery floor: everything after it lives in the WAL). Zero for a
// non-durable store.
func (s *Store) LastCheckpointEpoch() uint64 {
	if s.wal == nil {
		return 0
	}
	return s.lastCheckpoint.Load()
}

// WALSize reports the committed write-ahead log length in bytes (header
// included); 0 for a non-durable store.
func (s *Store) WALSize() int64 {
	if s.wal == nil {
		return 0
	}
	s.gate.mu.Lock()
	defer s.gate.mu.Unlock()
	return s.wal.Size()
}

// SnapshotPath reports where checkpoints are written ("" when not
// durable).
func (s *Store) SnapshotPath() string { return s.snapPath }

// CheckpointErr reports the most recent background checkpoint failure,
// or nil. A successful checkpoint clears it.
func (s *Store) CheckpointErr() error {
	if p := s.checkpointErr.Load(); p != nil {
		return *p
	}
	return nil
}
