package delta

import (
	"sync"

	"ogpa/internal/rdf"
)

// Batch is one committed mutation batch as observed by a Watcher: the
// epoch it published, its parsed triples, and the store's immutable view
// at exactly that epoch. Snap lets a consumer evaluate against the
// batch's own version even if later writes have already landed — the
// one-pinned-view-per-publish rule for incremental maintenance.
type Batch struct {
	Epoch   uint64
	Del     bool // a deletion batch (all triples removed) vs insertion
	Triples []rdf.Triple
	Snap    Snapshot
}

// Watcher observes committed batches of one Store. Delivery happens
// under the store's writer gate, so a watcher sees every batch exactly
// once, in publish order, with consecutive epochs and no gaps. Batches
// queue until drained; a watcher that stops draining grows its queue,
// so consumers must Poll promptly or Close.
type Watcher struct {
	store *Store

	mu    sync.Mutex
	queue []Batch
}

// Watch registers a new watcher and returns it together with the
// snapshot at registration: the first delivered batch is exactly epoch
// snap.Epoch()+1, so a consumer can initialize from snap and apply
// batches with no gap and no overlap. A closed store commits nothing,
// so its watcher is never registered and never receives a batch.
func (s *Store) Watch() (*Watcher, Snapshot) {
	w := &Watcher{store: s}
	s.gate.mu.Lock()
	sn := Snapshot{st: s.cur.Load()}
	if !s.gate.closed {
		s.watchers = append(s.watchers, w)
	}
	s.gate.mu.Unlock()
	return w, sn
}

// push appends a batch; called under the store's writer gate, so it
// never reaches a watcher after Close has unregistered it.
func (w *Watcher) push(b Batch) {
	w.mu.Lock()
	w.queue = append(w.queue, b)
	w.mu.Unlock()
}

// Poll drains and returns all pending batches without blocking. Batches
// delivered before the store closed stay drainable after it.
func (w *Watcher) Poll() []Batch {
	w.mu.Lock()
	bs := w.queue
	w.queue = nil
	w.mu.Unlock()
	return bs
}

// Close unregisters the watcher and drops any pending batches.
func (w *Watcher) Close() {
	s := w.store
	s.gate.mu.Lock()
	for i, x := range s.watchers {
		if x == w {
			s.watchers = append(s.watchers[:i], s.watchers[i+1:]...)
			break
		}
	}
	s.gate.mu.Unlock()
	w.mu.Lock()
	w.queue = nil
	w.mu.Unlock()
}
