package delta

import (
	"context"
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
	ready chan struct{} // 1-buffered edge trigger: queue went non-empty

	mu     sync.Mutex
	queue  []Batch
	closed bool
}

// Watch registers a new watcher and returns it together with the
// snapshot at registration: the first delivered batch is exactly epoch
// snap.Epoch()+1, so a consumer can initialize from snap and apply
// batches with no gap and no overlap. On a closed store the watcher is
// already closed (Await returns ErrClosed).
func (s *Store) Watch() (*Watcher, Snapshot) {
	w := &Watcher{store: s, ready: make(chan struct{}, 1)}
	s.gate.mu.Lock()
	sn := Snapshot{st: s.cur.Load()}
	if s.gate.closed {
		w.closed = true
	} else {
		s.watchers = append(s.watchers, w)
	}
	s.gate.mu.Unlock()
	return w, sn
}

// push appends a batch; called under the store's writer gate.
func (w *Watcher) push(b Batch) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.queue = append(w.queue, b)
	w.mu.Unlock()
	select {
	case w.ready <- struct{}{}:
	default:
	}
}

// markClosed flips the watcher to closed and wakes any waiter. Pending
// batches stay drainable.
func (w *Watcher) markClosed() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	select {
	case w.ready <- struct{}{}:
	default:
	}
}

// Poll drains and returns all pending batches without blocking.
func (w *Watcher) Poll() []Batch {
	w.mu.Lock()
	bs := w.queue
	w.queue = nil
	w.mu.Unlock()
	return bs
}

// Await blocks until a batch is pending or a push (or a close) has
// happened since the previous Await returned, and leaves every batch
// queued: the consumer drains with Poll, under whatever lock orders its
// applies. A batch another Poll drained first still ends the wait, so
// the caller re-checks what it waits for after every return. Await
// returns ErrClosed once the watcher (or its store) is closed and its
// queue is empty.
func (w *Watcher) Await(ctx context.Context) error {
	w.mu.Lock()
	pending, closed := len(w.queue) > 0, w.closed
	w.mu.Unlock()
	switch {
	case pending:
		return nil
	case closed:
		return ErrClosed
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-w.ready:
		return nil
	}
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
	w.closed = true
	w.queue = nil
	w.mu.Unlock()
	select {
	case w.ready <- struct{}{}:
	default:
	}
}
