package ogpa

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"ogpa/internal/cq"
	"ogpa/internal/daf"
	"ogpa/internal/datalog"
	"ogpa/internal/delta"
	"ogpa/internal/inc"
	"ogpa/internal/perfectref"
	"ogpa/internal/saturate"
)

// ErrSubscriptionClosed reports Next on a subscription whose pending
// delta has been drained after it (or its KB) was closed.
var ErrSubscriptionClosed = errors.New("ogpa: subscription closed")

// AnswerDelta is one epoch-tagged change to a standing query's answer
// set: the rows that appeared and the rows that disappeared since the
// previous delivery. Applying deltas in order reconstructs the exact
// answer set at each reported epoch.
type AnswerDelta struct {
	Epoch   uint64     `json:"epoch"`
	Added   [][]string `json:"added,omitempty"`
	Removed [][]string `json:"removed,omitempty"`
}

// SubscribeOptions bounds one standing query.
type SubscribeOptions struct {
	// MaxRows caps the standing query's answer-set size. When an epoch's
	// evaluation exceeds it the subscription fails closed (Next returns
	// the error) rather than silently truncating a delta — a truncated
	// delta could never be composed correctly. 0 means unbounded.
	MaxRows int
}

// Subscription is one standing query: the hub re-evaluates it on every
// committed epoch — a datalog subscription over its maintained
// fixpoint, a saturate subscription by a cold chase of one pinned
// snapshot — and Next streams the answer deltas. Deltas coalesce while
// the consumer lags — Next always returns one delta from the last
// delivered answer set straight to the newest evaluated one, so a slow
// consumer costs memory proportional to the answer set, never to the
// number of missed epochs.
type Subscription struct {
	id       uint64
	query    string
	baseline Baseline
	vars     []string
	hub      *subHub
	eval     func() ([][]string, uint64, error)
	maxRows  int

	notify chan struct{} // 1-buffered edge trigger

	// st is the mutable delivery state, guarded by st.mu (everything
	// above is immutable after Subscribe).
	st struct {
		mu        sync.Mutex
		current   [][]string // newest evaluated rows (sorted)
		epoch     uint64     // epoch current is exact for
		delivered [][]string // rows as of the last Next delivery
		err       error      // sticky evaluation/limit failure
		closed    bool
	}
}

// ID returns the subscription's hub-unique identifier.
func (s *Subscription) ID() uint64 { return s.id }

// Query returns the standing query's source text.
func (s *Subscription) Query() string { return s.query }

// Baseline returns the pipeline the standing query runs on.
func (s *Subscription) Baseline() Baseline { return s.baseline }

// Vars names the distinguished variables of every delta row.
func (s *Subscription) Vars() []string { return append([]string(nil), s.vars...) }

// refresh re-evaluates the standing query and records the newest rows;
// it reports whether the consumer now has something to collect. Called
// by the hub (one goroutine) and once at Subscribe time.
func (s *Subscription) refresh() bool {
	rows, epoch, err := s.eval()
	if err == nil && s.maxRows > 0 && len(rows) > s.maxRows {
		err = fmt.Errorf("ogpa: subscription %d: answer set has %d rows, limit %d", s.id, len(rows), s.maxRows)
	}
	s.st.mu.Lock()
	if s.st.closed {
		s.st.mu.Unlock()
		return false
	}
	changed := false
	if err != nil {
		if s.st.err == nil {
			s.st.err = err
			changed = true
		}
	} else if epoch >= s.st.epoch {
		changed = !rowsEqual(rows, s.st.delivered)
		s.st.current, s.st.epoch = rows, epoch
	}
	s.st.mu.Unlock()
	if changed {
		s.signal()
	}
	return changed
}

func (s *Subscription) signal() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Next blocks until the standing query's answer set has changed since
// the last delivery and returns the coalesced delta, tagged with the
// epoch it is exact for. After Close (or KB close) it drains the final
// pending delta, then returns ErrSubscriptionClosed. A sticky
// evaluation error is returned forever once delivered.
func (s *Subscription) Next(ctx context.Context) (AnswerDelta, error) {
	for {
		s.st.mu.Lock()
		if s.st.err != nil {
			err := s.st.err
			s.st.mu.Unlock()
			s.hub.forgetFailed(s.id)
			return AnswerDelta{}, err
		}
		if !rowsEqual(s.st.current, s.st.delivered) {
			d := diffRows(s.st.delivered, s.st.current)
			d.Epoch = s.st.epoch
			s.st.delivered = s.st.current
			s.st.mu.Unlock()
			return d, nil
		}
		if s.st.closed {
			s.st.mu.Unlock()
			return AnswerDelta{}, ErrSubscriptionClosed
		}
		s.st.mu.Unlock()
		select {
		case <-ctx.Done():
			return AnswerDelta{}, ctx.Err()
		case <-s.notify:
		}
	}
}

// Close unsubscribes. Pending deltas stay drainable; Next then reports
// ErrSubscriptionClosed. Idempotent.
func (s *Subscription) Close() {
	s.hub.remove(s.id)
	s.markClosed()
}

func (s *Subscription) markClosed() {
	s.st.mu.Lock()
	s.st.closed = true
	s.st.mu.Unlock()
	s.signal()
}

// rowsEqual reports whether two row sets sorted by core.SortRows hold
// the same rows.
func rowsEqual(a, b [][]string) bool {
	return slices.EqualFunc(a, b, slices.Equal)
}

// diffRows merge-diffs two row sets sorted by core.SortRows into a delta.
func diffRows(old, cur [][]string) AnswerDelta {
	var d AnswerDelta
	i, j := 0, 0
	for i < len(old) && j < len(cur) {
		switch c := slices.Compare(old[i], cur[j]); {
		case c < 0:
			d.Removed = append(d.Removed, old[i])
			i++
		case c > 0:
			d.Added = append(d.Added, cur[j])
			j++
		default:
			i++
			j++
		}
	}
	d.Removed = append(d.Removed, old[i:]...)
	d.Added = append(d.Added, cur[j:]...)
	return d
}

// subHub owns a KB's standing queries: one goroutine watches the delta
// store, advances the maintenance manager and re-evaluates every
// subscription per committed batch group. Evaluation failures are
// isolated per subscription (the failed one fails closed; siblings keep
// streaming).
type subHub struct {
	mu       sync.Mutex
	subs     map[uint64]*Subscription // live: re-evaluated per batch
	failed   map[uint64]*Subscription // failed closed, cause not yet delivered
	nextID   uint64
	deltas   uint64 // answer deltas made collectable
	evalErrs uint64 // standing-query evaluation failures
}

// newSubHub starts the hub's watch loop. The loop exits when the KB's
// store closes (Watcher.Wait returns ErrClosed) or mgr is closed,
// failing every remaining subscription closed.
func newSubHub(kb *KB, mgr *inc.Manager) *subHub {
	h := &subHub{subs: map[uint64]*Subscription{}, failed: map[uint64]*Subscription{}}
	w, _ := kb.store.Watch()
	go h.run(w, mgr)
	return h
}

func (h *subHub) run(w *delta.Watcher, mgr *inc.Manager) {
	ctx := context.Background()
	for {
		if _, err := w.Wait(ctx); err != nil {
			h.closeAll()
			return
		}
		// Advance even when no datalog chain will answer this round
		// (only saturate subscriptions, or none): the manager's pinned
		// snapshot and queue then follow every batch instead of piling up.
		if _, err := mgr.Advance(); err != nil {
			h.closeAll()
			return
		}
		for _, s := range h.snapshotSubs() {
			h.refreshOne(s)
		}
	}
}

// refreshOne re-evaluates one subscription and books the counters.
func (h *subHub) refreshOne(s *Subscription) {
	changed := s.refresh()
	h.mu.Lock()
	if changed {
		h.deltas++
	}
	s.st.mu.Lock()
	failed := s.st.err != nil
	s.st.mu.Unlock()
	if failed {
		h.evalErrs++
		delete(h.subs, s.id)
		h.failed[s.id] = s // stays resolvable until Next hands out the cause
	}
	h.mu.Unlock()
}

// snapshotSubs copies the live subscription set so evaluation runs
// without holding the hub lock.
func (h *subHub) snapshotSubs() []*Subscription {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*Subscription, 0, len(h.subs))
	for _, s := range h.subs {
		out = append(out, s)
	}
	return out
}

func (h *subHub) remove(id uint64) {
	h.mu.Lock()
	delete(h.subs, id)
	delete(h.failed, id)
	h.mu.Unlock()
}

// forgetFailed drops a failed subscription from lookup once its cause
// has been delivered.
func (h *subHub) forgetFailed(id uint64) {
	h.mu.Lock()
	delete(h.failed, id)
	h.mu.Unlock()
}

// get resolves a subscription by id: a live one, or a failed one whose
// cause no Next has delivered yet (so a poll racing the hub's eviction
// still reports why the subscription failed).
func (h *subHub) get(id uint64) (*Subscription, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.subs[id]
	if !ok {
		s, ok = h.failed[id]
	}
	return s, ok
}

func (h *subHub) closeAll() {
	h.mu.Lock()
	subs := make([]*Subscription, 0, len(h.subs))
	for _, s := range h.subs {
		subs = append(subs, s)
	}
	h.subs = map[uint64]*Subscription{}
	h.failed = map[uint64]*Subscription{}
	h.mu.Unlock()
	for _, s := range subs {
		s.markClosed()
	}
}

// saturateCount reports how many live subscriptions run on the
// saturation baseline; each holds one slot of the maxIncChains budget.
func (h *subHub) saturateCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, s := range h.subs {
		if s.baseline == BaselineSaturate {
			n++
		}
	}
	return n
}

// counters reports (live subscriptions, deltas published, eval errors).
func (h *subHub) counters() (int, uint64, uint64) {
	if h == nil {
		return 0, 0, 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs), h.deltas, h.evalErrs
}

// Subscribe registers a standing query on BaselineDatalog or
// BaselineSaturate (the OGP pipeline has no standing form). A datalog
// subscription reads its answers from the manager's one maintained
// fixpoint, which holds every datalog query text's rules and answers;
// subscriptions to the same text share its chain. A saturate
// subscription re-chases one pinned snapshot per committed batch
// group, so its answers and epoch always come from the same version.
// Each datalog query text and each live saturate subscription holds one
// of maxIncChains slots. The first Next
// delivers the full current answer set as Added rows at the
// subscription epoch; every subsequent delta is the exact change since
// the previous delivery. Requires EnableIncremental.
func (kb *KB) Subscribe(b Baseline, query string, opt SubscribeOptions) (*Subscription, error) {
	q, err := cq.Parse(query)
	if err != nil {
		return nil, err
	}
	var prog *datalog.Program
	switch b {
	case BaselineDatalog:
		if prog, err = datalog.Rewrite(q, kb.tbox, perfectref.Limits{}); err != nil {
			return nil, err
		}
	case BaselineSaturate:
	default:
		return nil, fmt.Errorf("ogpa: baseline %q has no standing form for subscriptions", b)
	}

	s, err := func() (*Subscription, error) {
		kb.inc.mu.Lock()
		defer kb.inc.mu.Unlock()
		return kb.newSubscriptionLocked(b, query, q, prog, opt)
	}()
	if err != nil {
		return nil, err
	}

	// Seed: evaluate now so the first Next returns the full current
	// answer set without waiting for a write.
	s.hub.refreshOne(s)
	s.st.mu.Lock()
	err = s.st.err
	s.st.mu.Unlock()
	if err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// newSubscriptionLocked charges the standing-query budget, resolves the
// evaluator and registers the subscription with the hub. Called under
// kb.inc.mu, so concurrent Subscribes cannot overrun maxIncChains.
func (kb *KB) newSubscriptionLocked(b Baseline, query string, q *cq.Query, prog *datalog.Program, opt SubscribeOptions) (*Subscription, error) {
	hub := kb.inc.hub
	if hub == nil {
		return nil, fmt.Errorf("ogpa: subscriptions need incremental maintenance (call EnableIncremental first)")
	}
	c := kb.inc.dl[query]
	if (b == BaselineSaturate || c == nil) && len(kb.inc.dl)+hub.saturateCount() >= maxIncChains {
		return nil, fmt.Errorf("ogpa: standing-query budget exhausted (%d slots)", maxIncChains)
	}
	var eval func() ([][]string, uint64, error)
	if b == BaselineDatalog {
		if c == nil {
			var err error
			if c, err = kb.inc.mgr.RegisterDatalog(prog, datalog.Limits{}); err != nil {
				return nil, err
			}
			kb.inc.dl[query] = c
		}
		eval = func() ([][]string, uint64, error) {
			tuples, epoch, err := c.Answer()
			if err != nil {
				return nil, epoch, err
			}
			return datalogRows(tuples), epoch, nil
		}
	} else {
		eval = func() ([][]string, uint64, error) {
			sn := kb.store.Snapshot() // one version for both the ABox and the epoch
			rows, err := kb.saturateRows(kb.live.get(sn), q, saturate.Limits{}, daf.Options{})
			return rows, sn.Epoch(), err
		}
	}

	hub.mu.Lock()
	defer hub.mu.Unlock()
	hub.nextID++
	s := &Subscription{
		id:       hub.nextID,
		query:    query,
		baseline: b,
		vars:     append([]string(nil), q.Head...),
		hub:      hub,
		eval:     eval,
		maxRows:  opt.MaxRows,
		notify:   make(chan struct{}, 1),
	}
	hub.subs[s.id] = s
	return s, nil
}

// SubscriptionByID resolves a live subscription, or a failed one whose
// cause Next has not delivered yet (the serving tier's poll/unsubscribe
// handlers look subscriptions up per request).
func (kb *KB) SubscriptionByID(id uint64) (*Subscription, bool) {
	kb.inc.mu.Lock()
	hub := kb.inc.hub
	kb.inc.mu.Unlock()
	if hub == nil {
		return nil, false
	}
	return hub.get(id)
}
