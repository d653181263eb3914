package ogpa

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"ogpa/internal/cq"
	"ogpa/internal/datalog"
	"ogpa/internal/delta"
	"ogpa/internal/inc"
	"ogpa/internal/perfectref"
	"ogpa/internal/rdf"
)

// ErrSubscriptionClosed reports Next on a subscription whose pending
// delta has been drained after it (or its KB) was closed, and
// Subscribe on a KB whose subscriptions were closed with it.
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

// Subscription is one standing query: the hub re-reads its answers
// from the KB's one maintained datalog fixpoint on every committed
// epoch, and Next streams the answer deltas. Deltas coalesce while the
// consumer lags — Next always returns one delta from the last delivered
// answer set straight to the newest evaluated one, so a slow consumer
// costs memory proportional to the answer set, never to the number of
// missed epochs.
type Subscription struct {
	id      uint64
	query   string
	vars    []string
	hub     *subHub
	chain   *inc.DatalogChain
	maxRows int

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

// Vars names the distinguished variables of every delta row.
func (s *Subscription) Vars() []string { return append([]string(nil), s.vars...) }

// refresh re-reads the standing query's answers and records the
// newest rows. It reports whether the consumer now has something to
// collect, and whether this call failed the subscription; a failed or
// closed subscription is skipped. Called by the hub (one goroutine) and
// once at Subscribe time.
func (s *Subscription) refresh() (changed, failed bool) {
	s.st.mu.Lock()
	skip := s.st.closed || s.st.err != nil
	s.st.mu.Unlock()
	if skip {
		return false, false
	}
	tuples, epoch, err := s.chain.Answer()
	rows := datalogRows(tuples)
	if err == nil && s.maxRows > 0 && len(rows) > s.maxRows {
		err = fmt.Errorf("ogpa: subscription %d: answer set has %d rows, limit %d", s.id, len(rows), s.maxRows)
	}
	s.st.mu.Lock()
	switch {
	case s.st.closed || s.st.err != nil:
	case err != nil:
		s.st.err = err
		changed, failed = true, true
	case epoch >= s.st.epoch:
		changed = !rowsEqual(rows, s.st.delivered)
		s.st.current, s.st.epoch = rows, epoch
	}
	s.st.mu.Unlock()
	if changed {
		s.signal()
	}
	return changed, failed
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
// evaluation error is returned forever once delivered; its first
// delivery unregisters the subscription.
func (s *Subscription) Next(ctx context.Context) (AnswerDelta, error) {
	for {
		s.st.mu.Lock()
		if s.st.err != nil {
			err := s.st.err
			s.st.mu.Unlock()
			s.hub.remove(s.id)
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

// maxIncChains bounds the standing-query work one KB carries: each
// distinct query text adds its answer rules to the one maintained
// fixpoint, and a rebuild of the union, for the KB's lifetime. Past the
// cap Subscribe refuses a new text, so an adversarial subscriber cannot
// grow memory or per-batch work without bound.
const maxIncChains = 64

// subHub owns a KB's standing queries: an inc.Manager on the delta
// store's one watcher, keeping one datalog fixpoint maintained for every
// standing query; the chains (each a query's answer predicate in that
// fixpoint) keyed by query text; and the subscriptions. The first
// Subscribe of a live KB starts the manager and the hub's goroutine,
// which waits on the manager for committed batches and re-reads every
// subscription. Evaluation failures are isolated per subscription (the
// failed one fails closed; siblings keep streaming). It is its own
// struct so KB itself holds no mutex — the aboxMemo pattern.
//
// Chains are keyed by query text alone, NOT by epoch: the maintained
// fixpoint deliberately spans epochs (advancing it IS the maintenance),
// and every answer returns the epoch it is exact for.
type subHub struct {
	mu       sync.Mutex
	mgr      *inc.Manager // nil until the first Subscribe
	dl       map[string]*inc.DatalogChain
	subs     map[uint64]*Subscription // live, and failed until Next delivers the cause
	closed   bool                     // the store closed; the goroutine has exited
	nextID   uint64
	deltas   uint64 // answer deltas made collectable
	evalErrs uint64 // standing-query evaluation failures
}

// run re-reads every subscription each time the manager's epoch moves.
// It exits when the KB's store closes (Wait returns ErrClosed), failing
// every remaining subscription closed.
func (h *subHub) run(mgr *inc.Manager) {
	for {
		if _, err := mgr.Wait(context.Background()); err != nil {
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
	changed, failed := s.refresh()
	if !changed {
		return
	}
	h.mu.Lock()
	h.deltas++
	if failed {
		h.evalErrs++
	}
	h.mu.Unlock()
}

// snapshotSubs copies the subscription set so evaluation runs without
// holding the hub lock.
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
	h.mu.Unlock()
}

func (h *subHub) closeAll() {
	h.mu.Lock()
	subs := h.subs
	h.subs, h.closed = map[uint64]*Subscription{}, true
	h.mu.Unlock()
	for _, s := range subs {
		s.markClosed()
	}
}

// add registers a subscription to query, whose rewriting is prog: it
// starts the manager and the hub's goroutine on the KB's first
// Subscribe, charges the budget for a new query text and registers its
// program on the maintained fixpoint. All of it runs under h.mu, so
// concurrent Subscribes start one manager and cannot overrun
// maxIncChains.
func (h *subHub) add(store *delta.Store, query string, head []string, prog *datalog.Program, opt SubscribeOptions) (*Subscription, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrSubscriptionClosed
	}
	if h.mgr == nil {
		h.mgr = inc.NewManager(store, rdf.LocalName)
		h.dl = map[string]*inc.DatalogChain{}
		h.subs = map[uint64]*Subscription{}
		go h.run(h.mgr)
	}
	c := h.dl[query]
	if c == nil {
		if len(h.dl) >= maxIncChains {
			return nil, fmt.Errorf("ogpa: standing-query budget exhausted (%d query texts)", maxIncChains)
		}
		var err error
		if c, err = h.mgr.RegisterDatalog(prog, datalog.Limits{}); err != nil {
			return nil, err
		}
		h.dl[query] = c
	}
	h.nextID++
	s := &Subscription{
		id:      h.nextID,
		query:   query,
		vars:    append([]string(nil), head...),
		hub:     h,
		chain:   c,
		maxRows: opt.MaxRows,
		notify:  make(chan struct{}, 1),
	}
	h.subs[s.id] = s
	return s, nil
}

// Subscribe registers a standing query on a live KB. It reads its
// answers from the KB's one maintained datalog fixpoint, which holds
// every standing query text's rules and answers; subscriptions to the
// same text share its chain. The first Subscribe starts that
// maintenance; each distinct query text holds one of maxIncChains
// slots for the KB's lifetime. The first Next delivers the full current
// answer set as Added rows at the subscription epoch; every subsequent
// delta is the exact change since the previous delivery.
func (kb *KB) Subscribe(query string, opt SubscribeOptions) (*Subscription, error) {
	if kb.store == nil {
		return nil, fmt.Errorf("ogpa: subscriptions need live data (call EnableLiveData first)")
	}
	q, err := cq.Parse(query)
	if err != nil {
		return nil, err
	}
	prog, err := datalog.Rewrite(q, kb.tbox, perfectref.Limits{})
	if err != nil {
		return nil, err
	}
	s, err := kb.inc.add(kb.store, query, q.Head, prog, opt)
	if err != nil {
		return nil, err
	}

	// Seed: evaluate now so the first Next returns the full current
	// answer set without waiting for a write.
	kb.inc.refreshOne(s)
	s.st.mu.Lock()
	err = s.st.err
	s.st.mu.Unlock()
	if err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// SubscriptionByID resolves a live subscription, or a failed one whose
// cause Next has not delivered yet (the serving tier's poll/unsubscribe
// handlers look subscriptions up per request).
func (kb *KB) SubscriptionByID(id uint64) (*Subscription, bool) {
	kb.inc.mu.Lock()
	defer kb.inc.mu.Unlock()
	s, ok := kb.inc.subs[id]
	return s, ok
}

// IncrementalStats mirrors the maintenance subsystem's counters for the
// serving tier's /stats surface (zero value until the first Subscribe).
type IncrementalStats struct {
	Enabled       bool   `json:"enabled"`
	Epoch         uint64 `json:"epoch"`         // epoch the maintained fixpoint is advanced to
	Batches       uint64 `json:"batches"`       // committed batches applied
	Triples       uint64 `json:"triples"`       // triples translated into facts
	Attributes    uint64 `json:"attributes"`    // literal-object triples skipped
	Chains        int    `json:"chains"`        // datalog queries on the maintained fixpoint
	Rebuilds      uint64 `json:"rebuilds"`      // fixpoint rebuilds after an apply error
	Subscriptions int    `json:"subscriptions"` // standing queries, failed ones until their cause is delivered
	Deltas        uint64 `json:"deltas"`        // answer deltas published
	EvalErrors    uint64 `json:"eval_errors"`   // standing-query evaluation failures
}

// IncrementalStats reports the maintenance counters.
func (kb *KB) IncrementalStats() IncrementalStats {
	h := &kb.inc
	h.mu.Lock()
	mgr, subs, deltas, evalErrs := h.mgr, len(h.subs), h.deltas, h.evalErrs
	h.mu.Unlock()
	if mgr == nil {
		return IncrementalStats{}
	}
	st := mgr.Stats() // outside h.mu: it waits for the manager's gate
	return IncrementalStats{
		Enabled:       true,
		Epoch:         st.Epoch,
		Batches:       st.Batches,
		Triples:       st.Triples,
		Attributes:    st.Attributes,
		Chains:        st.Chains,
		Rebuilds:      st.Rebuilds,
		Subscriptions: subs,
		Deltas:        deltas,
		EvalErrors:    evalErrs,
	}
}
