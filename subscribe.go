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

// ErrSubscriptionClosed reports Next on a subscription after it (or
// its KB) was closed, and Subscribe on a closed KB.
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
	// MaxRows caps the standing query's answer-set size. It is checked
	// whenever the answers are read — at Subscribe, which fails, and at
	// each Next, which fails the subscription closed rather than
	// silently truncating a delta (a truncated delta could never be
	// composed correctly). An epoch that no Next reads fails nothing.
	// 0 means unbounded.
	MaxRows int
}

// Subscription is one standing query. Next reads its answers from the
// KB's one maintained datalog fixpoint, which every commit advances,
// and returns the change since the previous delivery. Deltas coalesce
// while the consumer lags — Next always returns one delta from the
// last delivered answer set straight to the newest epoch's, so a slow
// consumer costs memory proportional to the answer set, never to the
// number of missed epochs, and an unread subscription costs nothing per
// commit.
type Subscription struct {
	id      uint64
	query   string
	vars    []string
	hub     *subHub
	chain   *inc.DatalogChain
	maxRows int

	notify chan struct{} // 1-buffered edge trigger, signalled by every commit

	// st is the mutable delivery state, guarded by st.mu (everything
	// above is immutable after Subscribe).
	st struct {
		mu        sync.Mutex
		delivered [][]string // rows as of the last delivery
		err       error      // sticky evaluation/limit failure, delivered
		closed    bool
	}
}

// ID returns the subscription's hub-unique identifier.
func (s *Subscription) ID() uint64 { return s.id }

// Query returns the standing query's source text.
func (s *Subscription) Query() string { return s.query }

// Vars names the distinguished variables of every delta row.
func (s *Subscription) Vars() []string { return append([]string(nil), s.vars...) }

func (s *Subscription) signal() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Next returns the coalesced delta from the last delivered answer set
// to the newest epoch's, tagged with that epoch, blocking until a
// commit changes the answers when nothing has changed. With a done ctx
// it is a non-blocking read: the pending delta, or ctx's error when
// there is none. After Close (or KB close) it returns
// ErrSubscriptionClosed without reading. An evaluation or MaxRows
// failure is returned forever once found; finding it unregisters the
// subscription.
func (s *Subscription) Next(ctx context.Context) (AnswerDelta, error) {
	for {
		if d, ok, err := s.read(); ok || err != nil {
			return d, err
		}
		select {
		case <-ctx.Done():
			return AnswerDelta{}, ctx.Err()
		case <-s.notify:
		}
	}
}

// read delivers the change since the last delivery, if there is one.
// It holds st.mu throughout, so two concurrent Next calls never deliver
// one change twice.
func (s *Subscription) read() (d AnswerDelta, ok bool, err error) {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	switch {
	case s.st.err != nil:
		return d, false, s.st.err
	case s.st.closed:
		return d, false, ErrSubscriptionClosed
	}
	rows, epoch, err := s.answer()
	if err != nil {
		s.st.err = err
		s.hub.remove(s, true)
		return d, false, err
	}
	if d = diffRows(s.st.delivered, rows); d.Added == nil && d.Removed == nil {
		return d, false, nil
	}
	d.Epoch = epoch
	s.st.delivered = rows
	s.hub.delivered()
	return d, true, nil
}

// answer reads the standing query's answers from the maintained
// fixpoint and the epoch they are exact for, failing past MaxRows.
func (s *Subscription) answer() ([][]string, uint64, error) {
	tuples, epoch, err := s.chain.Answer()
	if err == nil && s.maxRows > 0 && len(tuples) > s.maxRows {
		err = fmt.Errorf("ogpa: subscription %d: answer set has %d rows, limit %d", s.id, len(tuples), s.maxRows)
	}
	return datalogRows(tuples), epoch, err
}

// Close unsubscribes; Next then reports ErrSubscriptionClosed. The last
// subscription on a query text takes its chain off the maintained
// fixpoint. Idempotent.
func (s *Subscription) Close() {
	s.markClosed() // first, so no Next reads the chain once it is retired
	s.hub.remove(s, false)
}

func (s *Subscription) markClosed() {
	s.st.mu.Lock()
	s.st.closed = true
	s.st.mu.Unlock()
	s.signal()
}

// diffRows merge-diffs two row sets sorted by core.SortRows into a delta,
// which holds no rows (nil Added and Removed) when the sets are equal.
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

// maxIncChains bounds the standing-query work one KB carries: each live
// query text adds its answer rules to the one maintained fixpoint,
// maintained on every commit, and to each rebuild of the union. Past
// the cap Subscribe refuses a new text until a live one's last
// subscription closes, so an adversarial subscriber cannot grow memory
// or per-commit work without bound.
const maxIncChains = 64

// subHub owns a KB's standing queries: an inc.Manager on the delta
// store's one watcher, keeping one datalog fixpoint maintained for every
// standing query; the live query texts, each with its chain (the
// query's answer predicate in that fixpoint); and the subscriptions.
// The first Subscribe of a live KB starts the manager; every commit
// advances it and wakes the subscriptions, which read their answers in
// Next. Evaluation failures are isolated per subscription (the failed
// one fails closed; siblings keep streaming). It is its own struct so
// KB itself holds no mutex.
//
// Chains are keyed by query text alone, NOT by epoch: the maintained
// fixpoint deliberately spans epochs (advancing it IS the maintenance),
// and every answer returns the epoch it is exact for.
type subHub struct {
	mu       sync.Mutex
	mgr      *inc.Manager // nil until the first Subscribe
	texts    map[string]*standing
	subs     map[uint64]*Subscription // live subscriptions
	closed   bool                     // the KB closed
	nextID   uint64
	deltas   uint64 // answer deltas delivered
	evalErrs uint64 // standing-query evaluation failures
}

// standing is one live query text: its chain and the number of live
// subscriptions that read it.
type standing struct {
	chain *inc.DatalogChain
	subs  int
}

// committed follows every successful commit of the KB's store. It
// advances the fixpoint here so that the watcher's queue, in which each
// batch pins a snapshot, does not grow while no one polls; the advance
// runs outside h.mu, so Subscribe and lookups never wait on it. Then it
// wakes every subscription, whose Next reads the answers.
func (h *subHub) committed() {
	h.mu.Lock()
	mgr := h.mgr
	h.mu.Unlock()
	if mgr == nil {
		return
	}
	//lint:ignore droppederr the manager is never closed, and a failed apply marks the fixpoint broken for the next Answer to rebuild and report
	_, _ = mgr.Advance()
	h.mu.Lock()
	for _, s := range h.subs {
		s.signal()
	}
	h.mu.Unlock()
}

// delivered books one delivered answer delta.
func (h *subHub) delivered() {
	h.mu.Lock()
	h.deltas++
	h.mu.Unlock()
}

// remove unregisters s, booking an evaluation failure if it failed.
// When s was the last live subscription on its query text, the text's
// chain is retired and its budget slot freed.
func (h *subHub) remove(s *Subscription, failed bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if failed {
		h.evalErrs++
	}
	if h.subs[s.id] != s {
		return
	}
	delete(h.subs, s.id)
	t := h.texts[s.query]
	if t.subs--; t.subs == 0 {
		delete(h.texts, s.query)
		t.chain.Retire()
	}
}

// close ends every subscription with the KB.
func (h *subHub) close() {
	h.mu.Lock()
	subs := h.subs
	h.subs, h.closed = nil, true
	h.mu.Unlock()
	for _, s := range subs {
		s.markClosed()
	}
}

// add registers a subscription to query, whose rewriting is prog: it
// starts the manager on the KB's first Subscribe, charges the budget
// for a new query text and registers its program on the maintained
// fixpoint. All of it runs under h.mu, so concurrent Subscribes start
// one manager and cannot overrun maxIncChains.
func (h *subHub) add(store *delta.Store, query string, head []string, prog *datalog.Program, opt SubscribeOptions) (*Subscription, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrSubscriptionClosed
	}
	if h.mgr == nil {
		h.mgr = inc.NewManager(store, rdf.LocalName)
		h.texts = map[string]*standing{}
		h.subs = map[uint64]*Subscription{}
	}
	t := h.texts[query]
	if t == nil {
		if len(h.texts) >= maxIncChains {
			return nil, fmt.Errorf("ogpa: standing-query budget exhausted (%d live query texts)", maxIncChains)
		}
		c, err := h.mgr.RegisterDatalog(prog, datalog.Limits{})
		if err != nil {
			return nil, err
		}
		t = &standing{chain: c}
		h.texts[query] = t
	}
	t.subs++
	h.nextID++
	s := &Subscription{
		id:      h.nextID,
		query:   query,
		vars:    append([]string(nil), head...),
		hub:     h,
		chain:   t.chain,
		maxRows: opt.MaxRows,
		notify:  make(chan struct{}, 1),
	}
	h.subs[s.id] = s
	return s, nil
}

// Subscribe registers a standing query on a live KB. It reads its
// answers from the KB's one maintained datalog fixpoint, which holds
// every live standing query text's rules and answers; subscriptions to
// the same text share its chain. The first Subscribe starts that
// maintenance; each live query text holds one of maxIncChains slots
// until its last subscription closes. Subscribe reads the answers once
// and fails past opt.MaxRows. The first Next delivers the full answer
// set as Added rows at the epoch it reads; every subsequent delta is
// the exact change since the previous delivery.
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
	if _, _, err := s.answer(); err != nil {
		kb.inc.remove(s, true)
		return nil, err
	}
	return s, nil
}

// SubscriptionByID resolves a live subscription (the serving tier's
// poll/unsubscribe handlers look subscriptions up per request).
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
	Chains        int    `json:"chains"`        // live query texts on the maintained fixpoint
	Rebuilds      uint64 `json:"rebuilds"`      // fixpoint rebuilds after an apply error
	Subscriptions int    `json:"subscriptions"` // live standing queries
	Deltas        uint64 `json:"deltas"`        // answer deltas delivered by Next
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
