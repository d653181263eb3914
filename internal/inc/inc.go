// Package inc is the incremental-reasoning subsystem: it sits on a
// delta.Store's committed-batch stream (delta.Watcher) and keeps one
// datalog fixpoint — over the union of every standing query's
// rewriting — maintained batch by batch instead of rebuilt from scratch
// at every epoch. It is the one piece of maintained state in the
// repository; every other reasoning path (the chase, the consistency
// check, one-shot baseline answers) runs cold over the epoch's snapshot.
//
// A Manager owns one watcher, the store's snapshot at the epoch it has
// applied (the Watch snapshot, then each applied batch's own view), and
// one datalog.State over the union of the registered programs' rules.
// The programs share the TBox's hierarchy-closure rules, which the
// State keeps once; each adds its residual UCQ as answer rules under an
// answer predicate of its own. A DatalogChain is a handle: the manager
// plus that predicate. Every Answer call (and every Advance) first
// drains the watcher under the manager's lock and applies each pending
// batch, translated once from triples to datalog facts, to the
// fixpoint; Answer then copies the chain's answer relation and returns
// the epoch it is valid at, so every answer is exact for the epoch it
// reports. A writer that calls Advance after each commit keeps the
// watcher's queue short while no one reads.
//
// Registration rebuilds the fixpoint over the union from the pinned
// snapshot; one that fails (limit exceeded, malformed rule) leaves the
// existing fixpoint untouched. Retire drops a chain: its answer rules
// stop firing and its answer relation is freed, and the next rebuild
// leaves out the rest of its program. A batch whose apply fails marks
// the fixpoint broken, and the next Answer rebuilds it from the pinned
// snapshot.
//
// This package is on the internsafety hot-path list: it keeps no map
// keyed by strings, and it compares strings only against compile-time
// constants.
package inc

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"ogpa/internal/datalog"
	"ogpa/internal/delta"
	"ogpa/internal/rdf"
)

// ErrClosed reports use of a closed manager.
var ErrClosed = errors.New("inc: manager closed")

// errRetired reports Answer on a retired chain.
var errRetired = errors.New("inc: chain retired")

// Stats counts the manager's maintenance work, for /stats surfaces.
type Stats struct {
	Epoch      uint64 `json:"epoch"`       // epoch the fixpoint is advanced to
	Batches    uint64 `json:"batches"`     // committed batches applied
	Triples    uint64 `json:"triples"`     // triples translated into facts
	Attributes uint64 `json:"attributes"`  // literal-object triples skipped
	Chains     int    `json:"chains"`      // live chains: registered, not retired
	Rebuilds   uint64 `json:"rebuilds"`    // fixpoint rebuilds after an apply error
	DatalogIns uint64 `json:"datalog_ins"` // facts added across datalog applies
	DatalogDel uint64 `json:"datalog_del"` // facts overdeleted across datalog applies
}

// Manager maintains incremental reasoning state over one delta.Store.
// All methods are safe for concurrent use; chain evaluation is
// serialized under the manager's lock so every answer observes a fully
// applied epoch, never a half-advanced one.
type Manager struct {
	nameFn func(string) string
	w      *delta.Watcher

	// gate serializes advancement, registration and chain evaluation
	// (the delta.Store gate idiom); every field below is guarded by
	// gate.mu.
	gate struct {
		mu sync.Mutex
	}
	snap   delta.Snapshot // the store at the epoch the fixpoint holds
	closed bool

	chains []*DatalogChain // live chains, in registration order
	preds  int             // answer predicates named so far; a number is never reused
	state  *datalog.State  // fixpoint of the live chains' rules over snap; nil while none is live
	broken bool            // an apply failed; the next Answer rebuilds from snap
	stats  Stats
}

// NewManager registers a watcher on store and pins the registration
// snapshot. nameFn rewrites IRIs exactly as the store's own mutator does
// (identity when nil); pass the same function the store was configured
// with or translated facts will not line up with its graph.
func NewManager(store *delta.Store, nameFn func(string) string) *Manager {
	if nameFn == nil {
		nameFn = func(s string) string { return s }
	}
	w, sn := store.Watch()
	return &Manager{nameFn: nameFn, w: w, snap: sn}
}

// Close unregisters the watcher. Registered chains keep answering at
// their last advanced epoch until callers drop them; advancing past
// close returns ErrClosed.
func (m *Manager) Close() {
	m.gate.mu.Lock()
	defer m.gate.mu.Unlock()
	if !m.closed {
		m.closed = true
		m.w.Close()
	}
}

// Epoch reports the epoch every registered chain is advanced to.
func (m *Manager) Epoch() uint64 {
	m.gate.mu.Lock()
	defer m.gate.mu.Unlock()
	return m.snap.Epoch()
}

// Stats snapshots the maintenance counters.
func (m *Manager) Stats() Stats {
	m.gate.mu.Lock()
	defer m.gate.mu.Unlock()
	st := m.stats
	st.Epoch = m.snap.Epoch()
	st.Chains = len(m.chains)
	return st
}

// Advance drains all pending batches and applies them to the fixpoint,
// returning the resulting epoch. Every Answer advances implicitly; a
// writer calls Advance after its commit so that batches do not queue,
// each pinning its snapshot, while no one reads.
func (m *Manager) Advance() (uint64, error) {
	m.gate.mu.Lock()
	defer m.gate.mu.Unlock()
	err := m.advanceLocked()
	return m.snap.Epoch(), err
}

// advanceLocked drains the watcher and applies each batch in publish
// order, pinning its view. Batches apply with zero limits; an apply
// error only marks the fixpoint broken, and later batches skip it until
// a rebuild.
func (m *Manager) advanceLocked() error {
	if m.closed {
		return ErrClosed
	}
	for _, b := range m.w.Poll() {
		ins, del := m.translate(b)
		if m.state != nil && !m.broken {
			st, err := m.state.Apply(ins, del, datalog.Limits{})
			m.stats.DatalogIns += uint64(st.Added)
			m.stats.DatalogDel += uint64(st.Overdeleted)
			m.broken = err != nil
		}
		m.snap = b.Snap
		m.stats.Batches++
	}
	return nil
}

// translate converts one committed batch into datalog facts under the
// same type-aware mapping rdf.ApplyTriple uses: rdf:type triples become
// concept facts, resource-object triples role facts, and literal-object
// triples are attributes, which no ABox-based reasoning pipeline
// consumes — they are counted and skipped. Predicates are named through
// datalog.EDB, as the rewriting's rule bodies read them.
func (m *Manager) translate(b delta.Batch) (ins, del []datalog.Fact) {
	fs := make([]datalog.Fact, 0, len(b.Triples))
	for _, t := range b.Triples {
		m.stats.Triples++
		switch {
		case t.Predicate == rdf.TypePredicate && t.Kind == rdf.ObjectIRI:
			fs = append(fs, datalog.Fact{Pred: datalog.EDB(m.nameFn(t.Object)), Args: datalog.Tuple{m.nameFn(t.Subject)}})
		case t.Kind == rdf.ObjectIRI:
			fs = append(fs, datalog.Fact{Pred: datalog.EDB(m.nameFn(t.Predicate)), Args: datalog.Tuple{m.nameFn(t.Subject), m.nameFn(t.Object)}})
		default:
			m.stats.Attributes++
		}
	}
	if b.Del {
		return nil, fs
	}
	return fs, nil
}

// build materializes the live chains' rules, and extra, over the
// pinned snapshot.
func (m *Manager) build(extra []datalog.Rule, lim datalog.Limits) (*datalog.State, error) {
	var rules []datalog.Rule
	for _, c := range m.chains {
		rules = append(rules, c.rules...)
	}
	rules = append(rules, extra...)
	return datalog.NewState(rules, datalog.GraphFacts(m.snap.Graph()), lim)
}

// DatalogChain is one standing query's view of the manager's fixpoint:
// the answer predicate its residual UCQ derives into
// (datalog.Program.AnswerRules). Semi-naive insertion and DRed deletion
// maintain the answers with every other fact, so Answer only copies and
// sorts them.
type DatalogChain struct {
	m     *Manager
	pred  string
	rules []datalog.Rule // the program's rules and its answer rules
}

// RegisterDatalog adds prog to the maintained fixpoint, after draining
// pending batches so the fixpoint is rebuilt over the union of every
// registered program exactly at the manager's epoch. lim bounds that
// rebuild; past it the registration fails and the existing fixpoint
// stays as it was.
func (m *Manager) RegisterDatalog(prog *datalog.Program, lim datalog.Limits) (*DatalogChain, error) {
	m.gate.mu.Lock()
	defer m.gate.mu.Unlock()
	pred := datalog.AnswerPrefix + strconv.Itoa(m.preds)
	rules, err := prog.AnswerRules(pred)
	if err != nil {
		return nil, err
	}
	if err := m.advanceLocked(); err != nil {
		return nil, err
	}
	state, err := m.build(rules, lim)
	if err != nil {
		return nil, err
	}
	c := &DatalogChain{m: m, pred: pred, rules: rules}
	m.chains, m.state, m.broken = append(m.chains, c), state, false
	m.preds++
	return c, nil
}

// Retire drops the chain from the maintained fixpoint: its answer rules
// stop firing and its answer relation is freed. No rule reads an answer
// predicate, so nothing else is recomputed; the rest of its program
// leaves the fixpoint at the next rebuild, and the whole fixpoint goes
// with the last live chain. Answer on a retired chain fails.
// Idempotent.
func (c *DatalogChain) Retire() {
	m := c.m
	m.gate.mu.Lock()
	defer m.gate.mu.Unlock()
	i := slices.Index(m.chains, c)
	switch {
	case i < 0:
	case len(m.chains) == 1:
		m.chains, m.state = nil, nil
	default:
		m.chains = slices.Delete(m.chains, i, i+1)
		m.state.Retire(c.pred)
	}
}

// Answer advances to the newest epoch and returns the residual UCQ's
// answers from the maintained fixpoint — distinct tuples, sorted, in a
// slice of the caller's own — and the epoch they are exact for. Past
// Close it answers at the last epoch applied.
func (c *DatalogChain) Answer() ([]datalog.Tuple, uint64, error) {
	m := c.m
	m.gate.mu.Lock()
	defer m.gate.mu.Unlock()
	if err := m.advanceLocked(); err != nil && !errors.Is(err, ErrClosed) {
		return nil, m.snap.Epoch(), err
	}
	if !slices.Contains(m.chains, c) {
		return nil, m.snap.Epoch(), errRetired
	}
	if m.broken {
		state, err := m.build(nil, datalog.Limits{})
		if err != nil {
			return nil, m.snap.Epoch(), fmt.Errorf("inc: fixpoint rebuild at epoch %d: %w", m.snap.Epoch(), err)
		}
		m.state, m.broken = state, false
		m.stats.Rebuilds++
	}
	return m.state.Answers(c.pred), m.snap.Epoch(), nil
}
