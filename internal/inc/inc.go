// Package inc is the incremental-reasoning subsystem: it sits on a
// delta.Store's committed-batch stream (delta.Watcher) and keeps
// registered datalog fixpoints — one per standing query's rewriting —
// maintained batch-by-batch instead of rebuilt from scratch at every
// epoch. It is the one piece of maintained state in the repository;
// every other reasoning path (the chase, the consistency check, one-shot
// baseline answers) runs cold over the epoch's snapshot.
//
// A Manager owns one watcher and an ABox mirror of the store's current
// contents. Chains register against the manager and are advanced lazily:
// every Answer call (and every explicit Advance) first drains the watcher
// under the manager's lock and applies each pending batch (translated
// once from triples to ABox assertions and datalog facts) to every
// registered chain, then reads the answers the maintained fixpoint
// holds and returns the epoch they are valid at. Lazy advancement means
// an idle manager costs nothing but the watcher's queued batches, and
// every answer is exact for the epoch it reports.
//
// Error isolation: a chain whose incremental apply fails (limit
// exceeded, malformed rule) is marked broken and silently rebuilt from
// the manager's mirror on its next use; other chains are unaffected.
//
// This package is on the internsafety hot-path list: its maps are keyed
// by assertion structs or integers, never raw strings, and it compares
// strings only against compile-time constants.
package inc

import (
	"errors"
	"fmt"
	"sync"

	"ogpa/internal/datalog"
	"ogpa/internal/delta"
	"ogpa/internal/dllite"
	"ogpa/internal/rdf"
)

// ErrClosed reports use of a closed manager.
var ErrClosed = errors.New("inc: manager closed")

// Stats counts the manager's maintenance work, for /stats surfaces.
type Stats struct {
	Epoch      uint64 `json:"epoch"`       // epoch all chains are advanced to
	Batches    uint64 `json:"batches"`     // committed batches applied
	Triples    uint64 `json:"triples"`     // triples translated into assertions
	Attributes uint64 `json:"attributes"`  // literal-object triples skipped
	Chains     int    `json:"chains"`      // registered chains
	Rebuilds   uint64 `json:"rebuilds"`    // chains rebuilt after an apply error
	DatalogIns uint64 `json:"datalog_ins"` // facts added across datalog applies
	DatalogDel uint64 `json:"datalog_del"` // facts overdeleted across datalog applies
}

// Manager maintains incremental reasoning state over one delta.Store.
// All methods are safe for concurrent use; chain evaluation is
// serialized under the manager's lock so every answer observes a fully
// applied epoch, never a half-advanced one.
type Manager struct {
	nameFn func(string) string

	// gate serializes advancement, registration and chain evaluation
	// (the delta.Store gate idiom); every field below is guarded by
	// gate.mu.
	gate struct {
		mu sync.Mutex
	}
	w      *delta.Watcher
	epoch  uint64
	closed bool

	// ABox mirror of the store at epoch. Struct-keyed sets (not string
	// keys) so membership stays internsafety-clean; the mirror is the
	// rebuild source for broken chains and the base for late-registered
	// ones.
	concepts map[dllite.ConceptAssertion]bool
	roles    map[dllite.RoleAssertion]bool

	chains []*DatalogChain
	stats  Stats
}

// NewManager registers a watcher on store and mirrors the registration
// snapshot. nameFn rewrites IRIs exactly as the store's own mutator does
// (identity when nil); pass the same function the store was configured
// with or translated assertions will not line up with its graph.
func NewManager(store *delta.Store, nameFn func(string) string) *Manager {
	if nameFn == nil {
		nameFn = func(s string) string { return s }
	}
	w, sn := store.Watch()
	m := &Manager{
		nameFn:   nameFn,
		w:        w,
		epoch:    sn.Epoch(),
		concepts: map[dllite.ConceptAssertion]bool{},
		roles:    map[dllite.RoleAssertion]bool{},
	}
	m.mirrorIn(dllite.ABoxFromGraph(sn.Graph()), nil)
	return m
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
	return m.epoch
}

// Stats snapshots the maintenance counters.
func (m *Manager) Stats() Stats {
	m.gate.mu.Lock()
	defer m.gate.mu.Unlock()
	st := m.stats
	st.Epoch = m.epoch
	st.Chains = len(m.chains)
	return st
}

// Advance drains all pending batches and applies them to every chain,
// returning the resulting epoch. Callers normally never need this —
// every Answer advances implicitly — but a subscription hub calls it
// once per wake-up before evaluating its standing queries.
func (m *Manager) Advance() (uint64, error) {
	m.gate.mu.Lock()
	defer m.gate.mu.Unlock()
	err := m.advanceLocked()
	return m.epoch, err
}

// advanceLocked drains the watcher and applies each batch in publish
// order: mirror first, then every chain. A chain error breaks only that
// chain (flagged for rebuild); translation and mirror maintenance are
// infallible.
func (m *Manager) advanceLocked() error {
	if m.closed {
		return ErrClosed
	}
	for _, b := range m.w.Poll() {
		ins, del := m.translate(b)
		m.mirrorIn(ins, del)
		insF, delF := aboxFacts(ins), aboxFacts(del)
		for _, c := range m.chains {
			c.apply(insF, delF)
		}
		m.epoch = b.Epoch
		m.stats.Batches++
	}
	return nil
}

// translate converts one committed batch into assertion sets under the
// same type-aware mapping rdf.ApplyTriple uses: rdf:type triples become
// concept assertions, resource-object triples role assertions, and
// literal-object triples are attributes, which no ABox-based reasoning
// pipeline consumes — they are counted and skipped.
func (m *Manager) translate(b delta.Batch) (ins, del *dllite.ABox) {
	a := &dllite.ABox{}
	for _, t := range b.Triples {
		m.stats.Triples++
		switch {
		case t.Predicate == rdf.TypePredicate && t.Kind == rdf.ObjectIRI:
			a.AddConcept(m.nameFn(t.Object), m.nameFn(t.Subject))
		case t.Kind == rdf.ObjectIRI:
			a.AddRole(m.nameFn(t.Predicate), m.nameFn(t.Subject), m.nameFn(t.Object))
		default:
			m.stats.Attributes++
		}
	}
	if b.Del {
		return &dllite.ABox{}, a
	}
	return a, &dllite.ABox{}
}

// mirrorIn applies an assertion delta to the mirror (deletions first,
// matching the store's remove-then-add batch semantics).
func (m *Manager) mirrorIn(ins, del *dllite.ABox) {
	if del != nil {
		for _, c := range del.Concepts {
			delete(m.concepts, c)
		}
		for _, r := range del.Roles {
			delete(m.roles, r)
		}
	}
	if ins != nil {
		for _, c := range ins.Concepts {
			m.concepts[c] = true
		}
		for _, r := range ins.Roles {
			m.roles[r] = true
		}
	}
}

// mirrorABox materializes the mirror as a plain ABox (set order is
// unspecified; all consumers treat assertion lists as sets).
func (m *Manager) mirrorABox() *dllite.ABox {
	a := &dllite.ABox{}
	for c := range m.concepts {
		a.AddConcept(c.Concept, c.Ind)
	}
	for r := range m.roles {
		a.AddRole(r.Role, r.Sub, r.Obj)
	}
	return a
}

// DatalogChain maintains the semi-naive fixpoint of one datalog program
// (the rewriting of one standing query) across epochs: insertions seed a
// continuation round, deletions run DRed. The program's residual UCQ is
// part of that fixpoint (datalog.Program.AnswerRules), so the answers
// are maintained with it and Answer only copies and sorts them.
type DatalogChain struct {
	m      *Manager
	rules  []datalog.Rule // the program's rules plus its answer rules
	lim    datalog.Limits
	state  *datalog.State
	broken bool // an apply failed; the next use rebuilds from the mirror
}

// RegisterDatalog builds a maintained fixpoint for prog over the store's
// current contents, after draining pending batches so the chain's base
// state is exactly the mirror at the manager's epoch. lim bounds both
// the initial evaluation and every per-batch apply.
func (m *Manager) RegisterDatalog(prog *datalog.Program, lim datalog.Limits) (*DatalogChain, error) {
	m.gate.mu.Lock()
	defer m.gate.mu.Unlock()
	rules, err := prog.AnswerRules()
	if err != nil {
		return nil, err
	}
	if err := m.advanceLocked(); err != nil {
		return nil, err
	}
	c := &DatalogChain{m: m, rules: rules, lim: lim}
	if err := c.rebuild(m.mirrorABox()); err != nil {
		return nil, err
	}
	m.chains = append(m.chains, c)
	return c, nil
}

// aboxFacts flattens an assertion delta into EDB facts.
func aboxFacts(a *dllite.ABox) []datalog.Fact {
	var fs []datalog.Fact
	for _, c := range a.Concepts {
		fs = append(fs, datalog.Fact{Pred: c.Concept, Args: datalog.Tuple{c.Ind}})
	}
	for _, r := range a.Roles {
		fs = append(fs, datalog.Fact{Pred: r.Role, Args: datalog.Tuple{r.Sub, r.Obj}})
	}
	return fs
}

// apply advances the fixpoint by one batch. A failure only marks the
// chain broken: the batch must keep applying to sibling chains, and the
// next use rebuilds this one from the mirror.
func (c *DatalogChain) apply(ins, del []datalog.Fact) {
	if c.broken {
		return // already pending rebuild; skip to keep applies cheap
	}
	st, err := c.state.Apply(ins, del, c.lim)
	c.m.stats.DatalogIns += uint64(st.Added)
	c.m.stats.DatalogDel += uint64(st.Overdeleted)
	c.broken = err != nil
}

func (c *DatalogChain) rebuild(base *dllite.ABox) error {
	state, err := datalog.NewState(c.rules, aboxFacts(base), c.lim)
	if err != nil {
		return err
	}
	c.state = state
	return nil
}

// Answer advances to the newest epoch and returns the residual UCQ's
// answers from the maintained fixpoint — distinct tuples, sorted, in a
// slice of the caller's own — and the epoch they are exact for.
func (c *DatalogChain) Answer() ([]datalog.Tuple, uint64, error) {
	m := c.m
	m.gate.mu.Lock()
	defer m.gate.mu.Unlock()
	if err := m.advanceLocked(); err != nil && !errors.Is(err, ErrClosed) {
		return nil, m.epoch, err
	}
	if c.broken {
		if err := c.rebuild(m.mirrorABox()); err != nil {
			return nil, m.epoch, fmt.Errorf("inc: chain rebuild at epoch %d: %w", m.epoch, err)
		}
		c.broken = false
		m.stats.Rebuilds++
	}
	return c.state.Answers(), m.epoch, nil
}
