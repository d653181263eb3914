package ogpa

import (
	"fmt"
	"sync"

	"ogpa/internal/inc"
	"ogpa/internal/rdf"
)

// maxIncChains bounds the standing-query work one KB carries: datalog
// query texts registered on the manager's one maintained fixpoint (each
// adds its answer rules, and a rebuild of the union, to it) plus live
// saturate subscriptions (each re-chases on the hub goroutine for every
// committed batch). Past the cap Subscribe errors, so an adversarial
// subscriber cannot grow memory or per-batch work without bound.
const maxIncChains = 64

// incMemo holds the KB's standing-query state: an inc.Manager riding the
// delta store's watcher stream with one maintained fixpoint for every
// datalog standing query, the chains (each a query's answer predicate in
// that fixpoint) keyed by query text, and the subscription hub. It is
// its own struct so KB itself holds no mutex — the aboxMemo pattern.
//
// Chains are keyed by query text alone, NOT by epoch: the maintained
// fixpoint deliberately spans epochs (advancing it IS the maintenance),
// and every answer returns the epoch it is exact for.
type incMemo struct {
	mu  sync.Mutex
	mgr *inc.Manager
	dl  map[string]*inc.DatalogChain
	hub *subHub
}

// EnableIncremental lets a live KB serve standing queries: Subscribe
// starts accepting them, and datalog subscriptions ride fixpoints that
// are maintained batch-by-batch across InsertTriples/DeleteTriples
// instead of re-derived per epoch. One-shot calls (AnswerBaseline,
// CheckConsistency) are unaffected and keep running cold over the
// current snapshot. Must be called after EnableLiveData; calling it
// twice is an error.
func (kb *KB) EnableIncremental() error {
	if kb.store == nil {
		return fmt.Errorf("ogpa: incremental maintenance needs live data (call EnableLiveData first)")
	}
	kb.inc.mu.Lock()
	defer kb.inc.mu.Unlock()
	if kb.inc.mgr != nil {
		return fmt.Errorf("ogpa: incremental maintenance already enabled")
	}
	kb.inc.mgr = inc.NewManager(kb.store, rdf.LocalName)
	kb.inc.dl = map[string]*inc.DatalogChain{}
	kb.inc.hub = newSubHub(kb, kb.inc.mgr)
	return nil
}

// Incremental reports whether standing queries are enabled.
func (kb *KB) Incremental() bool {
	kb.inc.mu.Lock()
	defer kb.inc.mu.Unlock()
	return kb.inc.mgr != nil
}

// IncrementalStats mirrors the maintenance subsystem's counters for the
// serving tier's /stats surface (zero value when incremental
// maintenance is disabled).
type IncrementalStats struct {
	Enabled       bool   `json:"enabled"`
	Epoch         uint64 `json:"epoch"`         // epoch the maintained fixpoint is advanced to
	Batches       uint64 `json:"batches"`       // committed batches applied
	Triples       uint64 `json:"triples"`       // triples translated into facts
	Attributes    uint64 `json:"attributes"`    // literal-object triples skipped
	Chains        int    `json:"chains"`        // datalog queries on the maintained fixpoint
	Rebuilds      uint64 `json:"rebuilds"`      // fixpoint rebuilds after an apply error
	Subscriptions int    `json:"subscriptions"` // live standing queries
	Deltas        uint64 `json:"deltas"`        // answer deltas published
	EvalErrors    uint64 `json:"eval_errors"`   // standing-query evaluation failures
}

// IncrementalStats reports the maintenance counters.
func (kb *KB) IncrementalStats() IncrementalStats {
	kb.inc.mu.Lock()
	mgr, hub := kb.inc.mgr, kb.inc.hub
	kb.inc.mu.Unlock()
	if mgr == nil {
		return IncrementalStats{}
	}
	st := mgr.Stats()
	out := IncrementalStats{
		Enabled:    true,
		Epoch:      st.Epoch,
		Batches:    st.Batches,
		Triples:    st.Triples,
		Attributes: st.Attributes,
		Chains:     st.Chains,
		Rebuilds:   st.Rebuilds,
	}
	out.Subscriptions, out.Deltas, out.EvalErrors = hub.counters()
	return out
}
