package ogpa

import (
	"fmt"
	"sync"

	"ogpa/internal/core"
	"ogpa/internal/cq"
	"ogpa/internal/daf"
	"ogpa/internal/datalog"
	"ogpa/internal/inc"
	"ogpa/internal/rdf"
	"ogpa/internal/saturate"
)

// maxIncChains bounds how many maintained states one KB keeps; queries
// beyond the cap silently take the cold (rebuild-per-call) path so an
// adversarial query stream cannot grow memory without bound.
const maxIncChains = 64

// incMemo holds the KB's incremental-maintenance state: an inc.Manager
// riding the delta store's watcher stream, plus maintained chains keyed
// by standing query (datalog) or chase depth (saturate). It is its own
// struct so KB itself holds no mutex — the aboxMemo pattern.
//
// Chains are keyed by query text / depth alone, NOT by epoch: a
// maintained chain deliberately spans epochs (advancing it IS the
// maintenance), and every answer returns the epoch it is exact for.
type incMemo struct {
	mu    sync.Mutex
	mgr   *inc.Manager
	dl    map[string]*inc.DatalogChain
	chase map[int]*inc.ChaseChain
	cons  *inc.ConsistencyChain
	hub   *subHub
}

// EnableIncremental attaches incremental maintenance to a live KB: the
// ABox-based pipelines (BaselineDatalog, BaselineSaturate,
// CheckConsistency) stop cold-rebuilding their derived state after
// every InsertTriples/DeleteTriples and instead advance maintained
// fixpoints batch-by-batch, and Subscribe starts accepting standing
// queries. Must be called after EnableLiveData; calling it twice is an
// error.
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
	kb.inc.chase = map[int]*inc.ChaseChain{}
	kb.inc.hub = newSubHub(kb)
	return nil
}

// Incremental reports whether maintained-state answering is enabled.
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
	Epoch         uint64 `json:"epoch"`         // epoch all chains are advanced to
	Batches       uint64 `json:"batches"`       // committed batches applied
	Triples       uint64 `json:"triples"`       // triples translated into assertions
	Attributes    uint64 `json:"attributes"`    // literal-object triples skipped
	Chains        int    `json:"chains"`        // registered maintained chains
	Rebuilds      uint64 `json:"rebuilds"`      // chains rebuilt after an apply error
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

// incEligible reports whether a call with these options may use a
// maintained chain: bounded calls (timeout / row caps) keep the cold
// path so their limit semantics stay exact.
func incEligible(opt Options) bool {
	return opt.Timeout == 0 && opt.MaxResults == 0 && opt.Context == nil
}

// datalogChain resolves (or registers) the maintained fixpoint for one
// query's program. ok is false when incremental maintenance is off or
// the chain cap is reached — the caller then takes the cold path.
func (kb *KB) datalogChain(query string, prog *datalog.Program) (c *inc.DatalogChain, ok bool, err error) {
	kb.inc.mu.Lock()
	defer kb.inc.mu.Unlock()
	if kb.inc.mgr == nil {
		return nil, false, nil
	}
	if c = kb.inc.dl[query]; c != nil {
		return c, true, nil
	}
	if len(kb.inc.dl)+len(kb.inc.chase) >= maxIncChains {
		return nil, false, nil
	}
	c, err = kb.inc.mgr.RegisterDatalog(prog, datalog.Limits{})
	if err != nil {
		return nil, false, err
	}
	kb.inc.dl[query] = c
	return c, true, nil
}

// chaseChain resolves (or registers) the maintained chase of the given
// depth. Same contract as datalogChain.
func (kb *KB) chaseChain(depth int) (c *inc.ChaseChain, ok bool, err error) {
	kb.inc.mu.Lock()
	defer kb.inc.mu.Unlock()
	if kb.inc.mgr == nil {
		return nil, false, nil
	}
	if c = kb.inc.chase[depth]; c != nil {
		return c, true, nil
	}
	if len(kb.inc.dl)+len(kb.inc.chase) >= maxIncChains {
		return nil, false, nil
	}
	c, err = kb.inc.mgr.RegisterChase(kb.tbox, depth, saturate.Limits{})
	if err != nil {
		return nil, false, err
	}
	kb.inc.chase[depth] = c
	return c, true, nil
}

// consistencyChain resolves (or registers) the maintained violation
// index. Same contract as datalogChain.
func (kb *KB) consistencyChain() (c *inc.ConsistencyChain, ok bool, err error) {
	kb.inc.mu.Lock()
	defer kb.inc.mu.Unlock()
	if kb.inc.mgr == nil {
		return nil, false, nil
	}
	if kb.inc.cons != nil {
		return kb.inc.cons, true, nil
	}
	c, err = kb.inc.mgr.RegisterConsistency(kb.tbox, saturate.Limits{})
	if err != nil {
		return nil, false, err
	}
	kb.inc.cons = c
	return c, true, nil
}

// incDatalogAnswer answers through the maintained fixpoint; ok is false
// when the call must take the cold path instead.
func (kb *KB) incDatalogAnswer(query string, prog *datalog.Program, q *cq.Query) (ans *Answers, ok bool, err error) {
	c, ok, err := kb.datalogChain(query, prog)
	if err != nil || !ok {
		return nil, ok, err
	}
	tuples, _, err := c.Answer()
	if err != nil {
		return nil, true, err
	}
	out := &Answers{Vars: append([]string(nil), q.Head...)}
	for _, t := range tuples {
		out.Rows = append(out.Rows, append([]string(nil), t...))
	}
	core.SortRows(out.Rows)
	return out, true, nil
}

// incSaturateAnswer answers through the maintained chase; ok is false
// when the call must take the cold path instead.
func (kb *KB) incSaturateAnswer(q *cq.Query) (ans *Answers, ok bool, err error) {
	c, ok, err := kb.chaseChain(q.Size() + 1)
	if err != nil || !ok {
		return nil, ok, err
	}
	res, mg, _, err := c.Answer(q, daf.Limits{})
	if err != nil {
		return nil, true, err
	}
	out := &Answers{Vars: append([]string(nil), q.Head...)}
	for _, row := range res.Answers() {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = mg.Name(v)
		}
		out.Rows = append(out.Rows, cells)
	}
	core.SortRows(out.Rows)
	return out, true, nil
}

// incConsistency checks through the maintained violation index; ok is
// false when the call must take the cold path instead.
func (kb *KB) incConsistency() (violations []string, ok bool, err error) {
	c, ok, err := kb.consistencyChain()
	if err != nil || !ok {
		return nil, ok, err
	}
	_, vs, _, err := c.Check()
	if err != nil {
		return nil, true, err
	}
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out, true, nil
}
