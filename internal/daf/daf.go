// Package daf is the plain-CQ front-end of the shared execution engine
// (internal/engine): the DAF subgraph-matching algorithm of Han et al.
// (SIGMOD'19) reviewed in Section V-A of the paper. BuildDAG, BuildCS
// and Backtrack — which OMatch extends rather than replaces — live in
// the engine; this package validates that a pattern is condition-free
// in the DAF sense and compiles it into an engine plan with the
// OGP-only capabilities (⊥ candidates, dependency edges) off.
//
// Two departures from the original DAF, both required by the paper's
// setting: homomorphism semantics are the default alongside subgraph
// isomorphism (OGPs and CQ evaluation are homomorphic; Options.
// Injective installs the engine's Injective capability), and a
// static-BFS matching order is available (the paper's OMatch_BFS
// ablation uses it).
//
// It is the evaluation engine for the UCQ baselines, with Prepare/Run
// (and PrepareUCQ/Run for whole rewritings) so the server's plan cache
// can reuse compiled baseline plans across requests.
package daf

import (
	"context"
	"fmt"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"ogpa/internal/core"
	"ogpa/internal/cq"
	"ogpa/internal/engine"
	"ogpa/internal/graph"
)

// Order selects the matching order used by Backtrack.
type Order = engine.Order

// Matching orders.
const (
	// OrderAdaptive is DAF's candidate-size order: among extendable
	// vertices, pick the one with the fewest remaining candidates.
	OrderAdaptive = engine.OrderAdaptive
	// OrderStaticBFS fixes the BFS order of the DAG up front (the
	// OMatch_BFS / CECI-style ablation).
	OrderStaticBFS = engine.OrderStaticBFS
)

// Limits bounds an enumeration. Zero values disable the respective limit.
type Limits struct {
	MaxResults int
	MaxSteps   int64
	Deadline   time.Time
	// Ctx, when non-nil, is polled at the engine's batched step-flush
	// point; cancellation surfaces as a clean truncation (partial answers,
	// Stats.Truncated, nil error). See engine.Limits.Ctx.
	Ctx context.Context
	// Workers bounds the worker pools: EvalUCQ/PreparedUCQ evaluate
	// disjuncts concurrently (each disjunct itself running sequentially),
	// and a single Match fans its first decision level out across the
	// engine's worker pool. 0 means runtime.GOMAXPROCS(0); 1 is fully
	// sequential. Answers are merged canonically either way, so results
	// are identical to sequential.
	Workers int
}

// ErrLimit reports that enumeration stopped due to Limits. It is the
// engine's sentinel, re-exported so existing == comparisons keep working.
var ErrLimit = engine.ErrLimit

// Options configures Match.
type Options struct {
	Injective bool // subgraph isomorphism instead of homomorphism
	Order     Order
	Limits    Limits
}

// Stats reports work done by one Match call; see engine.Stats.
type Stats = engine.Stats

// engineOptions translates front-end options into engine options with
// the DAF capability set: no ⊥ candidates, no dependency edges, and the
// Injective capability tracking Options.Injective.
func engineOptions(o Options) engine.Options {
	return engine.Options{
		Order: o.Order,
		Limits: engine.Limits{
			MaxResults: o.Limits.MaxResults,
			MaxSteps:   o.Limits.MaxSteps,
			Deadline:   o.Limits.Deadline,
			Ctx:        o.Limits.Ctx,
		},
		Workers: o.Limits.Workers,
		Caps:    engine.Caps{Injective: o.Injective},
	}
}

// Prepared is a compiled DAF matching plan (an engine plan with the DAF
// capability set). Like match.Prepared it depends only on the pattern
// and the graph, so it can be cached and Run many times concurrently.
type Prepared struct {
	pl   *engine.Plan
	opts Options
}

// Prepare validates the pattern and runs the engine's shared build
// phase (BuildDAG + BuildCS). Of opts.Limits nothing is consulted;
// enumeration limits are taken per Run.
func Prepare(p *core.Pattern, g *graph.Graph, opts Options) (*Prepared, error) {
	if err := checkPattern(p); err != nil {
		return nil, err
	}
	pl, err := engine.Prepare(p, g, engineOptions(opts))
	if err != nil {
		return nil, err
	}
	return &Prepared{pl: pl, opts: opts}, nil
}

// Stats reports the build-phase statistics.
func (pr *Prepared) Stats() Stats { return pr.pl.Stats() }

// CandidatePool returns the refined candidate pool of pattern vertex u;
// see engine.Plan.CandidatePool.
func (pr *Prepared) CandidatePool(u int) []graph.VID { return pr.pl.CandidatePool(u) }

// Run enumerates matches over the prepared plan under lim. Safe to call
// concurrently on one Prepared.
func (pr *Prepared) Run(lim Limits) (*core.AnswerSet, Stats, error) {
	eo := engineOptions(pr.opts)
	eo.Limits = engine.Limits{MaxResults: lim.MaxResults, MaxSteps: lim.MaxSteps, Deadline: lim.Deadline, Ctx: lim.Ctx}
	eo.Workers = lim.Workers
	return pr.pl.Run(eo)
}

// Match computes the matches of a condition-free pattern p in g, projected
// onto p's distinguished vertices. Patterns with omission conditions or
// non-structural matching conditions are rejected — use the match package
// (OMatch) for full OGPs.
func Match(p *core.Pattern, g *graph.Graph, opts Options) (*core.AnswerSet, Stats, error) {
	pr, err := Prepare(p, g, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	return pr.Run(opts.Limits)
}

// checkPattern validates that the pattern is condition-free in the DAF
// sense: vertex Match conditions may only be conjunctions of LabelIs on
// the vertex itself (these arise from CQs with several concept atoms on
// one variable), edge Match conditions may only restate the edge, and no
// vertex may carry an omission condition.
func checkPattern(p *core.Pattern) error {
	if err := p.Validate(); err != nil {
		return err
	}
	for i, v := range p.Vertices {
		if v.Omit != nil {
			return fmt.Errorf("daf: vertex %d has an omission condition; use OMatch", i)
		}
		if !isLocalLabelConjunction(v.Match, i) {
			return fmt.Errorf("daf: vertex %d has a non-structural condition; use OMatch", i)
		}
	}
	for i, e := range p.Edges {
		if e.Match == nil {
			continue
		}
		ei, ok := e.Match.(core.EdgeIs)
		//lint:ignore internsafety one-time pattern-shape validation, not a per-candidate probe
		if !ok || ei.X != e.From || ei.Y != e.To || ei.Label != e.Label {
			return fmt.Errorf("daf: edge %d has a non-structural condition; use OMatch", i)
		}
	}
	return nil
}

func isLocalLabelConjunction(c core.Cond, self int) bool {
	switch t := c.(type) {
	case nil, core.True:
		return true
	case core.LabelIs:
		return t.X == self
	case core.And:
		return isLocalLabelConjunction(t.L, self) && isLocalLabelConjunction(t.R, self)
	default:
		return false
	}
}

// EvalCQ evaluates a single conjunctive query homomorphically over g.
func EvalCQ(q *cq.Query, g *graph.Graph, lim Limits) (*core.AnswerSet, Stats, error) {
	return Match(core.FromCQ(q), g, Options{Limits: lim})
}

// EvalUCQ evaluates a union of conjunctive queries: the union of the
// disjuncts' answer sets, deduplicated. Disjunct answers are only unioned
// when their heads agree (guaranteed for PerfectRef output). With
// lim.Workers > 1 (or 0, meaning GOMAXPROCS) disjuncts are evaluated
// concurrently; per-disjunct answer sets are merged in disjunct order, so
// the result is identical to the sequential loop.
func EvalUCQ(qs []*cq.Query, g *graph.Graph, lim Limits) (*core.AnswerSet, Stats, error) {
	return evalDisjuncts(len(qs), lim, func(i int, inner Limits) (*core.AnswerSet, Stats, error) {
		return EvalCQ(qs[i], g, inner)
	})
}

// PreparedUCQ is a whole rewriting compiled disjunct-by-disjunct into
// engine plans. It is to EvalUCQ what Prepared is to Match: the build
// phase (per-disjunct BuildDAG + BuildCS) runs once, and Run can be
// issued many times concurrently — the unit the server's plan cache
// stores for UCQ-baseline queries.
type PreparedUCQ struct {
	plans []*Prepared
}

// PrepareUCQ compiles every disjunct of the rewriting.
func PrepareUCQ(qs []*cq.Query, g *graph.Graph, opts Options) (*PreparedUCQ, error) {
	pu := &PreparedUCQ{plans: make([]*Prepared, len(qs))}
	for i, q := range qs {
		pr, err := Prepare(core.FromCQ(q), g, opts)
		if err != nil {
			return nil, err
		}
		pu.plans[i] = pr
	}
	return pu, nil
}

// Stats sums the build-phase statistics over the disjunct plans.
func (pu *PreparedUCQ) Stats() Stats {
	var total Stats
	for _, pr := range pu.plans {
		total.Add(pr.Stats())
	}
	return total
}

// Run enumerates the union over the prepared disjunct plans under lim,
// with the same disjunct-order merge as EvalUCQ.
func (pu *PreparedUCQ) Run(lim Limits) (*core.AnswerSet, Stats, error) {
	return evalDisjuncts(len(pu.plans), lim, func(i int, inner Limits) (*core.AnswerSet, Stats, error) {
		return pu.plans[i].Run(inner)
	})
}

// evalDisjuncts is the shared disjunct evaluator behind EvalUCQ and
// PreparedUCQ.Run: eval(i, inner) evaluates the i-th disjunct (inner has
// Workers forced to 1 so each disjunct runs sequentially and its result
// — including Truncated — is deterministic), and the per-disjunct answer
// sets are merged in disjunct order with global deduplication. Workers: 1
// is the same pool with one goroutine claiming disjuncts in order.
func evalDisjuncts(n int, lim Limits, eval func(int, Limits) (*core.AnswerSet, Stats, error)) (*core.AnswerSet, Stats, error) {
	inner := lim
	inner.Workers = 1
	workers := lim.Workers
	if workers <= 0 {
		workers = stdruntime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	type result struct {
		res *core.AnswerSet
		st  Stats
		err error
	}
	results := make([]result, n)
	// stop is a disjunct-granular early exit: once MaxResults distinct
	// answers exist across completed disjuncts (tracked in seen under mu),
	// workers stop claiming new disjuncts.
	var stop atomic.Bool
	var mu sync.Mutex
	//lint:ignore internsafety keys are canonical Answer.Key() strings (mirrors core.AnswerSet); touched once per disjunct answer, not per node
	seen := make(map[string]bool)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				res, st, err := eval(i, inner)
				results[i] = result{res, st, err}
				if err != nil {
					stop.Store(true)
					return
				}
				if lim.MaxResults > 0 {
					mu.Lock()
					for _, a := range res.Answers() {
						seen[a.Key()] = true
					}
					if len(seen) >= lim.MaxResults {
						stop.Store(true)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	out := core.NewAnswerSet()
	var total Stats
	for i := range results {
		r := &results[i]
		total.Add(r.st) // ORs Truncated, e.g. Ctx canceled mid-disjunct
		if r.err != nil {
			total.Truncated = true
			return out, total, r.err
		}
		if r.res == nil {
			continue // disjunct skipped by early exit
		}
		for _, a := range r.res.Answers() {
			if lim.MaxResults > 0 && out.Len() >= lim.MaxResults {
				total.Truncated = true
				return out, total, nil
			}
			out.Add(a)
		}
	}
	if lim.MaxResults > 0 && out.Len() >= lim.MaxResults {
		total.Truncated = true
	}
	return out, total, nil
}
