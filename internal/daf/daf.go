// Package daf is the plain-CQ front-end of the shared execution engine
// (internal/engine): the DAF subgraph-matching algorithm of Han et al.
// (SIGMOD'19) reviewed in Section V-A of the paper. BuildDAG, BuildCS
// and Backtrack — which OMatch extends rather than replaces — live in
// the engine; this package validates that a pattern is condition-free
// in the DAF sense and compiles it into an engine plan, on which the
// OGP-only machinery (⊥ candidates, dependency edges) is inert.
//
// Two departures from the original DAF, both required by the paper's
// setting: matching is homomorphic, as OGP and CQ evaluation are, and a
// static-BFS matching order is available (the paper's OMatch_BFS
// ablation uses it).
//
// It is the evaluation engine for the UCQ baselines, with Prepare/Run
// (and PrepareUCQ/Run for whole rewritings) so the server's plan cache
// can reuse compiled baseline plans across requests. The exported types
// are aliases of the engine's, as in internal/match.
package daf

import (
	"fmt"

	"ogpa/internal/core"
	"ogpa/internal/cq"
	"ogpa/internal/engine"
	"ogpa/internal/graph"
)

// Limits bounds an enumeration; zero values disable a limit.
type Limits = engine.Limits

// ErrLimit reports that enumeration stopped due to Limits. It is the
// engine's sentinel, re-exported so existing == comparisons keep working.
var ErrLimit = engine.ErrLimit

// Options configures Run; see engine.Options.
type Options = engine.Options

// Stats reports work done by one Match call; see engine.Stats.
type Stats = engine.Stats

// Prepared is a compiled DAF matching plan — of one CQ, or of a whole
// rewriting (PrepareUCQ); see engine.Plan. Like match.Prepared it
// depends only on the patterns and the graph, so it can be cached and
// Run many times concurrently.
type Prepared = engine.Plan

// Prepare validates the pattern and runs the engine's shared build
// phase (BuildDAG + BuildCS); enumeration options are taken per Run.
func Prepare(p *core.Pattern, g *graph.Graph) (*Prepared, error) {
	if err := checkPattern(p); err != nil {
		return nil, err
	}
	return engine.Prepare(p, g)
}

// Match computes the matches of a condition-free pattern p in g, projected
// onto p's distinguished vertices. Patterns with omission conditions or
// non-structural matching conditions are rejected — use the match package
// (OMatch) for full OGPs.
func Match(p *core.Pattern, g *graph.Graph, opts Options) (*core.AnswerSet, Stats, error) {
	pr, err := Prepare(p, g)
	if err != nil {
		return nil, Stats{}, err
	}
	return pr.Run(opts)
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
func EvalCQ(q *cq.Query, g *graph.Graph, opts Options) (*core.AnswerSet, Stats, error) {
	return Match(core.FromCQ(q), g, opts)
}

// EvalUCQ evaluates a union of conjunctive queries: the union of the
// disjuncts' answer sets, deduplicated. Disjunct answers are only unioned
// when their heads agree (guaranteed for PerfectRef output). Each
// disjunct's plan is built and run inside one item of the engine's worker
// pool; answers are merged in disjunct order, so the result is identical
// whatever opts.Workers is. opts.Limits bound the whole union.
func EvalUCQ(qs []*cq.Query, g *graph.Graph, opts Options) (*core.AnswerSet, Stats, error) {
	ps, err := disjuncts(qs)
	if err != nil {
		return nil, Stats{}, err
	}
	return engine.MatchUnion(ps, g, opts)
}

// PrepareUCQ compiles every disjunct of the rewriting into one plan. It
// is to EvalUCQ what Prepare is to Match: the build phase (per-disjunct
// BuildDAG + BuildCS) runs once, and Run can be issued many times
// concurrently — the unit the server's plan cache stores for
// UCQ-baseline queries.
func PrepareUCQ(qs []*cq.Query, g *graph.Graph) (*Prepared, error) {
	ps, err := disjuncts(qs)
	if err != nil {
		return nil, err
	}
	return engine.PrepareUnion(ps, g)
}

// disjuncts converts and validates every disjunct of a rewriting.
func disjuncts(qs []*cq.Query) ([]*core.Pattern, error) {
	ps := make([]*core.Pattern, len(qs))
	for i, q := range qs {
		ps[i] = core.FromCQ(q)
		if err := checkPattern(ps[i]); err != nil {
			return nil, err
		}
	}
	return ps, nil
}
