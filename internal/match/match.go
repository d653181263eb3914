// Package match is the OMatch front-end (paper Section V): matching
// ontological graph patterns in data graphs by extending the DAF
// framework. The execution pipeline itself — OMDAG construction, OMCS
// candidate refinement with CSR adjacency, the zero-alloc backtracking
// runtime and its worker pool — lives in internal/engine, shared with
// the plain-CQ front-end internal/daf. This package installs the
// OGP-specific plan capabilities on top of it:
//
//   - Dummy ⊥ candidates (engine.Caps.Omission): a vertex with a
//     non-empty omission condition may map to ⊥; its incident edges are
//     then excused (BuildOMDAG step 1b).
//   - Dependency edges (engine.Caps.DependencyEdges): if C^l(u) or
//     C^o(u) references u', the OMDAG gains an edge (u', u), so u' is
//     mapped before u and u's conditions are decidable when u is
//     assigned (BuildOMDAG step 1c).
//   - Global conditions compiled into a shared BDD over atomic
//     conditions, decided as soon as their variables are mapped
//     (OMBacktrack); the engine always carries this machinery — a plain
//     CQ is just the degenerate condition-free case.
//
// The exported types are aliases of the engine's, so a match.Options or
// match.Stats is interchangeable with the engine's (and with daf's).
package match

import (
	"ogpa/internal/core"
	"ogpa/internal/engine"
	"ogpa/internal/graph"
)

// Order selects the matching order.
type Order = engine.Order

// Matching orders.
const (
	// OrderAdaptive is DAF's candidate-size order.
	OrderAdaptive = engine.OrderAdaptive
	// OrderStaticBFS is the OMatch_BFS ablation of the paper.
	OrderStaticBFS = engine.OrderStaticBFS
)

// Limits bounds an enumeration; zero values disable a limit.
type Limits = engine.Limits

// ErrLimit reports that the enumeration hit a limit. It is the engine's
// sentinel, re-exported so existing == comparisons keep working.
var ErrLimit = engine.ErrLimit

// Options configures Match; see engine.Options. The OGP capabilities
// (Caps) are installed by Prepare and need not be set by callers.
type Options = engine.Options

// Stats reports work done by one Match call; see engine.Stats.
type Stats = engine.Stats

// Prepared is a compiled OGP matching plan; see engine.Plan. The build
// phase depends only on the pattern and the graph, so a Prepared can be
// cached and Run many times — concurrently, with different limits and
// worker counts — which is how the server's plan cache skips GenOGP and
// BuildOMCS on repeated queries.
type Prepared = engine.Plan

// ogpCaps are the engine capabilities that make the shared pipeline
// OMatch: ⊥ candidates for omittable vertices and dependency edges.
// (Matching stays homomorphic; Injective is the daf front-end's.)
var ogpCaps = engine.Caps{Omission: true, DependencyEdges: true}

// Prepare runs the shared build phase with the OGP capabilities
// installed. No field of opts is consulted (opts.Caps is replaced by the
// OGP set); enumeration options are taken per Run.
func Prepare(p *core.Pattern, g *graph.Graph, opts Options) (*Prepared, error) {
	opts.Caps = ogpCaps
	return engine.Prepare(p, g, opts)
}

// Match computes Q(G) for a full OGP.
func Match(p *core.Pattern, g *graph.Graph, opts Options) (*core.AnswerSet, Stats, error) {
	pr, err := Prepare(p, g, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	return pr.Run(opts)
}
