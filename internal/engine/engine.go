// Package engine is the shared pattern-matching execution engine behind
// both front-ends of this repository: OMatch (internal/match, paper
// Section V) and plain DAF (internal/daf, Han et al. SIGMOD'19). The
// paper presents OMatch as *an extension of* DAF — same DAG ordering,
// candidate-space index and adaptive backtracking, plus OGP-specific
// machinery — and this package owns exactly that shared pipeline:
//
//   - BuildOMDAG: rooted DAG ordering of the pattern, with dependency
//     edges from conditions;
//   - BuildOMCS: candidate sets refined incrementally on word-packed
//     bitsets, per-DAG-edge adjacency materialized in CSR form;
//   - OMBacktrack: a zero-allocation backtracking runtime with adaptive
//     or static-BFS ordering, budget/step accounting and truncation;
//   - one worker pool (fanOut) behind both a plan's first-decision-level
//     fan-out and a union's disjunct fan-out.
//
// The OGP-only machinery — ⊥ dummy candidates for omittable vertices and
// dependency edges — is always on, and conditions are always compiled
// into one shared BDD over interned atoms. A condition-free CQ is simply
// the degenerate case: no vertex has an omission condition and every
// vertex condition mentions only its own vertex, so neither ⊥ nor a
// dependency edge arises, and the same runtime serves both front-ends
// without branching on "which algorithm am I".
//
// The contract is Prepare(pattern, graph) → *Plan (PrepareUnion for a
// union of patterns), then Plan.Run(opts) → answers: the build phase
// depends only on the patterns and the graph, so plans are cacheable and
// safe for concurrent Runs.
package engine

import (
	"context"
	"errors"
	"slices"
	"sort"
	"sync"
	"time"

	"ogpa/internal/bitset"
	"ogpa/internal/core"
	"ogpa/internal/graph"
	"ogpa/internal/sbdd"
	"ogpa/internal/symbols"
)

// Order selects the matching order.
type Order int

// Matching orders.
const (
	// OrderAdaptive is DAF's candidate-size order.
	OrderAdaptive Order = iota
	// OrderStaticBFS is the OMatch_BFS ablation of the paper.
	OrderStaticBFS
)

// Limits bounds an enumeration; zero values disable a limit.
type Limits struct {
	MaxResults int
	MaxSteps   int64
	Deadline   time.Time
	// Ctx, when non-nil, is polled at the batched step-flush point (every
	// stepFlush enumeration ticks). Cancellation or context-deadline
	// expiry stops the run as a *clean truncation*: Run returns the
	// answers found so far with Stats.Truncated set and a nil error —
	// unlike Deadline, which reports ErrLimit. Servers use it to shed
	// runaway queries when the client disconnects or its request deadline
	// passes.
	Ctx context.Context
}

// ErrLimit reports that the enumeration hit a limit. The front-end
// packages re-export this exact value, so errors.Is and == work across
// package boundaries.
var ErrLimit = errors.New("engine: enumeration limit exceeded")

// Options configures Run.
type Options struct {
	Order  Order
	Limits Limits

	// Workers bounds the worker pool. A plan's first decision level
	// (including the ⊥ candidate) or a union's disjuncts are claimed item
	// by item by this many goroutines, each owning its own runtime state
	// and BDD evaluation cache. 0 means runtime.GOMAXPROCS(0); 1 runs a
	// plan's recursion inline and a union's disjuncts one after another.
	// Answers are merged in item order, so results are identical to
	// sequential.
	Workers int

	// Ablation switches (benchmarking only; both default to enabled).
	DisableEarlyReject           bool // skip partial-BDD pruning during backtracking
	DisableExistentialCompletion bool // enumerate existential witnesses exhaustively
}

// Stats reports work done by one Prepare + Run.
type Stats struct {
	Steps int64
	// SeedCandidates sums the pool sizes handed to the local filter,
	// before any refinement; CSCandidates sums what refinement left.
	SeedCandidates int
	CSCandidates   int
	// AdjPairs counts the candidate pairs actually materialized in the
	// per-DAG-edge adjacency (the CS index's true size; CSCandidates is
	// summed before materialization and does not see pairwise pruning).
	AdjPairs int
	// IndexedEdges counts the pattern edges, of PatternEdges, whose
	// partners are enumerated from CSR adjacency; the others are checked
	// as a condition on every candidate pair the search reaches.
	IndexedEdges int
	PatternEdges int
	// Revisions counts the arc revisions refinement ran to its fixpoint:
	// one check of a vertex's pool against one edge's far pool.
	Revisions int
	// EmptyCandSets counts pattern vertices whose candidate set was (or
	// refined to) empty while the vertex cannot be omitted — each one
	// proves Q(G) = ∅ during the build phase.
	EmptyCandSets int
	BDDNodes      int
	AtomEvals     int64
	// BuildNanos and EnumNanos split wall-clock time between the shared
	// build phase (BuildOMDAG + BuildOMCS + BDD compilation) and the
	// enumeration phase (OMBacktrack).
	BuildNanos int64
	EnumNanos  int64
	// Truncated reports that enumeration stopped before exhausting the
	// search space (MaxResults reached, MaxSteps exceeded, or the
	// deadline passed).
	Truncated bool
}

// Add accumulates o into s: every counter and timing is summed and
// Truncated is ORed, which is how a union's statistics combine over its
// disjunct plans.
func (s *Stats) Add(o Stats) {
	s.Steps += o.Steps
	s.SeedCandidates += o.SeedCandidates
	s.CSCandidates += o.CSCandidates
	s.AdjPairs += o.AdjPairs
	s.IndexedEdges += o.IndexedEdges
	s.PatternEdges += o.PatternEdges
	s.Revisions += o.Revisions
	s.EmptyCandSets += o.EmptyCandSets
	s.BDDNodes += o.BDDNodes
	s.AtomEvals += o.AtomEvals
	s.BuildNanos += o.BuildNanos
	s.EnumNanos += o.EnumNanos
	s.Truncated = s.Truncated || o.Truncated
}

type condKind uint8

const (
	condVertexMatch condKind = iota
	condVertexOmit
	condEdgeMatch
)

type condInfo struct {
	kind  condKind
	owner int // vertex index or edge index
	ref   sbdd.Ref
	vars  []int // pattern vertices that must be assigned before deciding
}

// probe describes how to enumerate partner candidates along an edge:
// follow data edges labeled label (0 = any) in the given direction.
type probe struct {
	label   symbols.ID
	forward bool // true: pattern-From → pattern-To direction
}

type matcher struct {
	p    *core.Pattern
	g    *graph.Graph
	opts Options

	canOmit []bool
	cand    [][]graph.VID
	dist    []int // distinguished vertices: the answer tuple's columns

	// Conditions and the shared BDD.
	bdd      *sbdd.Builder
	atomVars [][]int
	atomFns  []func(core.Mapping) bool
	conds    []condInfo
	// condsOf[u] = indexes of conditions whose vars include u.
	condsOf [][]int

	// Per-edge compiled info.
	edgeProbes                    [][]probe
	edgeIndexab                   []bool
	edgeCondIdx                   []int // index into conds, or -1
	vertexMatchIdx, vertexOmitIdx []int

	// OMDAG.
	order       []int
	dagEdges    []dagEdge
	parentEdges [][]int // structural DAG edge indexes by child
	depParents  [][]int // dependency parents by vertex

	// CS adjacency, one entry per DAG edge, in CSR form: adjStart[di]
	// holds len(cand[parent])+1 offsets into the flat candidate pool
	// adjItems[di]; row pi (the pi-th parent candidate, cand being
	// sorted) spans adjItems[di][adjStart[di][pi]:adjStart[di][pi+1]],
	// itself sorted ascending so intersections run as linear merges or
	// galloping binary searches. adjStart[di] == nil marks a
	// non-indexable edge (checked purely as a condition).
	adjStart [][]uint32
	adjItems [][]graph.VID

	// Build-phase state, nil once Prepare returns (a cached Plan pins none
	// of it): what localPass, pairwiseOK and seeding read per candidate,
	// resolved once per plan by compileConditions.
	atomIdx map[core.Cond]int
	// localClauses[u]: u's matching condition in DNF, each clause cut down
	// to the ids of its atoms over u alone (atoms over other vertices are
	// optimistic at build time); nil without a condition, which an empty,
	// unsatisfiable DNF is not. pairClauses[ei]: likewise for an edge and
	// its two endpoints; nil when in every clause the only such atom is an
	// EdgeIs that contributed a probe — the neighbour walk proved it.
	localClauses, pairClauses [][][]int
	// seedBuckets[u]: label buckets whose union holds every vertex u can
	// match; nil when some clause pins no label (bucketsOf).
	seedBuckets [][]symbols.ID
	sc          *scratch

	// Build-phase statistics; per-worker runtime counters (steps, atom
	// evaluations) live in budget/runtime and are merged in after the
	// backtracking phase.
	stats Stats
}

type dagEdge struct {
	parent, child int
	edge          int // pattern edge index
}

// Plan is a compiled matching plan for one pattern over one graph:
// conditions compiled into the shared BDD, the OMDAG built, candidate
// sets refined and the CS adjacency materialized — or, for a union of
// several patterns, one such plan per disjunct. The build phase depends
// only on the patterns and the graph, so a Plan can be cached and Run
// many times — concurrently, with different limits and worker counts —
// which is how the server's plan cache skips the rewriter and BuildOMCS
// on repeated queries.
type Plan struct {
	m     *matcher
	parts []*Plan // a union's disjunct plans; nil for a single pattern
	stats Stats   // build-phase statistics, copied into every Run
	empty bool    // build proved Q(G) = ∅
}

// Prepare runs the shared build phase; enumeration options are taken per
// Run.
func Prepare(p *core.Pattern, g *graph.Graph) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	m := &matcher{
		p: p, g: g,
		dist:    p.Distinguished(),
		atomIdx: make(map[core.Cond]int),
		bdd:     sbdd.New(),
		sc:      getScratch(g.NumVertices(), len(p.Vertices)),
	}
	pl := &Plan{m: m}
	built := m.compileConditions() && m.buildOMDAG() && m.buildOMCS()
	pl.empty = !built
	m.releaseBuild(built)
	m.stats.BDDNodes = m.bdd.NumNodes()
	m.stats.BuildNanos = time.Since(start).Nanoseconds()
	pl.stats = m.stats
	return pl, nil
}

// releaseBuild ends the build phase: the pools move out of the scratch
// into exact-size slices of the plan's own (none if Q(G) = ∅ is proved),
// the scratch goes back to its pool, sets empty, and build-only fields go.
func (m *matcher) releaseBuild(built bool) {
	if built {
		for u, pool := range m.cand {
			m.cand[u] = append(make([]graph.VID, 0, len(pool)), pool...)
		}
	} else {
		m.cand = nil
	}
	for _, s := range m.sc.inCand[:len(m.p.Vertices)] {
		s.Reset()
	}
	scratchPool.Put(m.sc)
	m.sc, m.atomIdx, m.localClauses, m.pairClauses, m.seedBuckets = nil, nil, nil, nil, nil
}

// scratch is the build phase's working memory: buffers that grow to |V|
// entries, recycled through scratchPool instead of re-grown by append on
// every Prepare. Nothing in it outlives the Prepare that took it.
type scratch struct {
	mini    core.Mapping  // all-⊥ partial mapping for the local/pairwise probes
	nbrBuf  []graph.VID   // one neighbour row
	nbrSeen *bitset.Set   // dedup bits for multi-probe neighbour walks
	flat    []graph.VID   // a seed before the local filter, then one edge's adjacency rows
	pools   [][]graph.VID // per pattern vertex: the candidate pool under construction
	inCand  []*bitset.Set // per pattern vertex: membership bits of that pool

	// Refinement's worklist: its arcs, a ring of queued arc indexes and a
	// flag per arc that is set while it is queued.
	arcs   []arc
	queue  []int
	queued []bool
}

// arc is one pruning constraint of refinement: every candidate of u needs
// a partner across pattern edge edge in far's pool. u plays the edge's
// From side iff fromSide (a self-loop's one arc has far == u).
type arc struct {
	u, far, edge int
	fromSide     bool
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch returns a scratch for an n-vertex pattern over a graph of
// nv vertices, every set empty and mini all-⊥. Sets sized for fewer
// vertices (first use, or a live KB that has grown since) are replaced.
func getScratch(nv, n int) *scratch {
	sc := scratchPool.Get().(*scratch)
	if sc.nbrSeen == nil || sc.nbrSeen.Cap() < nv {
		sc.nbrSeen, sc.inCand, sc.pools = bitset.New(nv), nil, nil
	}
	for len(sc.inCand) < n {
		sc.inCand = append(sc.inCand, bitset.New(sc.nbrSeen.Cap()))
		sc.pools = append(sc.pools, nil)
	}
	sc.mini = sc.mini[:0]
	for len(sc.mini) < n {
		sc.mini = append(sc.mini, core.Omitted)
	}
	return sc
}

// Stats reports the build-phase statistics (BuildNanos, CSCandidates,
// AdjPairs, BDDNodes, Revisions, EmptyCandSets).
func (pl *Plan) Stats() Stats { return pl.stats }

// PrepareUnion prepares the union of ps, whose heads must agree: one
// plan per disjunct, built one after another. A single pattern gives
// that pattern's own plan.
func PrepareUnion(ps []*core.Pattern, g *graph.Graph) (*Plan, error) {
	if len(ps) == 1 {
		return Prepare(ps[0], g)
	}
	pl := &Plan{parts: make([]*Plan, len(ps))}
	for i, p := range ps {
		part, err := Prepare(p, g)
		if err != nil {
			return nil, err
		}
		pl.parts[i] = part
		pl.stats.Add(part.stats)
	}
	return pl, nil
}

// MatchUnion evaluates the union of ps over g without keeping a plan:
// each disjunct's plan is built inside the pool item that runs it, so
// the build phase runs in parallel too.
func MatchUnion(ps []*core.Pattern, g *graph.Graph, opts Options) (*core.AnswerSet, Stats, error) {
	if len(ps) == 1 {
		pl, err := Prepare(ps[0], g)
		if err != nil {
			return nil, Stats{}, err
		}
		return pl.Run(opts)
	}
	return runUnion(len(ps), opts, func(i int) (*Plan, error) { return Prepare(ps[i], g) })
}

// Run enumerates answers over the prepared plan under opts. It is safe
// to call concurrently on one Plan: the compile-phase structures are
// frozen, and each Run works on its own shallow matcher copy and
// runtime state.
func (pl *Plan) Run(opts Options) (*core.AnswerSet, Stats, error) {
	if pl.parts != nil {
		return runUnion(len(pl.parts), opts, func(i int) (*Plan, error) { return pl.parts[i], nil })
	}
	if pl.empty {
		return core.NewAnswerSet(), pl.stats, nil
	}
	return enumerate(opts, pl.stats, func(out *core.AnswerSet, bud *budget) error {
		mc := *pl.m // shallow copy: compile structures shared read-only
		mc.opts = opts
		return mc.backtrack(out, bud)
	})
}

// CandidatePool returns the refined candidate pool for pattern vertex u,
// computed at Prepare time (sorted ascending; nil for provably-empty
// plans and for unions). Shared slice — read only. Callers use pool sizes and overlap
// to cost alternative execution strategies (the MQO tier's
// merge-vs-separate decision) without re-running the build phase.
func (pl *Plan) CandidatePool(u int) []graph.VID {
	if pl.empty || pl.m == nil || pl.m.cand == nil || u < 0 || u >= len(pl.m.cand) {
		return nil
	}
	return pl.m.cand[u]
}

// atomID interns an atomic condition as a BDD variable and compiles it to
// a closure with pre-interned symbol IDs (the paper's "additional OMCS
// entries" caching role: no string lookups or graph-name resolution happen
// during backtracking).
func (m *matcher) atomID(c core.Cond) int {
	if id, ok := m.atomIdx[c]; ok {
		return id
	}
	id := len(m.atomFns)
	m.atomIdx[c] = id
	vars := make([]int, 0, 2)
	for v := range core.Vars(c) {
		vars = append(vars, v)
	}
	sort.Ints(vars)
	m.atomVars = append(m.atomVars, vars)
	m.atomFns = append(m.atomFns, m.compileAtom(c))
	return id
}

// compileAtom builds the evaluation closure for one atomic condition.
func (m *matcher) compileAtom(c core.Cond) func(core.Mapping) bool {
	g := m.g
	lookup := func(name string) (symbols.ID, bool) {
		if name == core.Wildcard {
			return symbols.None, true
		}
		id := g.Symbols.Lookup(name)
		return id, id != symbols.None
	}
	never := func(core.Mapping) bool { return false }
	switch t := c.(type) {
	case core.LabelIs:
		id, ok := lookup(t.Label)
		if !ok {
			return never
		}
		x := t.X
		return func(mp core.Mapping) bool {
			v := mp[x]
			return v != core.Omitted && g.HasLabel(v, id)
		}
	case core.EdgeIs:
		id, ok := lookup(t.Label)
		if !ok {
			return never
		}
		x, y := t.X, t.Y
		if id == symbols.None { // wildcard label
			return func(mp core.Mapping) bool {
				vx, vy := mp[x], mp[y]
				return vx != core.Omitted && vy != core.Omitted && g.HasAnyEdge(vx, vy)
			}
		}
		return func(mp core.Mapping) bool {
			vx, vy := mp[x], mp[y]
			return vx != core.Omitted && vy != core.Omitted && g.HasEdge(vx, id, vy)
		}
	case core.EdgeExists:
		id, ok := lookup(t.Label)
		if !ok {
			return never
		}
		x, out := t.X, t.Out
		if id == symbols.None {
			return func(mp core.Mapping) bool {
				v := mp[x]
				if v == core.Omitted {
					return false
				}
				if out {
					return g.OutDegree(v) > 0
				}
				return g.InDegree(v) > 0
			}
		}
		return func(mp core.Mapping) bool {
			v := mp[x]
			if v == core.Omitted {
				return false
			}
			if out {
				return g.HasOutLabel(v, id)
			}
			return g.HasInLabel(v, id)
		}
	case core.SameAs:
		x, y := t.X, t.Y
		return func(mp core.Mapping) bool {
			vx, vy := mp[x], mp[y]
			return vx != core.Omitted && vx == vy
		}
	case core.IsOmitted:
		x := t.X
		return func(mp core.Mapping) bool {
			return mp[x] == core.Omitted
		}
	case core.AttrCmpConst:
		a := g.Symbols.Lookup(t.Attr)
		if a == symbols.None {
			return never
		}
		x, op, k := t.X, t.Op, t.C
		return func(mp core.Mapping) bool {
			v := mp[x]
			if v == core.Omitted {
				return false
			}
			val, ok := g.Attribute(v, a)
			return ok && op.Holds(val.Compare(k))
		}
	case core.AttrCmpAttr:
		ax, ay := g.Symbols.Lookup(t.AttrX), g.Symbols.Lookup(t.AttrY)
		if ax == symbols.None || ay == symbols.None {
			return never
		}
		x, y, op := t.X, t.Y, t.Op
		return func(mp core.Mapping) bool {
			vx, vy := mp[x], mp[y]
			if vx == core.Omitted || vy == core.Omitted {
				return false
			}
			valX, okx := g.Attribute(vx, ax)
			valY, oky := g.Attribute(vy, ay)
			return okx && oky && op.Holds(valX.Compare(valY))
		}
	default:
		// An atom added to core later stays correct, if slow.
		return func(mp core.Mapping) bool {
			return core.Eval(c, mp, g)
		}
	}
}

// toBDD compiles a condition tree into the shared BDD.
func (m *matcher) toBDD(c core.Cond) sbdd.Ref {
	switch t := c.(type) {
	case nil, core.True:
		return sbdd.True
	case core.And:
		return m.bdd.And(m.toBDD(t.L), m.toBDD(t.R))
	case core.Or:
		return m.bdd.Or(m.toBDD(t.L), m.toBDD(t.R))
	default:
		return m.bdd.Var(m.atomID(c))
	}
}

// addCond compiles a pruned condition into the shared BDD; a dead one is
// the constant false, decided once extraVars are mapped.
func (m *matcher) addCond(kind condKind, owner int, c core.Cond, st pruned, extraVars ...int) int {
	ref := sbdd.False
	if st != dead {
		ref = m.toBDD(c)
	}
	seen := map[int]bool{}
	var vars []int
	add := func(v int) {
		if !seen[v] {
			seen[v] = true
			vars = append(vars, v)
		}
	}
	for v := range core.Vars(c) {
		add(v)
	}
	for _, v := range extraVars {
		add(v)
	}
	ci := len(m.conds)
	m.conds = append(m.conds, condInfo{kind: kind, owner: owner, ref: ref, vars: vars})
	return ci
}

// pruned is what prune left of a condition.
type pruned uint8

const (
	kept pruned = iota // every disjunct
	cut                // some disjuncts
	dead               // none: the condition holds under no mapping
)

// prune drops from c every disjunct that mentions a label absent from G:
// such an atom holds under no mapping, ⊥ or not, and so neither does a
// conjunction holding it. c itself comes back when nothing is dropped.
// Sound per plan because a plan is built against one graph snapshot and
// cached per epoch: a write that brings the label into G makes a new
// epoch, whose first query compiles afresh.
func (m *matcher) prune(c core.Cond) (core.Cond, pruned) {
	switch t := c.(type) {
	case core.LabelIs:
		return m.pruneAtom(c, t.Label, false)
	case core.EdgeIs:
		return m.pruneAtom(c, t.Label, true)
	case core.EdgeExists:
		return m.pruneAtom(c, t.Label, true)
	case core.And:
		l, sl := m.prune(t.L)
		if sl == dead {
			return nil, dead
		}
		r, sr := m.prune(t.R)
		switch {
		case sr == dead:
			return nil, dead
		case sl == kept && sr == kept:
			return c, kept
		}
		return core.And{L: l, R: r}, cut
	case core.Or:
		l, sl := m.prune(t.L)
		r, sr := m.prune(t.R)
		switch {
		case sl == dead && sr == dead:
			return nil, dead
		case sl == dead:
			return r, cut
		case sr == dead:
			return l, cut
		case sl == kept && sr == kept:
			return c, kept
		}
		return core.Or{L: l, R: r}, cut
	default: // nil, True, and the atoms over attributes, equality and ⊥
		return c, kept
	}
}

// pruneAtom is prune on one atom over label: dead when no vertex (or, for
// an edge atom, no edge) of G carries it.
func (m *matcher) pruneAtom(c core.Cond, label string, edge bool) (core.Cond, pruned) {
	if label == core.Wildcard {
		return c, kept
	}
	id := m.g.Symbols.Lookup(label)
	if edge && m.g.EdgeLabelFrequency(id) == 0 || !edge && m.g.LabelFrequency(id) == 0 {
		return nil, dead
	}
	return c, kept
}

// localAtoms returns the ids of the clause's atoms whose variables all
// lie in {a, b}.
func (m *matcher) localAtoms(clause []core.Cond, a, b int) []int {
	var ids []int
next:
	for _, c := range clause {
		id := m.atomID(c)
		for _, w := range m.atomVars[id] {
			if w != a && w != b {
				continue next
			}
		}
		ids = append(ids, id)
	}
	return ids
}

// compileConditions prunes every condition (prune) and compiles what is
// left: into the shared BDD, and into the per-candidate probes and edge
// indexes of the build phase. It reports false when that proves Q(G) = ∅:
// an edge that can never hold between two vertices that cannot be omitted.
func (m *matcher) compileConditions() bool {
	n := len(m.p.Vertices)
	m.canOmit = make([]bool, n)
	m.localClauses = make([][][]int, n)
	m.seedBuckets = make([][]symbols.ID, n)
	m.vertexMatchIdx = make([]int, n)
	m.vertexOmitIdx = make([]int, n)
	for u, v := range m.p.Vertices {
		m.vertexMatchIdx[u] = -1
		m.vertexOmitIdx[u] = -1
		match, st := m.prune(v.Match)
		if v.Match != nil {
			m.vertexMatchIdx[u] = m.addCond(condVertexMatch, u, match, st, u)
		}
		dnf := core.DNF(match) // nil without a condition
		if st == dead {
			dnf = [][]core.Cond{} // no clause: no candidate passes
		}
		if dnf != nil {
			m.localClauses[u] = make([][]int, len(dnf))
			for ci, clause := range dnf {
				m.localClauses[u][ci] = m.localAtoms(clause, u, u)
			}
		}
		m.seedBuckets[u] = m.bucketsOf(u, v.Label, dnf)
		// A vertex maps to ⊥ only under an omission condition that can
		// hold (a CQ vertex has none).
		omit, st := m.prune(v.Omit)
		m.canOmit[u] = v.Omit != nil && st != dead
		if m.canOmit[u] {
			m.vertexOmitIdx[u] = m.addCond(condVertexOmit, u, omit, st, u)
		}
	}

	m.edgeProbes = make([][]probe, len(m.p.Edges))
	m.edgeIndexab = make([]bool, len(m.p.Edges))
	m.pairClauses = make([][][]int, len(m.p.Edges))
	m.edgeCondIdx = make([]int, len(m.p.Edges))
	m.stats.PatternEdges = len(m.p.Edges)
	possible := true
	for ei, e := range m.p.Edges {
		cond := e.Match
		if cond == nil {
			cond = core.EdgeIs{X: e.From, Y: e.To, Label: e.Label}
		}
		cond, st := m.prune(cond)
		m.edgeCondIdx[ei] = m.addCond(condEdgeMatch, ei, cond, st, e.From, e.To)
		if st == dead && !m.canOmit[e.From] && !m.canOmit[e.To] {
			possible = false
		}
		// Every clause left names only labels G has. A dead edge has none,
		// so it is indexable with no probe: its rows are empty, and a mapped
		// endpoint leaves the other only ⊥.
		clauses := core.DNF(cond)
		pairs := make([][]int, len(clauses))
		indexable := true
		// A self-loop's two slots of mini are one, so its walk proves less
		// than its pairwise check asks.
		proven := e.From != e.To
		seen := map[probe]bool{}
		var probes []probe
		for ci, clause := range clauses {
			pairs[ci] = m.localAtoms(clause, e.From, e.To)
			found := false
			for _, a := range clause {
				pe, ok := a.(core.EdgeIs)
				if !ok {
					continue
				}
				var pr probe
				switch {
				case pe.X == e.From && pe.Y == e.To:
					pr = probe{forward: true}
				case pe.X == e.To && pe.Y == e.From:
					pr = probe{forward: false}
				default:
					continue
				}
				if pe.Label != core.Wildcard {
					pr.label = m.g.Symbols.Lookup(pe.Label)
				}
				found = true
				if !seen[pr] {
					seen[pr] = true
					probes = append(probes, pr)
				}
			}
			if !found {
				// Some disjunct does not pin a data edge between the
				// endpoints: candidate partners cannot be enumerated from
				// adjacency. The edge is checked purely as a condition.
				indexable = false
			}
			proven = proven && found && len(pairs[ci]) == 1
		}
		m.edgeProbes[ei] = probes
		m.edgeIndexab[ei] = indexable
		if indexable {
			m.stats.IndexedEdges++
		}
		if !proven {
			m.pairClauses[ei] = pairs
		}
	}

	m.condsOf = make([][]int, n)
	for ci, c := range m.conds {
		for _, v := range c.vars {
			m.condsOf[v] = append(m.condsOf[v], ci)
		}
	}
	return possible
}

// bucketsOf returns seedBuckets[u]: the vertex label's bucket, else that
// of the first LabelIs on u in each (pruned) clause. A vertex label absent
// from G has no vertices: its bucket is None.
func (m *matcher) bucketsOf(u int, label string, dnf [][]core.Cond) []symbols.ID {
	if label != core.Wildcard {
		return []symbols.ID{m.g.Symbols.Lookup(label)}
	}
	if dnf == nil {
		return nil
	}
	buckets := make([]symbols.ID, 0, len(dnf))
clauses:
	for _, clause := range dnf {
		for _, a := range clause {
			if li, ok := a.(core.LabelIs); ok && li.X == u && li.Label != core.Wildcard {
				buckets = append(buckets, m.g.Symbols.Lookup(li.Label))
				continue clauses
			}
		}
		return nil // this clause pins no label
	}
	return buckets
}

// anyClause reports whether every listed atom of some clause holds under
// mini.
func (m *matcher) anyClause(clauses [][]int, mini core.Mapping) bool {
next:
	for _, clause := range clauses {
		for _, id := range clause {
			if !m.atomFns[id](mini) {
				continue next
			}
		}
		return true
	}
	return false
}

// localPass checks the vertex's local condition disjuncts on a single
// candidate. The vertex label is not re-checked: a labelled vertex is
// only ever seeded from its label's bucket.
func (m *matcher) localPass(u int, v graph.VID) bool {
	if m.localClauses[u] == nil {
		return true
	}
	mini := m.sc.mini
	mini[u] = v
	ok := m.anyClause(m.localClauses[u], mini)
	mini[u] = core.Omitted
	return ok
}

// seedFrom makes seed, filtered through localPass, the candidate pool of
// u. It reports false when that proves Q(G) = ∅.
func (m *matcher) seedFrom(u int, seed []graph.VID) bool {
	m.stats.SeedCandidates += len(seed)
	out := m.sc.pools[u][:0]
	for _, v := range seed {
		if m.localPass(u, v) {
			out = append(out, v)
		}
	}
	m.sc.pools[u], m.cand[u] = out, out
	if len(out) == 0 && !m.canOmit[u] {
		m.stats.EmptyCandSets++
		return false
	}
	return true
}

// drainSorted moves the members of bits, ascending, into the scratch's
// flat buffer and leaves bits empty.
func (m *matcher) drainSorted(bits *bitset.Set) []graph.VID {
	flat := m.sc.flat[:0]
	bits.ForEach(func(i uint32) bool {
		flat = append(flat, graph.VID(i))
		return true
	})
	bits.Reset()
	m.sc.flat = flat
	return flat
}

// seedPools gives every pattern vertex its initial candidate pool, the
// cheapest sound seed first so that refinement starts from small pools:
// (1) a vertex whose every clause pins a label takes the union of those
// label buckets; (2) while there is one, an unseeded vertex joined by an
// indexable edge that cannot be excused (an arc of refinement, see buildArcs)
// to a seeded partner of fewer than |V|/4 candidates takes the union of
// that partner's neighbour rows — refinement would cut it down to a
// subset of exactly that; (3) failing both, every vertex of G.
func (m *matcher) seedPools() bool {
	n, nv := len(m.p.Vertices), m.g.NumVertices()
	m.cand = make([][]graph.VID, n)
	seeded := make([]bool, n)
	left := n
	for u, b := range m.seedBuckets {
		if b == nil {
			continue
		}
		var seed []graph.VID
		if len(b) == 1 {
			seed = m.g.VerticesByLabel(b[0])
		} else {
			for _, l := range b {
				m.g.LabelBits(l, m.sc.inCand[u])
			}
			seed = m.drainSorted(m.sc.inCand[u])
		}
		if !m.seedFrom(u, seed) {
			return false
		}
		seeded[u] = true
		left--
	}
	for ; left > 0; left-- {
		u, via, partner := -1, -1, -1
		for ei, e := range m.p.Edges {
			if !m.edgeIndexab[ei] || m.canOmit[e.From] || m.canOmit[e.To] {
				continue
			}
			for _, end := range [2][2]int{{e.From, e.To}, {e.To, e.From}} {
				w := end[1]
				if !seeded[end[0]] && seeded[w] && len(m.cand[w]) < nv/4 &&
					(partner < 0 || len(m.cand[w]) < len(m.cand[partner])) {
					u, via, partner = end[0], ei, w
				}
			}
		}
		if u < 0 {
			for u = 0; seeded[u]; u++ {
			}
			m.sc.flat = m.sc.flat[:0]
			for v := 0; v < nv; v++ {
				m.sc.flat = append(m.sc.flat, graph.VID(v))
			}
		} else {
			fromSide := partner == m.p.Edges[via].From
			for _, w := range m.cand[partner] {
				m.sc.nbrBuf = m.appendNeighborsVia(m.sc.nbrBuf[:0], via, w, fromSide)
				for _, v := range m.sc.nbrBuf {
					m.sc.inCand[u].Add(uint32(v))
				}
			}
			m.drainSorted(m.sc.inCand[u])
		}
		if !m.seedFrom(u, m.sc.flat) {
			return false
		}
		seeded[u] = true
	}
	return true
}

// buildOMDAG initializes candidates, collects dependency edges and computes
// a dependency-respecting BFS order.
func (m *matcher) buildOMDAG() bool {
	n := len(m.p.Vertices)
	if !m.seedPools() {
		return false
	}

	// Dependency parents: the vertices u's (pruned) conditions reference
	// (a condition-free CQ never has any).
	m.depParents = make([][]int, n)
	for u := 0; u < n; u++ {
		for _, ci := range [2]int{m.vertexMatchIdx[u], m.vertexOmitIdx[u]} {
			if ci < 0 {
				continue
			}
			for _, w := range m.conds[ci].vars {
				if w != u && !slices.Contains(m.depParents[u], w) {
					m.depParents[u] = append(m.depParents[u], w)
				}
			}
		}
	}

	// Structural adjacency for the BFS.
	adjV := make([][]int, n)
	deg := make([]int, n)
	for _, e := range m.p.Edges {
		adjV[e.From] = append(adjV[e.From], e.To)
		adjV[e.To] = append(adjV[e.To], e.From)
		deg[e.From]++
		deg[e.To]++
	}
	for u := 0; u < n; u++ {
		for _, w := range m.depParents[u] {
			adjV[u] = append(adjV[u], w)
			adjV[w] = append(adjV[w], u)
		}
	}

	// Root selection: prefer vertices without dependencies and with small
	// candidate sets relative to degree (paper BuildOMDAG step 2). On a
	// condition-free CQ the penalties are inert and this is exactly DAF's
	// root rule.
	root, bestScore := 0, float64(1<<62)
	for u := 0; u < n; u++ {
		d := deg[u]
		if d == 0 {
			d = 1
		}
		size := len(m.cand[u])
		if m.seedBuckets[u] == nil && m.localClauses[u] == nil {
			// Neither label nor condition of its own: the pool is only as
			// small as seedPools narrowed it through a partner. Weighed so,
			// an existential hub becomes the root and is enumerated before
			// any distinguished vertex; weigh it as unfiltered.
			size = m.g.NumVertices()
		}
		score := float64(size) / float64(d)
		if len(m.depParents[u]) > 0 {
			score *= 1e6
		}
		if m.canOmit[u] {
			score *= 4 // omittable roots enumerate ⊥ early, less selective
		}
		if score < bestScore {
			bestScore = score
			root = u
		}
	}

	// BFS order from the root over structural plus dependency adjacency.
	// Dependency edges influence the root choice and appear in the BFS
	// adjacency, but they do NOT gate the order: conditions are evaluated
	// exactly when their variables are mapped (remaining-variable counters
	// in the backtracker), which is order-independent. Hard-gating the
	// order on dependencies can force an omittable hub after its
	// unconstrained neighbors and destroy the matching order.
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	placed := 0
	var queue []int
	place := func(u int) {
		pos[u] = placed
		m.order = append(m.order, u)
		placed++
		queue = append(queue, u)
	}
	place(root)
	for placed < n {
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range adjV[u] {
				if pos[w] < 0 {
					place(w)
				}
			}
		}
		if placed == n {
			break
		}
		for u := 0; u < n; u++ { // disconnected piece: new BFS root
			if pos[u] < 0 {
				place(u)
				break
			}
		}
	}

	// Orient structural edges along the order.
	m.parentEdges = make([][]int, n)
	for ei, e := range m.p.Edges {
		de := dagEdge{edge: ei}
		if pos[e.From] <= pos[e.To] {
			de.parent, de.child = e.From, e.To
		} else {
			de.parent, de.child = e.To, e.From
		}
		idx := len(m.dagEdges)
		m.dagEdges = append(m.dagEdges, de)
		m.parentEdges[de.child] = append(m.parentEdges[de.child], idx)
	}
	return true
}

// appendNeighborsVia appends the partner candidates of v along pattern
// edge ei (v playing the From side iff fromSide) to dst and returns the
// extended slice. Partners are deduplicated across probes via the
// nbrSeen bitmap; the set bits are cleared by re-walking the appended
// range, so the cost stays proportional to the neighborhood, not |V|.
func (m *matcher) appendNeighborsVia(dst []graph.VID, ei int, v graph.VID, fromSide bool) []graph.VID {
	probes := m.edgeProbes[ei]
	// A single labeled probe yields unique partners already (frozen
	// adjacency is deduplicated per (label, To)): skip the bitmap.
	if len(probes) == 1 && probes[0].label != symbols.None {
		for _, h := range m.probeHalves(probes[0], v, fromSide) {
			dst = append(dst, h.To)
		}
		return dst
	}
	seen := m.sc.nbrSeen
	base := len(dst)
	for _, pr := range probes {
		for _, h := range m.probeHalves(pr, v, fromSide) {
			if !seen.Has(uint32(h.To)) {
				seen.Add(uint32(h.To))
				dst = append(dst, h.To)
			}
		}
	}
	for _, w := range dst[base:] {
		seen.Remove(uint32(w))
	}
	return dst
}

// probeHalves resolves one probe to the matching half-edge slice of v in
// the frozen graph (no copying; callers project h.To as they iterate).
func (m *matcher) probeHalves(pr probe, v graph.VID, fromSide bool) []graph.Half {
	// A forward probe runs From→To in the data graph.
	outgoing := pr.forward == fromSide
	if outgoing {
		if pr.label == symbols.None {
			return m.g.Out(v)
		}
		return m.g.OutByLabel(v, pr.label)
	}
	if pr.label == symbols.None {
		return m.g.In(v)
	}
	return m.g.InByLabel(v, pr.label)
}

// pairwiseOK checks the pairwise-local part of edge ei's condition for the
// candidate pair (atoms referencing third vertices are optimistic). Both
// builds pass only pairs from ei's neighbour walk, which is all that an
// edge without pairClauses asks.
func (m *matcher) pairwiseOK(ei int, vFrom, vTo graph.VID) bool {
	if m.pairClauses[ei] == nil {
		return true
	}
	e := &m.p.Edges[ei]
	mini := m.sc.mini
	mini[e.From], mini[e.To] = vFrom, vTo
	ok := m.anyClause(m.pairClauses[ei], mini)
	mini[e.From], mini[e.To] = core.Omitted, core.Omitted
	return ok
}

// buildArcs fills the scratch's arcs: two per indexable pattern edge
// that cannot be excused (neither end omittable; an edge with an
// omittable end may map to ⊥ and then constrains nothing), one per such
// self-loop.
func (m *matcher) buildArcs() {
	sc := m.sc
	sc.arcs = sc.arcs[:0]
	for ei, e := range m.p.Edges {
		if !m.edgeIndexab[ei] || m.canOmit[e.From] || m.canOmit[e.To] {
			continue
		}
		sc.arcs = append(sc.arcs, arc{u: e.From, far: e.To, edge: ei, fromSide: true})
		if e.From != e.To {
			sc.arcs = append(sc.arcs, arc{u: e.To, far: e.From, edge: ei})
		}
	}
}

// supported reports whether candidate v of a.u has a partner across a's
// edge: the first neighbour its probes reach that is in a.far's pool and
// passes pairwiseOK ends the walk.
func (m *matcher) supported(a arc, v graph.VID) bool {
	far := m.sc.inCand[a.far]
	for _, pr := range m.edgeProbes[a.edge] {
		for _, h := range m.probeHalves(pr, v, a.fromSide) {
			if !far.Has(uint32(h.To)) {
				continue
			}
			if a.fromSide && m.pairwiseOK(a.edge, v, h.To) || !a.fromSide && m.pairwiseOK(a.edge, h.To, v) {
				return true
			}
		}
	}
	return false
}

// revise drops every candidate of a.u that has no partner across a and
// reports whether it dropped any.
func (m *matcher) revise(a arc) bool {
	pool, bits := m.cand[a.u], m.sc.inCand[a.u]
	out := pool[:0]
	for _, v := range pool {
		if m.supported(a, v) {
			out = append(out, v)
		} else {
			bits.Remove(uint32(v))
		}
	}
	m.cand[a.u] = out
	return len(out) < len(pool)
}

// refine runs the arc worklist to its fixpoint (AC-3): every arc starts
// queued, in pattern edge order; a revision that drops candidates of u
// queues again every arc whose far end is u, except the reverse arc of
// the same non-loop edge, whose support the dropped candidates never
// gave. It reports false when a pool empties, which proves Q(G) = ∅ (only
// vertices that cannot be omitted have arcs).
func (m *matcher) refine() bool {
	m.buildArcs()
	sc := m.sc
	arcs := sc.arcs
	if cap(sc.queue) < len(arcs) {
		sc.queue, sc.queued = make([]int, len(arcs)), make([]bool, len(arcs))
	}
	queue, queued := sc.queue[:len(arcs)], sc.queued[:len(arcs)]
	for ai := range arcs {
		queue[ai], queued[ai] = ai, true
	}
	for head, size := 0, len(arcs); size > 0; {
		ai := queue[head]
		head, size = (head+1)%len(arcs), size-1
		queued[ai] = false
		m.stats.Revisions++
		a := arcs[ai]
		if !m.revise(a) {
			continue
		}
		if len(m.cand[a.u]) == 0 {
			m.stats.EmptyCandSets++
			return false
		}
		for bi, b := range arcs {
			if b.far != a.u || queued[bi] || b.edge == a.edge && a.u != a.far {
				continue
			}
			queue[(head+size)%len(arcs)], queued[bi] = bi, true
			size++
		}
	}
	return true
}

// buildOMCS refines candidate sets (refine) and materializes per-DAG-edge
// adjacency. Edges with an omittable endpoint never prune (they may be
// excused), keeping OMCS sound (paper Section V-B). Candidate-set membership lives
// in word-packed bitmaps (one probe = shift + mask) and the adjacency is
// CSR over the sorted candidate pools.
func (m *matcher) buildOMCS() bool {
	n := len(m.p.Vertices)
	inCand := m.sc.inCand[:n]
	for u := 0; u < n; u++ {
		for _, v := range m.cand[u] {
			inCand[u].Add(uint32(v))
		}
	}
	if !m.refine() {
		return false
	}
	for u := 0; u < n; u++ {
		m.stats.CSCandidates += len(m.cand[u])
	}

	// Materialize CSR adjacency for indexable DAG edges: one offset row
	// per (sorted) parent candidate into a flat per-edge pool, each row
	// sorted ascending.
	m.adjStart = make([][]uint32, len(m.dagEdges))
	m.adjItems = make([][]graph.VID, len(m.dagEdges))
	for di, de := range m.dagEdges {
		if !m.edgeIndexab[de.edge] {
			continue
		}
		e := m.p.Edges[de.edge]
		fromSide := de.parent == e.From
		starts := make([]uint32, len(m.cand[de.parent])+1)
		items := m.sc.flat[:0]
		for pi, v := range m.cand[de.parent] {
			starts[pi] = uint32(len(items))
			segStart := len(items)
			m.sc.nbrBuf = m.appendNeighborsVia(m.sc.nbrBuf[:0], de.edge, v, fromSide)
			for _, w := range m.sc.nbrBuf {
				if !inCand[de.child].Has(uint32(w)) {
					continue
				}
				var okPair bool
				if fromSide {
					okPair = m.pairwiseOK(de.edge, v, w)
				} else {
					okPair = m.pairwiseOK(de.edge, w, v)
				}
				if okPair {
					items = append(items, w)
				}
			}
			if seg := items[segStart:]; !vidsSorted(seg) {
				slices.Sort(seg)
			}
		}
		starts[len(m.cand[de.parent])] = uint32(len(items))
		m.adjStart[di] = starts
		m.adjItems[di] = append(make([]graph.VID, 0, len(items)), items...)
		m.sc.flat = items
		m.stats.AdjPairs += len(items)
	}
	return true
}

// adjRow returns the CSR adjacency row of DAG edge di for parent value
// pv, located by binary search over the sorted parent candidate pool.
// Assigned parents always come from that pool, so the search hits; a
// miss (possible only on foreign input) reads as an empty row.
func (m *matcher) adjRow(di int, pv graph.VID) []graph.VID {
	cand := m.cand[m.dagEdges[di].parent]
	i := searchVID(cand, pv)
	if i >= len(cand) || cand[i] != pv {
		return nil
	}
	starts := m.adjStart[di]
	return m.adjItems[di][starts[i]:starts[i+1]]
}
