package engine

import (
	"time"

	"ogpa/internal/bitset"
	"ogpa/internal/core"
	"ogpa/internal/graph"
	"ogpa/internal/sbdd"
)

// runtime is the per-worker state of OMBacktrack. Every field is owned by
// exactly one goroutine; the only shared state it touches is the budget
// (atomics), the optional result gate (mutex-guarded) and the matcher's
// frozen compile-phase structures (read-only after buildOMCS).
type runtime struct {
	m       *matcher
	mapping core.Mapping // Omitted doubles as "unmapped"; see mapped flags
	mapped  []bool
	// remaining[ci]: number of still-unmapped variables of condition ci;
	// a condition is decided exactly when its counter hits zero.
	remaining []int
	out       *core.AnswerSet
	bud       *budget
	gate      *resultGate // nil unless fanned out with MaxResults
	cache     *sbdd.EvalCache
	atomEvals int64
	// evalFn / partialFn are the BDD atom-evaluation callbacks, built once
	// per runtime: passing a fresh closure on every checkCond/earlyReject
	// call allocates on the hot path.
	evalFn    func(atom int) bool
	partialFn func(atom int) (bool, bool)
	// candBuf[u] is u's scratch buffer for candidate-list intersections.
	// candidates(u) is only consulted while u is unmapped, and u stays
	// mapped for the whole subtree beneath it, so deeper frames never
	// clobber a buffer a shallower frame is still iterating.
	candBuf [][]graph.VID
	// used / usedMine implement the Injective capability (subgraph
	// isomorphism): used marks data vertices currently claimed by some
	// pattern vertex, usedMine[u] records whether u's own assignment set
	// the bit (a clashing assign must not clear a bit it did not set).
	// Both are nil when the plan is homomorphic.
	used     *bitset.Set
	usedMine []bool
	// steps is the local tick count since the last flush to the shared
	// budget; base is the global total as of that flush. Batching keeps
	// the per-node hot path off the shared cache line — a naive
	// bud.steps.Add(1) per tick makes the parallel pool slower than
	// sequential from contention alone.
	steps int64
	base  int64
}

// stepFlush is how many local ticks a runtime accumulates before
// flushing to the shared budget (and re-checking deadline/stop). It
// bounds MaxSteps overshoot at workers*stepFlush and cancellation
// latency at stepFlush nodes.
const stepFlush = 256

// newRuntime builds a fresh runtime over m's frozen structures.
func (m *matcher) newRuntime(out *core.AnswerSet, bud *budget, gate *resultGate) *runtime {
	rt := &runtime{
		m:         m,
		mapping:   make(core.Mapping, len(m.p.Vertices)),
		mapped:    make([]bool, len(m.p.Vertices)),
		remaining: make([]int, len(m.conds)),
		out:       out,
		bud:       bud,
		gate:      gate,
		cache:     sbdd.NewEvalCache(),
	}
	for i := range rt.mapping {
		rt.mapping[i] = core.Omitted
	}
	for ci, c := range m.conds {
		rt.remaining[ci] = len(c.vars)
	}
	rt.candBuf = make([][]graph.VID, len(m.p.Vertices))
	if m.opts.Caps.Injective {
		rt.used = bitset.New(m.g.NumVertices())
		rt.usedMine = make([]bool, len(m.p.Vertices))
	}
	rt.evalFn = func(atom int) bool {
		return rt.evalAtom(atom, rt.mapping)
	}
	rt.partialFn = func(atom int) (bool, bool) {
		for _, w := range rt.m.atomVars[atom] {
			if !rt.mapped[w] {
				return false, false
			}
		}
		return rt.evalAtom(atom, rt.mapping), true
	}
	return rt
}

// tick charges one enumeration step against the shared budget.
func (rt *runtime) tick() error {
	rt.steps++
	if rt.bud.maxSteps > 0 && rt.base+rt.steps > rt.bud.maxSteps {
		rt.flushSteps()
		if rt.base > rt.bud.maxSteps {
			return ErrLimit
		}
	}
	if rt.steps >= stepFlush {
		rt.flushSteps()
		if !rt.bud.deadline.IsZero() && time.Now().After(rt.bud.deadline) {
			return ErrLimit
		}
		if rt.bud.ctx != nil && rt.bud.ctx.Err() != nil {
			return errCanceled
		}
		if rt.bud.stop.Load() {
			return errStopped
		}
	}
	return nil
}

// flushSteps publishes the local tick count to the shared budget and
// refreshes the global snapshot. Callers must flush once more when a
// runtime retires so Stats.Steps is exact.
func (rt *runtime) flushSteps() {
	rt.base = rt.bud.steps.Add(rt.steps)
	rt.steps = 0
}

// evalAtom evaluates atomic condition id under the current mapping via its
// precompiled closure.
func (rt *runtime) evalAtom(id int, mapping core.Mapping) bool {
	rt.atomEvals++
	return rt.m.atomFns[id](mapping)
}

// emit records the completed mapping as an answer. It returns ErrLimit
// (sequential) or errStopped (parallel) once MaxResults distinct answers
// exist, so the enumeration unwinds.
func (rt *runtime) emit() error {
	a := core.Project(rt.m.p, rt.mapping)
	isNew := rt.out.Add(a)
	if rt.gate != nil {
		if isNew {
			rt.gate.record(a.Key())
		}
		if rt.bud.stop.Load() {
			return errStopped
		}
		return nil
	}
	if rt.m.opts.Limits.MaxResults > 0 && rt.out.Len() >= rt.m.opts.Limits.MaxResults {
		return ErrLimit
	}
	return nil
}

// assign maps u (to a vertex or ⊥) and evaluates every condition this
// decides. Under the Injective capability it also claims the data vertex,
// failing on a clash. It reports false when a decided condition fails; the
// caller must still call unassign to roll the counters back.
func (rt *runtime) assign(u int, v graph.VID) bool {
	rt.mapping[u] = v
	rt.mapped[u] = true
	ok := true
	if rt.used != nil && v != core.Omitted {
		if rt.used.Has(uint32(v)) {
			ok = false
			rt.usedMine[u] = false
		} else {
			rt.used.Add(uint32(v))
			rt.usedMine[u] = true
		}
	}
	for _, ci := range rt.m.condsOf[u] {
		rt.remaining[ci]--
		if ok && rt.remaining[ci] == 0 && !rt.checkCond(ci) {
			ok = false
		}
	}
	return ok
}

func (rt *runtime) unassign(u int) {
	if rt.used != nil && rt.usedMine[u] {
		rt.used.Remove(uint32(rt.mapping[u]))
		rt.usedMine[u] = false
	}
	for _, ci := range rt.m.condsOf[u] {
		rt.remaining[ci]++
	}
	rt.mapping[u] = core.Omitted
	rt.mapped[u] = false
}

// checkCond evaluates a fully-decided condition through the shared BDD.
func (rt *runtime) checkCond(ci int) bool {
	c := rt.m.conds[ci]
	switch c.kind {
	case condVertexMatch:
		if rt.mapping[c.owner] == core.Omitted {
			return true // owner omitted: the omission condition governs
		}
	case condVertexOmit:
		if rt.mapping[c.owner] != core.Omitted {
			return true // owner matched: the matching condition governs
		}
	case condEdgeMatch:
		e := rt.m.p.Edges[c.owner]
		if rt.mapping[e.From] == core.Omitted || rt.mapping[e.To] == core.Omitted {
			return true // edge excused by an omitted endpoint
		}
	}
	return rt.m.bdd.Eval(c.ref, rt.evalFn)
}

// earlyReject uses partial BDD evaluation to kill branches whose
// already-applicable conditions are forced false.
func (rt *runtime) earlyReject(u int) bool {
	for _, ci := range rt.m.condsOf[u] {
		c := rt.m.conds[ci]
		if rt.remaining[ci] == 0 {
			continue // already decided by checkCond
		}
		switch c.kind {
		case condVertexMatch:
			if !rt.mapped[c.owner] || rt.mapping[c.owner] == core.Omitted {
				continue
			}
		case condVertexOmit:
			if !rt.mapped[c.owner] || rt.mapping[c.owner] != core.Omitted {
				continue
			}
		case condEdgeMatch:
			e := rt.m.p.Edges[c.owner]
			if !rt.mapped[e.From] || !rt.mapped[e.To] {
				continue
			}
			if rt.mapping[e.From] == core.Omitted || rt.mapping[e.To] == core.Omitted {
				continue
			}
		}
		val, known := rt.m.bdd.EvalPartialCached(c.ref, rt.cache, rt.partialFn)
		if known && !val {
			return true
		}
	}
	return false
}

// candidates returns the viable candidates of u under the current partial
// mapping: the intersection of CS adjacency lists from mapped (non-⊥)
// structural parents, or the refined candidate set when no such parent
// constrains u.
func (rt *runtime) candidates(u int) []graph.VID {
	m := rt.m
	var base []graph.VID
	first := true
	for _, di := range m.parentEdges[u] {
		de := m.dagEdges[di]
		if m.adjStart[di] == nil { // non-indexable edge: handled as a condition
			continue
		}
		if !rt.mapped[de.parent] || rt.mapping[de.parent] == core.Omitted {
			continue
		}
		vs := m.adjRow(di, rt.mapping[de.parent])
		if len(vs) == 0 {
			return nil // only ⊥ remains possible (if u is omittable)
		}
		if first {
			// One constraining parent: serve its CSR row directly, no copy.
			base = vs
			first = false
			continue
		}
		// Further parents intersect into u's scratch buffer. On the first
		// intersection base is a CSR row; afterwards base IS the scratch
		// buffer, and intersectInto's write-behind-read discipline makes
		// the in-place narrowing safe.
		merged := intersectInto(rt.candBuf[u][:0], base, vs)
		rt.candBuf[u] = merged[:0]
		base = merged
		if len(base) == 0 {
			return nil
		}
	}
	if first {
		return m.cand[u]
	}
	return base
}

// pickNext selects the next vertex to assign.
func (rt *runtime) pickNext() int {
	m := rt.m
	if m.opts.Order == OrderStaticBFS {
		for _, u := range m.order {
			if !rt.mapped[u] {
				return u
			}
		}
		return -1
	}
	best, bestScore := -1, 1<<62
	for _, u := range m.order {
		if rt.mapped[u] {
			continue
		}
		ready := true
		for _, di := range m.parentEdges[u] {
			if !rt.mapped[m.dagEdges[di].parent] {
				ready = false
				break
			}
		}
		if !ready {
			continue
		}
		score := len(rt.candidates(u))
		if m.canOmit[u] {
			score++ // the ⊥ branch
		}
		if score < bestScore {
			bestScore = score
			best = u
		}
	}
	if best < 0 {
		// Dependency cycle stalled the frontier: fall back to the first
		// unmapped vertex in order (conditions are still checked when
		// decided, so correctness is unaffected).
		for _, u := range m.order {
			if !rt.mapped[u] {
				return u
			}
		}
	}
	return best
}

// allRemainingExistential reports whether every unmapped vertex is
// non-distinguished: the projected answer tuple is then fully determined,
// and only the *existence* of a completion matters.
func (rt *runtime) allRemainingExistential() bool {
	for u, v := range rt.m.p.Vertices {
		if v.Distinguished && !rt.mapped[u] {
			return false
		}
	}
	return true
}

// try assigns u := v, prunes, recurses and rolls back — one branch of the
// search. fanOut calls it at depth 0 for first-level work items, so the
// parallel subtrees are explored exactly as the sequential loop would; the
// mapping is empty again on return, so a worker reuses one runtime.
func (rt *runtime) try(u int, v graph.VID, depth int) error {
	ok := rt.assign(u, v)
	if ok && v != core.Omitted && !rt.m.opts.DisableEarlyReject {
		// Structural DAG edges whose child was mapped earlier than this
		// parent (possible under forced orders) are covered by the edge
		// conditions, which assign() just checked. Early rejection via
		// partial evaluation prunes deeper work.
		ok = !rt.earlyReject(u)
	}
	var err error
	if ok {
		err = rt.rec(depth + 1)
	}
	rt.unassign(u)
	return err
}

func (rt *runtime) rec(depth int) error {
	m := rt.m
	if err := rt.tick(); err != nil {
		return err
	}
	if depth == len(m.p.Vertices) {
		return rt.emit()
	}
	// Existential completion: once every distinguished vertex is assigned,
	// the answer tuple is fixed — find one completion and stop, instead of
	// enumerating the cross product of existential witnesses.
	if depth > 0 && !m.opts.DisableExistentialCompletion && rt.allRemainingExistential() {
		found, err := rt.exists(depth)
		if err != nil {
			return err
		}
		if found {
			return rt.emit()
		}
		return nil
	}
	u := rt.pickNext()
	if u < 0 {
		return nil
	}

	for _, v := range rt.candidates(u) {
		if err := rt.try(u, v, depth); err != nil {
			return err
		}
	}
	if m.canOmit[u] {
		if err := rt.try(u, core.Omitted, depth); err != nil {
			return err
		}
	}
	return nil
}

// exists searches for any one completion of the existential remainder.
func (rt *runtime) exists(depth int) (bool, error) {
	m := rt.m
	if err := rt.tick(); err != nil {
		return false, err
	}
	if depth == len(m.p.Vertices) {
		return true, nil
	}
	u := rt.pickNext()
	if u < 0 {
		return false, nil
	}
	// ⊥ first: for omittable witnesses it is the cheapest completion.
	if m.canOmit[u] {
		found, err := rt.tryExists(u, core.Omitted, depth)
		if err != nil || found {
			return found, err
		}
	}
	for _, v := range rt.candidates(u) {
		found, err := rt.tryExists(u, v, depth)
		if err != nil || found {
			return found, err
		}
	}
	return false, nil
}

// tryExists is try for the existential-completion search: assign, prune,
// recurse for any one witness, roll back. A method rather than a closure
// inside exists so the hot path does not allocate one per node.
func (rt *runtime) tryExists(u int, v graph.VID, depth int) (bool, error) {
	ok := rt.assign(u, v)
	if ok && v != core.Omitted && !rt.m.opts.DisableEarlyReject {
		ok = !rt.earlyReject(u)
	}
	var found bool
	var err error
	if ok {
		found, err = rt.exists(depth + 1)
	}
	rt.unassign(u)
	return found, err
}
