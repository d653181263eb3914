package datalog

import "slices"

// The join kernel. Every datalog join (a rule firing in the semi-naive
// loop, DRed's overestimate and rederivation check, a conjunctive query
// and a residual disjunct) runs through one compiled plan: the body's
// atoms over integer variable slots. A binding is one []string of slots
// written in place, so trying a candidate tuple allocates nothing.
//
// The join order is chosen as the join runs: at each level the next
// atom is the one with the fewest candidates under the binding so far,
// counted exactly from the relations (one dedup-key lookup when every
// position is bound, else the shortest positional index list of a bound
// position, else the whole relation). An atom with no candidate ends the
// branch at once. So a seed that binds a hub constant never scans the
// hub's fan-in while another atom is cheaper, which a fixed order chosen
// before the data is known cannot promise.

// joinArg is one argument position of a compiled atom.
type joinArg struct {
	slot int    // variable slot, or -1 for a constant
	con  string // the constant, when slot < 0
}

// value is the argument's current value under slots; only meaningful
// for constants and bound slots.
func (g joinArg) value(slots []string) string {
	if g.slot < 0 {
		return g.con
	}
	return slots[g.slot]
}

// joinAtom is one body atom of a plan.
type joinAtom struct {
	pred string
	args []joinArg
	// bind marks, per position, whether matching writes its slot (the
	// slot is free when the atom is joined; a variable repeated in the
	// atom binds at its first position and is compared at the rest). It
	// is set when the atom is joined and holds while its level runs:
	// an atom is joined at most once per branch.
	bind []bool
	key  Tuple // scratch for the dedup-key lookup
}

// claim sets a.bind from the slots bound so far and marks a's free slots
// bound.
func (a *joinAtom) claim(bound []bool) {
	for i, g := range a.args {
		a.bind[i] = g.slot >= 0 && !bound[g.slot]
		if a.bind[i] {
			bound[g.slot] = true
		}
	}
}

// release frees the slots claim marked.
func (a *joinAtom) release(bound []bool) {
	for i, g := range a.args {
		if a.bind[i] {
			bound[g.slot] = false
		}
	}
}

// match unifies t with the atom under slots: a binding position writes
// its slot, any other must equal its constant or bound slot.
func (a *joinAtom) match(t Tuple, slots []string) bool {
	for i, g := range a.args {
		switch {
		case a.bind[i]:
			slots[g.slot] = t[i]
		case t[i] != g.value(slots):
			return false
		}
	}
	return true
}

// plan is one compiled body. A rule's plan for a semi-naive delta
// position has that atom as its seed, matched against a given tuple
// before the join runs; so has a rederivation check, with the rule's
// head as seed. A query's plan has no seed.
//
// A plan carries its own scratch binding, so one plan serves one
// goroutine at a time.
type plan struct {
	pred   string    // head predicate
	head   []joinArg // head arguments
	seed   *joinAtom
	atoms  []joinAtom // the rest of the body, in body order
	joined []bool     // per atom: joined on the current branch
	slots  []string
	bound  []bool      // per slot: bound on the current branch
	rels   []*Relation // atoms' relations, resolved per run
	out    Tuple       // head tuple scratch
}

// compile builds the plan of head :- seed, body...
func compile(head Atom, seed *Atom, body []Atom) *plan {
	p := &plan{pred: head.Pred, atoms: make([]joinAtom, len(body))}
	slot := map[string]int{}
	args := func(ts []Term) []joinArg {
		out := make([]joinArg, len(ts))
		for i, t := range ts {
			if !t.Var {
				out[i] = joinArg{slot: -1, con: t.Name}
				continue
			}
			s, ok := slot[t.Name]
			if !ok {
				s = len(slot)
				slot[t.Name] = s
			}
			out[i] = joinArg{slot: s}
		}
		return out
	}
	atom := func(a Atom) joinAtom {
		return joinAtom{pred: a.Pred, args: args(a.Args), bind: make([]bool, len(a.Args)), key: make(Tuple, len(a.Args))}
	}
	if seed != nil {
		sa := atom(*seed)
		p.seed = &sa
	}
	for i, a := range body {
		p.atoms[i] = atom(a)
	}
	p.head = args(head.Args) // a variable not in the body stays "" and is never bound
	p.joined = make([]bool, len(body))
	p.slots = make([]string, len(slot))
	p.bound = make([]bool, len(slot))
	p.rels = make([]*Relation, len(body))
	p.out = make(Tuple, len(head.Args))
	return p
}

// compileRules compiles every rule once per body position, with that
// atom as the semi-naive delta (the seed). Plans come in rule order.
func compileRules(rules []Rule) []*plan {
	var out []*plan
	for _, r := range rules {
		for di := range r.Body {
			out = append(out, compile(r.Head, &r.Body[di], slices.Delete(slices.Clone(r.Body), di, di+1)))
		}
	}
	return out
}

// compileDerivations compiles every rule with its head as the seed: run
// on a fact, the plan reports whether the rule derives it in one step.
func compileDerivations(rules []Rule) []*plan {
	out := make([]*plan, len(rules))
	for i, r := range rules {
		out[i] = compile(r.Head, &r.Head, r.Body)
	}
	return out
}

// queryPlan compiles the conjunctive query head :- body.
func queryPlan(head []string, body []Atom) *plan {
	return compile(Atom{Pred: "_q", Args: varTerms(head)}, nil, body)
}

// run calls emit once per match of the plan's body over db (seeded with
// t when the plan has a seed), with the plan's binding in place; once
// every head slot is bound, the rest of a branch stops at its first
// match (a semi-join). It reports whether any match was found. An error
// from emit ends the run.
func (p *plan) run(db *Database, t Tuple, emit func(*plan) error) (bool, error) {
	for i := range p.atoms {
		r := db.Lookup(p.atoms[i].pred, len(p.atoms[i].args))
		if r == nil {
			return false, nil
		}
		p.rels[i] = r
	}
	clear(p.bound)
	if p.seed != nil {
		if len(t) != len(p.seed.args) {
			return false, nil
		}
		p.seed.claim(p.bound)
		if !p.seed.match(t, p.slots) {
			return false, nil
		}
	}
	return p.join(len(p.atoms), emit)
}

// candidates counts the tuples of atom i's relation that may match under
// the current binding. With every position bound they are at most one,
// found by dedup key (one ≥ 0); else they are the shortest index list
// of a bound position (list), else the whole relation (both unset).
func (p *plan) candidates(i int) (n int, list []int, one int) {
	a, rel := &p.atoms[i], p.rels[i]
	free, probed := false, false
	for k, g := range a.args {
		if g.slot >= 0 && !p.bound[g.slot] {
			free = true
			continue
		}
		a.key[k] = g.value(p.slots)
	}
	if !free {
		if one = rel.find(a.key); one < 0 {
			return 0, nil, -1
		}
		return 1, nil, one
	}
	for k, g := range a.args {
		if g.slot >= 0 && !p.bound[g.slot] {
			continue
		}
		l := rel.position(k)[a.key[k]]
		if !probed || len(l) < len(list) {
			list, probed = l, true
		}
		if len(l) == 0 {
			return 0, nil, -1
		}
	}
	if probed {
		return len(list), list, -1
	}
	return len(rel.tuples), nil, -1
}

// join extends the binding over the left atoms not yet joined, taking
// next the one with the fewest candidates (ties: body order).
func (p *plan) join(left int, emit func(*plan) error) (bool, error) {
	if left == 0 {
		return true, emit(p)
	}
	next, n, list, one := -1, 0, []int(nil), -1
	for i := range p.atoms {
		if p.joined[i] {
			continue
		}
		c, l, o := p.candidates(i)
		if c == 0 {
			return false, nil
		}
		if next < 0 || c < n {
			next, n, list, one = i, c, l, o
		}
	}
	witness := p.headBound() // every answer slot bound: one match below suffices
	a, rel := &p.atoms[next], p.rels[next]
	p.joined[next] = true
	a.claim(p.bound)
	found := false
	var err error
	for k := 0; k < n; k++ {
		ti := k
		switch {
		case one >= 0:
			ti = one
		case list != nil:
			ti = list[k]
		}
		if !a.match(rel.tuples[ti], p.slots) {
			continue
		}
		var ok bool
		if ok, err = p.join(left-1, emit); err != nil {
			break
		}
		if ok {
			found = true
			if witness {
				break
			}
		}
	}
	a.release(p.bound)
	p.joined[next] = false
	return found, err
}

// headBound reports whether every variable of the head is bound.
func (p *plan) headBound() bool {
	for _, g := range p.head {
		if g.slot >= 0 && !p.bound[g.slot] {
			return false
		}
	}
	return true
}

// headTuple instantiates the head under the current binding into the
// plan's scratch tuple; callers copy it to keep it.
func (p *plan) headTuple() Tuple {
	for i, g := range p.head {
		p.out[i] = g.value(p.slots)
	}
	return p.out
}

// answerSet collects distinct tuples. Kept tuples are cut from a shared
// slab, so an answer costs no allocation of its own.
type answerSet struct {
	last   map[uint64]int32 // hash → index+1 of the last tuple with it
	chain  []int32          // parallel to tuples: previous index with the same hash, or -1
	tuples []Tuple
	slab   []string
}

// add keeps a copy of t unless an equal tuple is already kept.
func (s *answerSet) add(t Tuple) {
	if s.last == nil {
		s.last = map[uint64]int32{}
	}
	h := tupleHash(t)
	for i := s.last[h] - 1; i >= 0; i = s.chain[i] {
		if slices.Equal(s.tuples[i], t) {
			return
		}
	}
	if cap(s.slab)-len(s.slab) < len(t) {
		s.slab = make([]string, 0, max(1024, 2*cap(s.slab), len(t)))
	}
	n := len(s.slab)
	s.slab = append(s.slab, t...)
	s.chain = append(s.chain, s.last[h]-1)
	s.last[h] = int32(len(s.tuples) + 1)
	s.tuples = append(s.tuples, Tuple(s.slab[n:len(s.slab):len(s.slab)]))
}

// collect adds the head tuple of every match of the query plan p over db;
// an empty body matches nothing.
func (p *plan) collect(db *Database, s *answerSet) error {
	if len(p.atoms) == 0 {
		return nil
	}
	_, err := p.run(db, nil, func(p *plan) error {
		s.add(p.headTuple())
		return nil
	})
	return err
}

// sorted returns the kept tuples in the canonical row order
// (core.SortRows's), or nil when there are none.
func (s *answerSet) sorted() []Tuple {
	slices.SortFunc(s.tuples, slices.Compare[Tuple])
	return s.tuples
}
