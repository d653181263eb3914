package datalog

import (
	"maps"
	"slices"
)

// The join kernel. Every datalog join (a rule firing in the semi-naive
// loop, DRed's overestimate and rederivation check, a conjunctive query
// and a residual disjunct) runs through one compiled plan: the body's
// atoms over integer variable slots, in join order, each atom knowing
// which of its positions are bound by the time it is reached. A binding
// is one []string of slots written in place, so trying a candidate tuple
// allocates nothing.

// joinArg is one argument position of a compiled atom.
type joinArg struct {
	slot int    // variable slot, or -1 for a constant
	con  string // the constant, when slot < 0
	bind bool   // the slot's first occurrence in join order: written, not compared
}

// value is the argument's current value under slots; only meaningful
// for constants and slots bound earlier.
func (g joinArg) value(slots []string) string {
	if g.slot < 0 {
		return g.con
	}
	return slots[g.slot]
}

// joinAtom is one body atom of a plan.
type joinAtom struct {
	pred  string
	args  []joinArg
	probe []int // positions bound before the atom; their shortest index list is scanned (none: the whole relation)
}

// match unifies t with the atom under slots: a constant or a slot bound
// earlier must equal its cell, a binding position writes its slot.
func (a *joinAtom) match(t Tuple, slots []string) bool {
	for i, g := range a.args {
		switch {
		case g.bind:
			slots[g.slot] = t[i]
		case t[i] != g.value(slots):
			return false
		}
	}
	return true
}

// plan is one compiled body. A rule's plan for a semi-naive delta
// position has that atom as its seed, matched against a given tuple
// before the steps run; so has a rederivation check, with the rule's
// head as seed. A query's plan has no seed.
//
// A plan carries its own scratch binding, so one plan serves one
// goroutine at a time.
type plan struct {
	pred  string    // head predicate
	head  []joinArg // head arguments
	seed  *joinAtom
	steps []joinAtom
	// exist is the first step after which every head slot is bound:
	// steps[exist:] only need a witness, so they stop at their first
	// match (a semi-join).
	exist int
	slots []string
	rels  []*Relation // steps' relations, resolved per run
	out   Tuple       // head tuple scratch
}

// compile builds the plan of head :- seed, steps..., joining the steps in
// the given order.
func compile(head Atom, seed *Atom, steps []Atom) *plan {
	p := &plan{pred: head.Pred, steps: make([]joinAtom, len(steps))}
	slot := map[string]int{}
	var boundAt []int // per slot: level that binds it (seed 0, steps[i] i+1), -1 if none
	atom := func(a Atom, level int) joinAtom {
		ja := joinAtom{pred: a.Pred, args: make([]joinArg, len(a.Args))}
		for i, t := range a.Args {
			if !t.Var {
				ja.args[i] = joinArg{slot: -1, con: t.Name}
				ja.probe = append(ja.probe, i)
				continue
			}
			s, ok := slot[t.Name]
			if !ok {
				s = len(boundAt)
				slot[t.Name] = s
				boundAt = append(boundAt, -1)
			}
			switch {
			case boundAt[s] < 0:
				boundAt[s] = level
				ja.args[i] = joinArg{slot: s, bind: true}
			case boundAt[s] < level:
				ja.args[i] = joinArg{slot: s}
				ja.probe = append(ja.probe, i)
			default: // repeated within this atom: compared after its first position writes it
				ja.args[i] = joinArg{slot: s}
			}
		}
		return ja
	}
	if seed != nil {
		sa := atom(*seed, 0)
		sa.probe = nil
		p.seed = &sa
	}
	for i, a := range steps {
		p.steps[i] = atom(a, i+1)
	}
	p.head = make([]joinArg, len(head.Args))
	for i, t := range head.Args {
		if !t.Var {
			p.head[i] = joinArg{slot: -1, con: t.Name}
			continue
		}
		s, ok := slot[t.Name]
		if !ok { // not in the body: stays "", and no step may stop early
			s = len(boundAt)
			slot[t.Name] = s
			boundAt = append(boundAt, len(steps))
		}
		p.head[i] = joinArg{slot: s}
		p.exist = max(p.exist, boundAt[s])
	}
	p.slots = make([]string, len(boundAt))
	p.rels = make([]*Relation, len(steps))
	p.out = make(Tuple, len(head.Args))
	return p
}

// order returns atoms in join order. The next atom is the one over the
// smallest relation in db among those sharing a variable with bound (or
// carrying a constant), or among all remaining atoms when none does;
// ties keep body order. With db nil every size ties, which leaves a
// connected-first order of the body.
func order(atoms []Atom, bound map[string]bool, db *Database) []Atom {
	size := func(a Atom) int {
		if db == nil {
			return 0
		}
		if r := db.Lookup(a.Pred); r != nil {
			return r.Len()
		}
		return 0
	}
	connected := func(a Atom) bool {
		for _, t := range a.Args {
			if !t.Var || bound[t.Name] {
				return true
			}
		}
		return false
	}
	rest := slices.Clone(atoms)
	out := make([]Atom, 0, len(atoms))
	for len(rest) > 0 {
		best, bestConn := 0, false
		for i, a := range rest {
			c := connected(a)
			if i == 0 || c && !bestConn || c == bestConn && size(a) < size(rest[best]) {
				best, bestConn = i, c
			}
		}
		a := rest[best]
		rest = slices.Delete(rest, best, best+1)
		out = append(out, a)
		maps.Copy(bound, vars(a))
	}
	return out
}

// compileRules compiles every rule once per body position, with that
// atom as the semi-naive delta (the seed) and the rest of the body after
// it in connected-first order. Plans come in rule order.
func compileRules(rules []Rule) []*plan {
	var out []*plan
	for _, r := range rules {
		for di := range r.Body {
			rest := slices.Delete(slices.Clone(r.Body), di, di+1)
			out = append(out, compile(r.Head, &r.Body[di], order(rest, vars(r.Body[di]), nil)))
		}
	}
	return out
}

// compileDerivations compiles every rule with its head as the seed: run
// on a fact, the plan reports whether the rule derives it in one step.
func compileDerivations(rules []Rule) []*plan {
	out := make([]*plan, len(rules))
	for i, r := range rules {
		out[i] = compile(r.Head, &r.Head, order(r.Body, vars(r.Head), nil))
	}
	return out
}

// vars is the set of a's variables.
func vars(a Atom) map[string]bool {
	out := map[string]bool{}
	for _, t := range a.Args {
		if t.Var {
			out[t.Name] = true
		}
	}
	return out
}

// queryPlan compiles the conjunctive query head :- body with its atoms
// ordered for db's current relation sizes.
func queryPlan(head []string, body []Atom, db *Database) *plan {
	return compile(Atom{Pred: "_q", Args: varTerms(head)}, nil, order(body, map[string]bool{}, db))
}

// run calls emit once per match of the plan's body over db (seeded with
// t when the plan has a seed), with the plan's binding in place; past
// p.exist the search stops at the first match. It reports whether any
// match was found. An error from emit ends the run.
func (p *plan) run(db *Database, t Tuple, emit func(*plan) error) (bool, error) {
	if p.seed != nil && (len(t) != len(p.seed.args) || !p.seed.match(t, p.slots)) {
		return false, nil
	}
	for i := range p.steps {
		r := db.Lookup(p.steps[i].pred)
		if r == nil || r.arity != len(p.steps[i].args) {
			return false, nil
		}
		p.rels[i] = r
	}
	return p.join(0, emit)
}

// join extends the binding over steps[d:].
func (p *plan) join(d int, emit func(*plan) error) (bool, error) {
	if d == len(p.steps) {
		return true, emit(p)
	}
	a, rel := &p.steps[d], p.rels[d]
	var list []int
	for k, i := range a.probe {
		l := rel.index[i][a.args[i].value(p.slots)]
		if k == 0 || len(l) < len(list) {
			list = l
		}
		if len(l) == 0 {
			return false, nil
		}
	}
	n := len(list)
	if a.probe == nil {
		n = len(rel.tuples)
	}
	found := false
	for k := 0; k < n; k++ {
		ti := k
		if a.probe != nil {
			ti = list[k]
		}
		if !a.match(rel.tuples[ti], p.slots) {
			continue
		}
		ok, err := p.join(d+1, emit)
		if err != nil {
			return found, err
		}
		if ok {
			found = true
			if d >= p.exist {
				return true, nil
			}
		}
	}
	return found, nil
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
	h := t.hash()
	for i := s.last[h] - 1; i >= 0; i = s.chain[i] {
		if s.tuples[i].equal(t) {
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
	if len(p.steps) == 0 {
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
	slices.SortFunc(s.tuples, func(a, b Tuple) int { return slices.Compare(a, b) })
	return s.tuples
}
