package datalog

import (
	"slices"
	"time"
)

// Fact is a ground fact Pred(Args...).
type Fact struct {
	Pred string
	Args Tuple
}

// ApplyStats reports what one incremental batch did to the fixpoint.
// Overdeleted facts are physically removed, then Added counts everything
// put back or newly derived (rederivations, insertions, propagation), so
// the net fixpoint change is Added − Overdeleted.
type ApplyStats struct {
	Overdeleted int // facts in the DRed overestimate (removed in phase 2)
	Rederived   int // overdeleted facts restored by the one-step check
	Added       int // facts added after removal: rederived + inserted + propagated
}

// State maintains the semi-naive fixpoint of a datalog program under
// base-fact insertions and deletions, so callers re-evaluate queries
// over the maintained database instead of recomputing the fixpoint from
// scratch after every batch.
//
// Insertions seed the semi-naive delta and the fixpoint simply
// continues. Deletions use DRed (delete and rederive): first an
// overestimate of every fact with a derivation through a deleted fact
// is removed, then overdeleted facts that are still one-step derivable
// from the surviving database are put back and propagated. DRed is
// sound for recursive programs, where per-tuple support counting is not
// (mutually-supporting cycles keep counts positive after their base
// support vanishes).
//
// The fixpoint is the only store: a base fact is a tuple whose mark
// (Relation) says asserted, and DRed's overestimate is the tuples an
// Apply marks overdeleted, listed as it finds them.
type State struct {
	fire   []*plan   // each rule once per body position, that atom the seed
	derive []*plan   // each rule with its head as the seed (one-step rederivation)
	db     *Database // maintained fixpoint: base ∪ derived, base tuples marked asserted
}

// DRed's bits in a fixpoint tuple's mark: a base fact is asserted, and
// a fact in the running Apply's overestimate overdeleted.
const asserted, overdeleted uint8 = 1, 2

// NewState materializes the program over the base facts. The result is
// byte-equivalent to loading the facts into a fresh Database and
// running Evaluate (the from-scratch oracle). A rule given more than
// once is compiled once, so the union of programs that share their
// hierarchy rules costs no more than its distinct rules.
func NewState(rules []Rule, base []Fact, lim Limits) (*State, error) {
	if err := validate(rules); err != nil {
		return nil, err
	}
	rules = distinctRules(rules)
	s := &State{fire: compileRules(rules), derive: compileDerivations(rules), db: NewDatabase()}
	delta := map[string][]Tuple{}
	for _, f := range base {
		if s.assert(f) {
			delta[f.Pred] = append(delta[f.Pred], f.Args)
		}
	}
	if err := propagate(s.fire, s.db, delta, lim); err != nil {
		return nil, err
	}
	return s, nil
}

// assert puts f in the fixpoint marked asserted, reporting whether it
// was absent before (neither asserted nor derived).
func (s *State) assert(f Fact) bool {
	r := s.db.Relation(f.Pred, len(f.Args))
	i, added := r.add(f.Args)
	r.marks[i] |= asserted
	return added
}

// locate returns pred(t)'s relation and index in the fixpoint, or a
// negative index when it is absent.
func (s *State) locate(pred string, t Tuple) (*Relation, int) {
	if r := s.db.Lookup(pred, len(t)); r != nil {
		return r, r.find(t)
	}
	return nil, -1
}

// distinctRules returns rules without repeats, each kept at its first
// place.
func distinctRules(rules []Rule) []Rule {
	byHead := map[string][]Rule{}
	out := make([]Rule, 0, len(rules))
	for _, r := range rules {
		if slices.ContainsFunc(byHead[r.Head.Pred], r.equal) {
			continue
		}
		byHead[r.Head.Pred] = append(byHead[r.Head.Pred], r)
		out = append(out, r)
	}
	return out
}

// DB exposes the maintained fixpoint. Callers must treat it as
// read-only; it is mutated in place by Apply.
func (s *State) DB() *Database { return s.db }

// Size reports the number of facts in the maintained fixpoint.
func (s *State) Size() int { return s.db.Size() }

// Apply updates the fixpoint for one batch of base-fact deletions and
// insertions (deletions first, matching delta.Store batch semantics).
// On error the state is no longer consistent and must be rebuilt.
func (s *State) Apply(ins, del []Fact, lim Limits) (ApplyStats, error) {
	var st ApplyStats

	// DRed phase 1: overestimate. Seed with the deleted base facts that
	// lose their assertion, then close under "derivable through an
	// overdeleted fact", joining the rest of each body over the still
	// intact pre-deletion fixpoint. Facts still asserted are
	// self-supported and never enter the overestimate. over lists the
	// fixpoint's own tuples marked overdeleted; its unvisited suffix is
	// the worklist.
	var over []Fact
	for _, f := range del {
		if r, i := s.locate(f.Pred, f.Args); i >= 0 && r.marks[i]&asserted != 0 {
			r.marks[i] = overdeleted
			over = append(over, Fact{Pred: f.Pred, Args: r.tuples[i]})
		}
	}
	overestimate := func(p *plan) error {
		r, i := s.locate(p.pred, p.headTuple())
		if i < 0 || r.marks[i] != 0 { // absent, asserted or already overdeleted
			return nil
		}
		r.marks[i] = overdeleted
		over = append(over, Fact{Pred: p.pred, Args: r.tuples[i]})
		return nil
	}
	for next := 0; next < len(over); next++ {
		if !lim.Deadline.IsZero() && time.Now().After(lim.Deadline) {
			return st, ErrLimit
		}
		f := over[next]
		for _, p := range s.fire {
			if p.seed.pred != f.Pred {
				continue
			}
			if _, err := p.run(s.db, f.Args, overestimate); err != nil {
				return st, err
			}
		}
	}

	// DRed phase 2: physically remove the overestimate, marks and all.
	for _, f := range over {
		s.db.Remove(f.Pred, f.Args)
	}
	st.Overdeleted = len(over)
	sizeAfterRemoval := s.db.Size()

	// DRed phase 3: rederive. An overdeleted fact that is one-step
	// derivable from the surviving database goes back in and seeds the
	// delta; propagation below restores everything downstream of it.
	delta := map[string][]Tuple{}
	for _, f := range over {
		if ok, err := s.derivableOneStep(f.Pred, f.Args); err != nil {
			return st, err
		} else if ok && s.db.Add(f.Pred, f.Args) {
			delta[f.Pred] = append(delta[f.Pred], f.Args)
			st.Rederived++
		}
	}

	// Insertions: new base facts join the delta, and the semi-naive
	// fixpoint just continues from them. A fact already derived (or put
	// back above) only gains its asserted mark.
	for _, f := range ins {
		if s.assert(f) {
			delta[f.Pred] = append(delta[f.Pred], f.Args)
		}
	}
	if err := propagate(s.fire, s.db, delta, lim); err != nil {
		return st, err
	}
	st.Added = s.db.Size() - sizeAfterRemoval
	return st, nil
}

// Answers returns the relation of answer predicate pred — the residual
// UCQ's answers, for a state built from Program.AnswerRules(pred) —
// sorted in the canonical row order, as a fresh slice (nil when there
// are none). The relation itself is never sorted: its key, chain and
// index arrays refer to tuples by position, and a slice handed out
// earlier must not change under its holder.
func (s *State) Answers(pred string) []Tuple {
	var r *Relation
	if i := slices.IndexFunc(s.derive, func(p *plan) bool { return p.pred == pred }); i >= 0 {
		r = s.db.Lookup(pred, len(s.derive[i].head))
	}
	if r == nil || r.Len() == 0 {
		return nil
	}
	out := slices.Clone(r.tuples)
	slices.SortFunc(out, slices.Compare[Tuple])
	return out
}

// Retire drops answer predicate pred — the plans of the rules that
// derive it and its relation — for a state built from
// Program.AnswerRules(pred) among other rules. No rule reads an answer
// predicate, so the rest of the fixpoint stands as it is.
func (s *State) Retire(pred string) {
	for _, p := range s.derive {
		if p.pred == pred {
			delete(s.db.rels, predKey{pred, len(p.head)})
		}
	}
	derives := func(p *plan) bool { return p.pred == pred }
	s.fire = slices.DeleteFunc(s.fire, derives)
	s.derive = slices.DeleteFunc(s.derive, derives)
}

// derivableOneStep reports whether some rule derives pred(t) from the
// current database in a single step.
func (s *State) derivableOneStep(pred string, t Tuple) (bool, error) {
	for _, p := range s.derive {
		if p.pred != pred {
			continue
		}
		if found, err := p.run(s.db, t, func(*plan) error { return nil }); found || err != nil {
			return found, err
		}
	}
	return false, nil
}
