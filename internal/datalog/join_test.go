package datalog

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ogpa/internal/cq"
)

// The kernel's differential test: every entry point that joins (Query,
// AnswerMaintained, Evaluate, NewState/Apply and the one-step
// rederivation check) against a naive nested-loop evaluator that binds
// variables in a map and scans every relation in body order.

// naiveJoin calls emit with every binding of body over db that extends
// bind, trying each tuple of each atom's relation in turn.
func naiveJoin(body []Atom, db *Database, bind map[string]string, emit func(map[string]string)) {
	if len(body) == 0 {
		emit(bind)
		return
	}
	rel := db.Lookup(body[0].Pred, len(body[0].Args))
	if rel == nil {
		return
	}
	for _, t := range rel.Tuples() {
		if next, ok := naiveUnify(body[0], t, bind); ok {
			naiveJoin(body[1:], db, next, emit)
		}
	}
}

// naiveUnify extends a copy of bind so that a matches t.
func naiveUnify(a Atom, t Tuple, bind map[string]string) (map[string]string, bool) {
	if len(a.Args) != len(t) {
		return nil, false
	}
	next := map[string]string{}
	for k, v := range bind {
		next[k] = v
	}
	for i, g := range a.Args {
		if !g.Var {
			if g.Name != t[i] {
				return nil, false
			}
			continue
		}
		if v, ok := next[g.Name]; ok && v != t[i] {
			return nil, false
		}
		next[g.Name] = t[i]
	}
	return next, true
}

// naiveInstantiate builds a head tuple under bind.
func naiveInstantiate(head []Term, bind map[string]string) Tuple {
	out := make(Tuple, len(head))
	for i, g := range head {
		if g.Var {
			out[i] = bind[g.Name]
		} else {
			out[i] = g.Name
		}
	}
	return out
}

// naiveQuery returns the distinct head tuples of head :- body, sorted, or
// nil when there are none.
func naiveQuery(head []string, body []Atom, db *Database) []Tuple {
	seen := map[string]bool{}
	var out []Tuple
	naiveJoin(body, db, map[string]string{}, func(b map[string]string) {
		t := naiveInstantiate(varTerms(head), b)
		if k := strings.Join(t, "\x00"); !seen[k] {
			seen[k] = true
			out = append(out, t)
		}
	})
	slices.SortFunc(out, func(a, b Tuple) int { return slices.Compare(a, b) })
	return out
}

// naiveFixpoint applies every rule to the whole database until nothing
// new is derived.
func naiveFixpoint(rules []Rule, base []Fact) *Database {
	db := NewDatabase()
	for _, f := range base {
		db.Add(f.Pred, f.Args)
	}
	for changed := true; changed; {
		changed = false
		for _, r := range rules {
			var derived []Tuple
			naiveJoin(r.Body, db, map[string]string{}, func(b map[string]string) {
				derived = append(derived, naiveInstantiate(r.Head.Args, b))
			})
			for _, t := range derived {
				if db.Add(r.Head.Pred, t) {
					changed = true
				}
			}
		}
	}
	return db
}

// naiveDerivable reports whether some rule derives pred(t) from db in one
// step.
func naiveDerivable(rules []Rule, db *Database, pred string, t Tuple) bool {
	found := false
	for _, r := range rules {
		if r.Head.Pred != pred {
			continue
		}
		if bind, ok := naiveUnify(r.Head, t, map[string]string{}); ok {
			naiveJoin(r.Body, db, bind, func(map[string]string) { found = true })
		}
	}
	return found
}

// kernelPreds fixes each predicate's arity. Z is never asserted nor
// derived: atoms over it have no relation.
var kernelPreds = map[string]int{"A": 1, "B": 1, "C": 1, "R": 2, "S": 2, "P": 2, "T": 3, "Z": 2}

// kernelGen draws small random databases, rules and disjuncts over
// kernelPreds with a handful of constants and variables.
type kernelGen struct {
	rng  *rand.Rand
	nInd int
}

func (g kernelGen) ind() string { return fmt.Sprintf("c%d", g.rng.Intn(g.nInd)) }

func (g kernelGen) pick(xs ...string) string { return xs[g.rng.Intn(len(xs))] }

// atom draws pred(args) whose arguments are mostly variables from vars,
// sometimes a constant, sometimes a repeated variable.
func (g kernelGen) atom(pred string, vars []string) Atom {
	a := Atom{Pred: pred, Args: make([]Term, kernelPreds[pred])}
	for i := range a.Args {
		switch r := g.rng.Intn(10); {
		case r == 0:
			a.Args[i] = C(g.ind())
		case r == 1 && i > 0:
			a.Args[i] = a.Args[i-1] // R(x, x) when the previous one is a variable
		default:
			a.Args[i] = V(vars[g.rng.Intn(len(vars))])
		}
	}
	return a
}

// body draws 1–4 atoms over few predicates (self-joins are common), now
// and then one over Z.
func (g kernelGen) body(preds []string) []Atom {
	vars := []string{"x", "y", "z", "w"}
	n := 1 + g.rng.Intn(4)
	body := make([]Atom, n)
	for i := range body {
		p := preds[g.rng.Intn(len(preds))]
		if g.rng.Intn(12) == 0 {
			p = "Z"
		}
		body[i] = g.atom(p, vars)
	}
	return body
}

// bodyVars lists body's variables in first-occurrence order.
func bodyVars(body []Atom) []string {
	var vs []string
	for _, a := range body {
		for _, t := range a.Args {
			if t.Var && !slices.Contains(vs, t.Name) {
				vs = append(vs, t.Name)
			}
		}
	}
	return vs
}

// head draws 0–3 of body's variables (possibly repeated): whatever body
// binds beyond them is existential.
func (g kernelGen) head(body []Atom) []string {
	vs := bodyVars(body)
	var head []string
	for i := g.rng.Intn(4); i > 0 && len(vs) > 0; i-- {
		head = append(head, vs[g.rng.Intn(len(vs))])
	}
	return head
}

// rules draws a recursive program whose heads are range-restricted.
func (g kernelGen) rules() []Rule {
	var rules []Rule
	for len(rules) < 3+g.rng.Intn(5) {
		body := g.body([]string{"A", "B", "C", "R", "S", "P", "T"})
		vs := bodyVars(body)
		if len(vs) == 0 {
			continue
		}
		pred := g.pick("B", "C", "S", "P", "T")
		head := Atom{Pred: pred, Args: make([]Term, kernelPreds[pred])}
		for i := range head.Args {
			if g.rng.Intn(8) == 0 {
				head.Args[i] = C(g.ind())
			} else {
				head.Args[i] = V(vs[g.rng.Intn(len(vs))])
			}
		}
		rules = append(rules, Rule{Head: head, Body: body})
	}
	return rules
}

// facts draws n base facts over the EDB-heavy predicates.
func (g kernelGen) facts(n int) []Fact {
	out := make([]Fact, n)
	for i := range out {
		p := g.pick("A", "B", "R", "R", "S", "T")
		t := make(Tuple, kernelPreds[p])
		for j := range t {
			t[j] = g.ind()
		}
		out[i] = Fact{Pred: p, Args: t}
	}
	return out
}

// database loads facts into a fresh database.
func database(facts []Fact) *Database {
	db := NewDatabase()
	for _, f := range facts {
		db.Add(f.Pred, f.Args)
	}
	return db
}

// disjunct draws a residual disjunct: unary and binary atoms over
// variables only, as the rewriter produces.
func (g kernelGen) disjunct() *cq.Query {
	vars := []string{"x", "y", "z", "w"}
	q := &cq.Query{}
	for i := 1 + g.rng.Intn(4); i > 0; i-- {
		if g.rng.Intn(2) == 0 {
			q.Atoms = append(q.Atoms, cq.ConceptAtom(g.pick("A", "B", "C"), g.pick(vars...)))
		} else {
			q.Atoms = append(q.Atoms, cq.RoleAtom(g.pick("R", "S", "P", "Z"), g.pick(vars...), g.pick(vars...)))
		}
	}
	return q
}

// residualBody is AnswerMaintained's translation of a disjunct.
func residualBody(d *cq.Query) []Atom {
	body := make([]Atom, len(d.Atoms))
	for i, a := range d.Atoms {
		if a.IsRole {
			body[i] = Atom{Pred: a.Pred, Args: []Term{V(a.X), V(a.Y)}}
		} else {
			body[i] = Atom{Pred: a.Pred, Args: []Term{V(a.X)}}
		}
	}
	return body
}

func tuplesString(ts []Tuple) string {
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = "(" + strings.Join(t, ",") + ")"
	}
	return strings.Join(parts, " ")
}

// TestKernelQueryMatchesNaive: Query on random bodies (constants,
// repeated variables, self-joins, an absent predicate, heads that leave
// existential suffixes) returns exactly the naive evaluator's tuples.
func TestKernelQueryMatchesNaive(t *testing.T) {
	for seed := 0; seed < 400; seed++ {
		g := kernelGen{rng: rand.New(rand.NewSource(int64(seed))), nInd: 3 + seed%5}
		db := database(g.facts(10 + g.rng.Intn(30)))
		for k := 0; k < 5; k++ {
			body := g.body([]string{"A", "B", "R", "S", "T"})
			head := g.head(body)
			got, err := Query(head, body, db)
			if err != nil {
				t.Fatal(err)
			}
			if want := naiveQuery(head, body, db); tuplesString(got) != tuplesString(want) {
				t.Fatalf("seed %d: q(%v) :- %v\n got: %s\nwant: %s", seed, head, body, tuplesString(got), tuplesString(want))
			}
		}
	}
}

// TestKernelAnswerMaintainedMatchesNaive: the residual UCQ of a random
// program is the sorted, duplicate-free union of its disjuncts' naive
// answers.
func TestKernelAnswerMaintainedMatchesNaive(t *testing.T) {
	for seed := 0; seed < 300; seed++ {
		g := kernelGen{rng: rand.New(rand.NewSource(int64(seed))), nInd: 3 + seed%5}
		db := database(g.facts(10 + g.rng.Intn(30)))
		prog := &Program{}
		for i := 1 + g.rng.Intn(5); i > 0; i-- {
			d := g.disjunct()
			d.Head = g.head(residualBody(d))
			if len(prog.Residual) > 0 { // one head arity across the union
				d.Head = d.Head[:0]
				for range prog.Residual[0].Head {
					d.Head = append(d.Head, g.pick(bodyVars(residualBody(d))...))
				}
			}
			prog.Residual = append(prog.Residual, d)
		}
		got, err := AnswerMaintained(prog, db)
		if err != nil {
			t.Fatal(err)
		}
		var want []Tuple
		for _, d := range prog.Residual {
			want = append(want, naiveQuery(d.Head, residualBody(d), db)...)
		}
		slices.SortFunc(want, func(a, b Tuple) int { return slices.Compare(a, b) })
		want = slices.CompactFunc(want, func(a, b Tuple) bool { return slices.Equal(a, b) })
		if tuplesString(got) != tuplesString(want) {
			t.Fatalf("seed %d: %v\n got: %s\nwant: %s", seed, prog.Residual, tuplesString(got), tuplesString(want))
		}
	}
}

// TestKernelFixpointMatchesNaive: Evaluate, NewState and every Apply
// batch (DRed's overestimate and rederivation included) reach the naive
// fixpoint of random recursive programs, and the one-step rederivation
// check agrees with the naive one on every fact.
func TestKernelFixpointMatchesNaive(t *testing.T) {
	for seed := 0; seed < 200; seed++ {
		g := kernelGen{rng: rand.New(rand.NewSource(int64(seed))), nInd: 3 + seed%4}
		rules := g.rules()
		base := g.facts(5 + g.rng.Intn(20))
		want := dump(naiveFixpoint(rules, base))

		db := database(base)
		if err := Evaluate(rules, db, Limits{}); err != nil {
			t.Fatal(err)
		}
		if got := dump(db); got != want {
			t.Fatalf("seed %d: Evaluate\n got: %s\nwant: %s", seed, got, want)
		}

		st, err := NewState(rules, base, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if got := dump(st.DB()); got != want {
			t.Fatalf("seed %d: NewState\n got: %s\nwant: %s", seed, got, want)
		}
		for bi := 0; bi < 4; bi++ {
			var del []Fact
			for i := g.rng.Intn(len(base) + 1); i > 0 && len(base) > 0; i-- {
				f := base[g.rng.Intn(len(base))]
				del = append(del, f)
				base = slices.DeleteFunc(base, func(b Fact) bool { // every copy: the base is a set
					return b.Pred == f.Pred && slices.Equal(b.Args, f.Args)
				})
			}
			ins := g.facts(g.rng.Intn(5))
			base = append(base, ins...)
			if _, err := st.Apply(ins, del, Limits{}); err != nil {
				t.Fatal(err)
			}
			if got, want := dump(st.DB()), dump(naiveFixpoint(rules, base)); got != want {
				t.Fatalf("seed %d batch %d: Apply\n got: %s\nwant: %s", seed, bi, got, want)
			}
		}

		for k, rel := range st.DB().rels {
			pred := k.pred
			for _, tup := range rel.Tuples() {
				got, err := st.derivableOneStep(pred, tup)
				if err != nil {
					t.Fatal(err)
				}
				if want := naiveDerivable(rules, st.DB(), pred, tup); got != want {
					t.Fatalf("seed %d: derivableOneStep(%s%v) = %v, want %v", seed, pred, tup, got, want)
				}
			}
		}
	}
}

// TestAnswerMaintainedSortedOnce: a program whose disjuncts overlap
// (every answer of the first is also an answer of the others) returns
// each tuple once, in slices.Compare order, without any per-disjunct
// sort to lean on.
func TestAnswerMaintainedSortedOnce(t *testing.T) {
	db := NewDatabase()
	for i := 0; i < 40; i++ {
		x := fmt.Sprintf("i%02d", (i*17)%40)
		db.AddFact("A", x)
		db.AddFact("R", x, fmt.Sprintf("j%d", i%7))
		if i%3 == 0 {
			db.AddFact("B", x)
		}
	}
	prog := &Program{Residual: []*cq.Query{
		cq.MustParse("q(x, y) :- R(x, y)"),
		cq.MustParse("q(x, y) :- A(x), R(x, y)"),
		cq.MustParse("q(x, y) :- R(x, y), B(x)"),
		cq.MustParse("q(y, x) :- R(y, x), R(y, z), A(y)"),
	}}
	got, err := AnswerMaintained(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 40 {
		t.Fatalf("got %d answers, want 40: %s", len(got), tuplesString(got))
	}
	for i := 1; i < len(got); i++ {
		if slices.Compare(got[i-1], got[i]) >= 0 {
			t.Fatalf("answers %d and %d out of order or duplicate: %v, %v", i-1, i, got[i-1], got[i])
		}
	}
}
