package datalog

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"ogpa/internal/cq"
)

// dump renders every fact of db as "pred(a,b)" lines, sorted — the
// byte-equivalence form the incremental state is checked against.
func dump(db *Database) string {
	var lines []string
	for k, rel := range db.rels {
		for _, t := range rel.Tuples() {
			lines = append(lines, k.pred+"("+strings.Join(t, ",")+")")
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// oracle materializes the rules from scratch over the base facts.
func oracle(t *testing.T, rules []Rule, base []Fact) *Database {
	t.Helper()
	db := NewDatabase()
	for _, f := range base {
		db.Add(f.Pred, f.Args)
	}
	if err := Evaluate(rules, db, Limits{}); err != nil {
		t.Fatalf("oracle Evaluate: %v", err)
	}
	return db
}

// randRules builds a random program over unary preds A0..A5 and binary
// preds R0..R3, deliberately including cycles (recursive hierarchies)
// so DRed's rederivation phase is exercised where support counting
// would be unsound.
func randRules(rng *rand.Rand) []Rule {
	u := func(i int) string { return fmt.Sprintf("A%d", i) }
	b := func(i int) string { return fmt.Sprintf("R%d", i) }
	var rules []Rule
	n := 6 + rng.Intn(6)
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0: // A_i(x) :- A_j(x)
			rules = append(rules, Rule{
				Head: Atom{Pred: u(rng.Intn(6)), Args: []Term{V("x")}},
				Body: []Atom{{Pred: u(rng.Intn(6)), Args: []Term{V("x")}}},
			})
		case 1: // A_i(x) :- R_j(x,y)  (or flipped)
			a := Atom{Pred: b(rng.Intn(4)), Args: []Term{V("x"), V("y")}}
			if rng.Intn(2) == 0 {
				a.Args = []Term{V("y"), V("x")}
			}
			rules = append(rules, Rule{
				Head: Atom{Pred: u(rng.Intn(6)), Args: []Term{V("x")}},
				Body: []Atom{a},
			})
		case 2: // R_i(x,y) :- R_j(x,y) (or inverse)
			a := Atom{Pred: b(rng.Intn(4)), Args: []Term{V("x"), V("y")}}
			if rng.Intn(2) == 0 {
				a.Args = []Term{V("y"), V("x")}
			}
			rules = append(rules, Rule{
				Head: Atom{Pred: b(rng.Intn(4)), Args: []Term{V("x"), V("y")}},
				Body: []Atom{a},
			})
		default: // join: A_i(x) :- R_j(x,y), A_k(y)
			rules = append(rules, Rule{
				Head: Atom{Pred: u(rng.Intn(6)), Args: []Term{V("x")}},
				Body: []Atom{
					{Pred: b(rng.Intn(4)), Args: []Term{V("x"), V("y")}},
					{Pred: u(rng.Intn(6)), Args: []Term{V("y")}},
				},
			})
		}
	}
	return rules
}

func randFact(rng *rand.Rand, nInd int) Fact {
	ind := func() string { return fmt.Sprintf("i%d", rng.Intn(nInd)) }
	if rng.Intn(2) == 0 {
		return Fact{Pred: fmt.Sprintf("A%d", rng.Intn(6)), Args: Tuple{ind()}}
	}
	return Fact{Pred: fmt.Sprintf("R%d", rng.Intn(4)), Args: Tuple{ind(), ind()}}
}

// TestStateMatchesOracle runs 100 random seeds: random recursive
// program, random base, then a script of insert/delete batches —
// including deletion-heavy ones — checking after every batch that the
// maintained fixpoint is byte-identical to a from-scratch Evaluate over
// the current base facts.
func TestStateMatchesOracle(t *testing.T) {
	for seed := 0; seed < 100; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			rules := randRules(rng)
			nInd := 8 + rng.Intn(8)

			var base []Fact
			for i := 0; i < 20+rng.Intn(30); i++ {
				base = append(base, randFact(rng, nInd))
			}
			st, err := NewState(rules, base, Limits{})
			if err != nil {
				t.Fatalf("NewState: %v", err)
			}
			if got, want := dump(st.DB()), dump(oracle(t, rules, base)); got != want {
				t.Fatalf("initial state differs from oracle:\n got: %s\nwant: %s", got, want)
			}

			// current asserted base, tracked alongside the state
			asserted := map[string][]Fact{}
			key := func(f Fact) string { return f.Pred + "(" + strings.Join(f.Args, ",") + ")" }
			for _, f := range base {
				asserted[key(f)] = append(asserted[key(f)], f)
			}
			currentBase := func() []Fact {
				var out []Fact
				for _, fs := range asserted {
					out = append(out, fs[0])
				}
				return out
			}

			batches := 4 + rng.Intn(4)
			for bi := 0; bi < batches; bi++ {
				// Every third batch is deletion-heavy to stress DRed.
				delHeavy := bi%3 == 2
				var ins, del []Fact
				nDel := rng.Intn(4)
				if delHeavy {
					nDel = 5 + rng.Intn(10)
				}
				existing := currentBase()
				for i := 0; i < nDel && len(existing) > 0; i++ {
					f := existing[rng.Intn(len(existing))]
					del = append(del, f)
					delete(asserted, key(f))
				}
				nIns := rng.Intn(6)
				if delHeavy {
					nIns = rng.Intn(2)
				}
				for i := 0; i < nIns; i++ {
					f := randFact(rng, nInd)
					ins = append(ins, f)
				}
				// Apply deletions before insertions, mirroring State.
				for _, f := range ins {
					if _, dup := asserted[key(f)]; !dup {
						asserted[key(f)] = []Fact{f}
					}
				}

				if _, err := st.Apply(ins, del, Limits{}); err != nil {
					t.Fatalf("batch %d Apply: %v", bi, err)
				}
				got := dump(st.DB())
				want := dump(oracle(t, rules, currentBase()))
				if got != want {
					t.Fatalf("batch %d (delHeavy=%v, ins=%d del=%d): state differs from oracle\n got: %s\nwant: %s",
						bi, delHeavy, len(ins), len(del), got, want)
				}
			}
		})
	}
}

// TestStateDeleteAll checks the degenerate full-teardown script: after
// deleting every base fact the fixpoint must be empty.
func TestStateDeleteAll(t *testing.T) {
	rules := []Rule{
		{Head: Atom{Pred: "A1", Args: []Term{V("x")}},
			Body: []Atom{{Pred: "A0", Args: []Term{V("x")}}}},
		{Head: Atom{Pred: "A0", Args: []Term{V("x")}},
			Body: []Atom{{Pred: "A1", Args: []Term{V("x")}}}}, // cycle
	}
	base := []Fact{{Pred: "A0", Args: Tuple{"i"}}}
	st, err := NewState(rules, base, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 2 {
		t.Fatalf("size = %d, want 2", st.Size())
	}
	stats, err := st.Apply(nil, base, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 0 {
		t.Fatalf("after delete-all size = %d, want 0 (stats %+v, left: %s)", st.Size(), stats, dump(st.DB()))
	}
}

// TestStateAssertedAndDerived: a fact with two supports, its assertion
// and a derivation, survives losing either one alone and goes with the
// second; a fact deleted and re-inserted in one batch stays asserted,
// also when DRed has already put it back as derived, so losing its
// derivation later keeps it. After every batch the fixpoint equals the
// from-scratch oracle over the current base.
func TestStateAssertedAndDerived(t *testing.T) {
	unary := func(head, body string) Rule {
		return Rule{Head: Atom{Pred: head, Args: []Term{V("x")}}, Body: []Atom{{Pred: body, Args: []Term{V("x")}}}}
	}
	rules := []Rule{unary("B", "A"), unary("C", "B")}
	a, b := Fact{Pred: "A", Args: Tuple{"i"}}, Fact{Pred: "B", Args: Tuple{"i"}}
	base := []Fact{a, b}
	st, err := NewState(rules, base, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		name     string
		ins, del []Fact
		base     []Fact // asserted after the batch
	}{
		{"B loses its assertion", nil, []Fact{b}, []Fact{a}},
		{"B asserted again", []Fact{b}, nil, []Fact{a, b}},
		{"B loses its derivation", nil, []Fact{a}, []Fact{b}},
		{"B loses both", nil, []Fact{b}, nil},
		{"both back", []Fact{a, b}, nil, []Fact{a, b}},
		{"B deleted and re-inserted", []Fact{b}, []Fact{b}, []Fact{a, b}},
		{"then B loses its derivation", nil, []Fact{a}, []Fact{b}},
		{"B deleted and re-inserted underived", []Fact{b}, []Fact{b}, []Fact{b}},
		{"B deleted", nil, []Fact{b}, nil},
	} {
		if _, err := st.Apply(step.ins, step.del, Limits{}); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if got, want := dump(st.DB()), dump(oracle(t, rules, step.base)); got != want {
			t.Fatalf("%s:\n got: %s\nwant: %s", step.name, got, want)
		}
	}
}

// TestRelationRemove exercises swap-delete index repair directly. Both
// positional indexes are built before the removals, so Remove has to
// repair them.
func TestRelationRemove(t *testing.T) {
	r := NewRelation(2)
	add := func(a, b string) { r.Add(Tuple{a, b}) }
	add("a", "b")
	add("c", "d")
	add("a", "d")
	add("e", "f")
	r.position(0)
	r.position(1)
	if !r.Remove(Tuple{"c", "d"}) {
		t.Fatal("remove existing failed")
	}
	if r.Remove(Tuple{"c", "d"}) {
		t.Fatal("double remove succeeded")
	}
	if r.Remove(Tuple{"zz", "d"}) {
		t.Fatal("remove of unseen constant succeeded")
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d, want 3", r.Len())
	}
	for _, want := range []Tuple{{"a", "b"}, {"a", "d"}, {"e", "f"}} {
		if !r.Contains(want) {
			t.Fatalf("missing %v after remove", want)
		}
	}
	if r.Contains(Tuple{"c", "d"}) {
		t.Fatal("removed tuple still present")
	}
	// Index still answers joins: tuples with "a" in position 0.
	if got := len(r.position(0)["a"]); got != 2 {
		t.Fatalf("index[0][a] len = %d, want 2", got)
	}
	if got := len(r.position(1)["d"]); got != 1 {
		t.Fatalf("index[1][d] len = %d, want 1", got)
	}
}

// TestLazyIndexMatchesRebuilt: random Add/Remove scripts, with each
// position's index first probed at a random step, keep every built
// index equal to one rebuilt from the relation's tuples after every
// step; an index Add or Remove (or Remove's swap repair) forgets fails
// it.
func TestLazyIndexMatchesRebuilt(t *testing.T) {
	for seed := 0; seed < 300; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		arity := 1 + rng.Intn(3)
		r := NewRelation(arity)
		tuple := func() Tuple {
			t := make(Tuple, arity)
			for i := range t {
				t[i] = fmt.Sprintf("c%d", rng.Intn(5))
			}
			return t
		}
		for step := 0; step < 80; step++ {
			switch k := rng.Intn(12); {
			case k < 6:
				r.Add(tuple())
			case k < 11 && r.Len() > 0 && k%2 == 0:
				r.Remove(slices.Clone(r.Tuples()[rng.Intn(r.Len())]))
			case k < 11:
				r.Remove(tuple())
			default:
				r.position(rng.Intn(arity))
			}
			for i, m := range r.index {
				if m == nil {
					continue
				}
				want := map[string][]int{}
				for ti, tup := range r.Tuples() {
					want[tup[i]] = append(want[tup[i]], ti)
				}
				got := map[string][]int{}
				for v, l := range m {
					got[v] = slices.Sorted(slices.Values(l))
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d step %d: index %d = %v, rebuilt from %v: %v", seed, step, i, got, r.Tuples(), want)
				}
			}
		}
	}
}

// TestStandingAnswersMatchAnswerMaintained: a State built from the
// AnswerRules of two programs over the same rules holds, in each
// program's answer relation, exactly what AnswerMaintained joins for
// that program from the shared fixpoint, after NewState and after every
// Apply batch (batch 2 deletes at least half the base, so DRed
// overdeletes answers that other derivations must restore). The rules
// are the kernel tests' random recursive ones; the residual disjuncts
// have self-joins, existential variables, now and then a head variable
// no atom binds, and every fifth seed a 0-ary (boolean) head.
func TestStandingAnswersMatchAnswerMaintained(t *testing.T) {
	for seed := 0; seed < 300; seed++ {
		g := kernelGen{rng: rand.New(rand.NewSource(int64(seed))), nInd: 3 + seed%4}
		shared := g.rules()
		var progs []*Program
		var rules []Rule
		for pi := 0; pi < 2; pi++ {
			prog := &Program{Rules: shared}
			arity := 1 + g.rng.Intn(3)
			if seed%5 == 0 {
				arity = 0
			}
			for i := 1 + g.rng.Intn(5); i > 0; i-- {
				d := g.disjunct()
				vs := bodyVars(residualBody(d))
				for range arity {
					v := g.pick(vs...)
					if g.rng.Intn(10) == 0 {
						v = "v" // bound by no atom: the answer's cell is ""
					}
					d.Head = append(d.Head, v)
				}
				prog.Residual = append(prog.Residual, d)
			}
			r, err := prog.AnswerRules(fmt.Sprintf("%s%d", AnswerPrefix, pi))
			if err != nil {
				t.Fatal(err)
			}
			progs, rules = append(progs, prog), append(rules, r...)
		}
		base := g.facts(5 + g.rng.Intn(20))
		st, err := NewState(rules, base, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		check := func(step string) {
			t.Helper()
			for pi, prog := range progs {
				want, err := AnswerMaintained(prog, st.DB())
				if err != nil {
					t.Fatal(err)
				}
				if got := st.Answers(fmt.Sprintf("%s%d", AnswerPrefix, pi)); tuplesString(got) != tuplesString(want) {
					t.Fatalf("seed %d %s, program %d: %v\n got: %s\nwant: %s", seed, step, pi, prog.Residual, tuplesString(got), tuplesString(want))
				}
			}
		}
		check("NewState")
		for bi := 0; bi < 4; bi++ {
			n := g.rng.Intn(len(base) + 1)
			if bi == 2 {
				n = max(n, (len(base)+1)/2)
			}
			var del []Fact
			for ; n > 0 && len(base) > 0; n-- {
				f := base[g.rng.Intn(len(base))]
				del = append(del, f)
				base = slices.DeleteFunc(base, func(b Fact) bool {
					return b.Pred == f.Pred && slices.Equal(b.Args, f.Args)
				})
			}
			ins := g.facts(g.rng.Intn(5))
			base = append(base, ins...)
			if _, err := st.Apply(ins, del, Limits{}); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("batch %d", bi))
		}
	}
}

// TestAnswerRulesRejects: answer predicates carry the reserved prefix,
// no program uses it, and the disjuncts of one union share their head
// arity.
func TestAnswerRulesRejects(t *testing.T) {
	const pred = AnswerPrefix + "0"
	if _, err := (&Program{}).AnswerRules("answers"); err == nil {
		t.Error("an answer predicate without the prefix was accepted")
	}
	clash := &Program{Rules: []Rule{{
		Head: Atom{Pred: AnswerPrefix + "1", Args: []Term{V("x")}},
		Body: []Atom{{Pred: "A", Args: []Term{V("x")}}},
	}}}
	if _, err := clash.AnswerRules(pred); err == nil {
		t.Error("a rule deriving a reserved predicate was accepted")
	}
	d := cq.MustParse("q(x) :- A(x)")
	d.Atoms[0].Pred = pred
	if _, err := (&Program{Residual: []*cq.Query{d}}).AnswerRules(pred); err == nil {
		t.Error("a disjunct over the answer predicate was accepted")
	}
	mixed := &Program{Residual: []*cq.Query{cq.MustParse("q(x) :- A(x)"), cq.MustParse("q(x, y) :- R(x, y)")}}
	if _, err := mixed.AnswerRules(pred); err == nil {
		t.Error("disjuncts of different head arity were accepted")
	}
	ok := &Program{Residual: []*cq.Query{{Head: []string{"x"}}, cq.MustParse("q(x) :- A(x)")}}
	rules, err := ok.AnswerRules(pred)
	if err != nil || len(rules) != 1 {
		t.Errorf("empty-body disjunct: %d rules, %v; want the other disjunct's rule alone", len(rules), err)
	}
}

// TestNewStateDropsRepeatedRules: a rule given twice is compiled once,
// and the fixpoint is the one of the distinct rules.
func TestNewStateDropsRepeatedRules(t *testing.T) {
	g := kernelGen{rng: rand.New(rand.NewSource(1)), nInd: 4}
	rules := g.rules()
	base := g.facts(20)
	once, err := NewState(rules, base, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	twice, err := NewState(append(slices.Clone(rules), rules...), base, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(twice.fire) != len(once.fire) || len(twice.derive) != len(once.derive) {
		t.Errorf("repeated rules compiled to %d/%d plans, distinct ones to %d/%d",
			len(twice.fire), len(twice.derive), len(once.fire), len(once.derive))
	}
	if got, want := dump(twice.DB()), dump(once.DB()); got != want {
		t.Errorf("fixpoint over repeated rules\n got: %s\nwant: %s", got, want)
	}
}
