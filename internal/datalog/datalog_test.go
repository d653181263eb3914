package datalog

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"ogpa/internal/cq"
	"ogpa/internal/daf"
	"ogpa/internal/dllite"
	"ogpa/internal/perfectref"
)

func TestRelationDedup(t *testing.T) {
	r := NewRelation(2)
	if !r.Add(Tuple{"a", "b"}) || r.Add(Tuple{"a", "b"}) {
		t.Fatal("dedup failed")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch should panic")
		}
	}()
	r.Add(Tuple{"x"})
}

func TestRuleValidate(t *testing.T) {
	ok := Rule{
		Head: Atom{Pred: "p", Args: []Term{V("x")}},
		Body: []Atom{{Pred: "q", Args: []Term{V("x"), V("y")}}},
	}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	unbound := Rule{
		Head: Atom{Pred: "p", Args: []Term{V("z")}},
		Body: []Atom{{Pred: "q", Args: []Term{V("x"), V("y")}}},
	}
	if unbound.Validate() == nil {
		t.Fatal("unbound head variable must be rejected")
	}
	empty := Rule{Head: Atom{Pred: "p", Args: []Term{C("a")}}}
	if empty.Validate() == nil {
		t.Fatal("empty body must be rejected")
	}
	if !strings.Contains(ok.String(), ":-") {
		t.Fatal("rule String")
	}
}

func TestEvaluateTransitiveClosure(t *testing.T) {
	db := NewDatabase()
	db.AddFact("edge", "a", "b")
	db.AddFact("edge", "b", "c")
	db.AddFact("edge", "c", "d")
	rules := []Rule{
		{Head: Atom{Pred: "path", Args: []Term{V("x"), V("y")}},
			Body: []Atom{{Pred: "edge", Args: []Term{V("x"), V("y")}}}},
		{Head: Atom{Pred: "path", Args: []Term{V("x"), V("z")}},
			Body: []Atom{
				{Pred: "path", Args: []Term{V("x"), V("y")}},
				{Pred: "edge", Args: []Term{V("y"), V("z")}},
			}},
	}
	if err := Evaluate(rules, db, Limits{}); err != nil {
		t.Fatal(err)
	}
	if got := db.Lookup("path", 2).Len(); got != 6 {
		t.Fatalf("path has %d tuples, want 6", got)
	}
	// Query with a constant.
	res, err := Query([]string{"y"}, []Atom{{Pred: "path", Args: []Term{C("a"), V("y")}}}, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("path(a, y) = %v", res)
	}
}

func TestEvaluateLimits(t *testing.T) {
	db := NewDatabase()
	db.AddFact("e", "a", "b")
	db.AddFact("e", "b", "a")
	rules := []Rule{
		{Head: Atom{Pred: "p", Args: []Term{V("x"), V("y")}},
			Body: []Atom{{Pred: "e", Args: []Term{V("x"), V("y")}}}},
		{Head: Atom{Pred: "p", Args: []Term{V("x"), V("z")}},
			Body: []Atom{
				{Pred: "p", Args: []Term{V("x"), V("y")}},
				{Pred: "p", Args: []Term{V("y"), V("z")}},
			}},
	}
	if err := Evaluate(rules, db, Limits{MaxFacts: 3}); err != ErrLimit {
		t.Fatalf("MaxFacts: err = %v", err)
	}
	db2 := NewDatabase()
	db2.AddFact("e", "a", "b")
	if err := Evaluate(rules, db2, Limits{Deadline: time.Now().Add(-time.Second)}); err != ErrLimit {
		t.Fatalf("Deadline: err = %v", err)
	}
}

func TestQueryConstantsAndSelfJoin(t *testing.T) {
	db := NewDatabase()
	db.AddFact("p", "a", "a")
	db.AddFact("p", "a", "b")
	res, err := Query([]string{"x"}, []Atom{{Pred: "p", Args: []Term{V("x"), V("x")}}}, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0][0] != "a" {
		t.Fatalf("p(x,x) = %v", res)
	}
	if got, err := Query([]string{"x"}, []Atom{{Pred: "absent", Args: []Term{V("x"), V("x")}}}, db); err != nil || got != nil {
		t.Fatalf("absent predicate should yield nil, got %v (err %v)", got, err)
	}
}

func exampleTBox(t testing.TB) *dllite.TBox {
	tb, err := dllite.ParseTBox(strings.NewReader(`
Student SubClassOf some takesCourse
PhD SubClassOf Student
PhD SubClassOf some advisorOf-
`))
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestRewriteAndAnswerRunningExample(t *testing.T) {
	q := cq.MustParse(`q(x) :- advisorOf(y1, x), advisorOf(y1, y2), advisorOf(y1, y3), takesCourse(x, z)`)
	prog, err := Rewrite(q, exampleTBox(t), perfectref.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Residual) == 0 || len(prog.Rules) == 0 {
		t.Fatalf("program: %d rules, %d residual disjuncts", len(prog.Rules), len(prog.Residual))
	}
	abox := &dllite.ABox{}
	abox.AddConcept("PhD", "Ann")
	db := LoadABox(abox)
	res, err := Answer(prog, db, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0][0] != "Ann" {
		t.Fatalf("answers = %v, want [Ann]", res)
	}
}

func TestRewriteSmallerThanUCQ(t *testing.T) {
	// The paper's Exp-2: datalog rewritings are smaller than UCQs on
	// hierarchy-heavy ontologies.
	var cis []dllite.ConceptInclusion
	for i := 0; i < 12; i++ {
		cis = append(cis, dllite.ConceptInclusion{
			Sub: dllite.Atomic(fmt.Sprintf("Sub%d", i)),
			Sup: dllite.Atomic("Top"),
		})
	}
	tb := dllite.NewTBox(cis, nil)
	q := cq.MustParse(`q(x, y) :- Top(x), link(x, y), Top(y)`)
	u, err := perfectref.Rewrite(q, tb, perfectref.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Rewrite(q, tb, perfectref.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Size() >= u.Size() {
		t.Fatalf("datalog rewriting (%d atoms) should be smaller than the UCQ (%d atoms)", prog.Size(), u.Size())
	}
	// The hierarchy must collapse the residual to (near) a single disjunct.
	if len(prog.Residual) != 1 {
		t.Fatalf("residual has %d disjuncts, want 1: %v", len(prog.Residual), prog.Residual)
	}
}

// TestAgainstPerfectRef cross-checks the datalog pipeline against
// PerfectRef + DAF on random KBs.
func TestAgainstPerfectRef(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb, abox, q := randomKB(rng)

		u, err := perfectref.Rewrite(q, tb, perfectref.Limits{MaxQueries: 5000})
		if err != nil {
			return true
		}
		g := abox.Graph(nil)
		want, _, err := daf.EvalUCQ(u.Queries, g, daf.Options{})
		if err != nil {
			return false
		}

		prog, err := Rewrite(q, tb, perfectref.Limits{MaxQueries: 5000})
		if err != nil {
			return true
		}
		got, err := Answer(prog, LoadABox(abox), Limits{})
		if err != nil {
			t.Logf("seed %d: Answer: %v", seed, err)
			return false
		}
		wantNames := want.Names(g)
		if len(wantNames) != len(got) {
			t.Logf("seed %d: query %s\nUCQ answers %v\ndatalog answers %v", seed, q, wantNames, got)
			return false
		}
		gotNames := make([]string, len(got))
		for i, tup := range got {
			gotNames[i] = strings.Join(tup, ",")
		}
		for i := range wantNames {
			if wantNames[i] != gotNames[i] {
				t.Logf("seed %d: %v vs %v", seed, wantNames, gotNames)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// randomKB mirrors the generator used by the rewrite/match tests.
func randomKB(rng *rand.Rand) (*dllite.TBox, *dllite.ABox, *cq.Query) {
	concepts := []string{"A", "B", "C", "D"}
	roles := []string{"p", "q", "r"}
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	randConcept := func() dllite.Concept {
		switch rng.Intn(3) {
		case 0:
			return dllite.Atomic(pick(concepts))
		case 1:
			return dllite.Exists(dllite.Role{Name: pick(roles)})
		default:
			return dllite.Exists(dllite.Role{Name: pick(roles), Inv: true})
		}
	}
	var cis []dllite.ConceptInclusion
	for i := 0; i < 3+rng.Intn(4); i++ {
		cis = append(cis, dllite.ConceptInclusion{Sub: randConcept(), Sup: randConcept()})
	}
	var ris []dllite.RoleInclusion
	for i := 0; i < rng.Intn(3); i++ {
		ris = append(ris, dllite.RoleInclusion{
			Sub: dllite.Role{Name: pick(roles), Inv: rng.Intn(2) == 0},
			Sup: dllite.Role{Name: pick(roles)},
		})
	}
	tb := dllite.NewTBox(cis, ris)

	abox := &dllite.ABox{}
	inds := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < 3+rng.Intn(5); i++ {
		if rng.Intn(2) == 0 {
			abox.AddConcept(pick(concepts), pick(inds))
		} else {
			abox.AddRole(pick(roles), pick(inds), pick(inds))
		}
	}

	vars := []string{"x", "y", "z", "w"}
	var atoms []string
	ne := 1 + rng.Intn(3)
	for i := 0; i < ne; i++ {
		a, b := vars[rng.Intn(i+1)], vars[i+1]
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		atoms = append(atoms, fmt.Sprintf("%s(%s, %s)", pick(roles), a, b))
	}
	if rng.Intn(2) == 0 {
		atoms = append(atoms, fmt.Sprintf("%s(x)", pick(concepts)))
	}
	q := cq.MustParse("q(x) :- " + strings.Join(atoms, ", "))
	return tb, abox, q
}

// TestNameClash: a concept and a role with the same name are two
// predicates, and data facts over names that start like the
// rewriting's own (q·, c·, r·, or the escape d·) are data like any
// other: a query over such a name answers them, and no other query's
// answers see them. Both the one-shot baseline and a maintained State
// answer so; keying relations by name alone panics on the first role
// fact, and loading the names unescaped pollutes Student's closure.
func TestNameClash(t *testing.T) {
	tb, err := dllite.ParseTBox(strings.NewReader("PhD SubClassOf Student\n"))
	if err != nil {
		t.Fatal(err)
	}
	abox := &dllite.ABox{}
	abox.AddConcept("PhD", "ann")
	abox.AddConcept("Student", "bob")
	abox.AddRole("Student", "ann", "bob")
	abox.AddRole(AnswerPrefix+"0", "x1", "x2")
	abox.AddConcept(AnswerPrefix+"1", "x3")
	abox.AddConcept(conceptPrefix+"Student", "x4")
	abox.AddRole(rolePrefix+"Student", "x5", "x6")
	abox.AddConcept(edbEscape+conceptPrefix+"Student", "x7")
	queries := []struct{ query, want string }{
		{"q(x, y) :- Student(x, y)", "[[ann bob]]"},
		{"q(x) :- Student(x)", "[[ann] [bob]]"},
		{"q(x) :- c·Student(x)", "[[x4]]"},
		{"q(x, y) :- r·Student(x, y)", "[[x5 x6]]"},
		{"q(x) :- q·1(x)", "[[x3]]"},
		{"q(x) :- d·c·Student(x)", "[[x7]]"},
	}
	var rules []Rule
	for i, tc := range queries {
		prog, err := Rewrite(cq.MustParse(tc.query), tb, perfectref.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Answer(prog, LoadABox(abox), Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != tc.want {
			t.Errorf("Answer(%s) = %v, want %s", tc.query, got, tc.want)
		}
		r, err := prog.AnswerRules(fmt.Sprintf("%s%d", AnswerPrefix, i))
		if err != nil {
			t.Fatal(err)
		}
		rules = append(rules, r...)
	}

	var base []Fact
	for _, c := range abox.Concepts {
		base = append(base, Fact{Pred: EDB(c.Concept), Args: Tuple{c.Ind}})
	}
	for _, r := range abox.Roles {
		base = append(base, Fact{Pred: EDB(r.Role), Args: Tuple{r.Sub, r.Obj}})
	}
	st, err := NewState(rules, base, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, want ...string) {
		t.Helper()
		for i := range queries {
			w := queries[i].want
			if i < len(want) {
				w = want[i]
			}
			if got := fmt.Sprint(st.Answers(fmt.Sprintf("%s%d", AnswerPrefix, i))); got != w {
				t.Errorf("%s: %s answers %s, want %s", step, queries[i].query, got, w)
			}
		}
	}
	check("NewState")
	role := []Fact{{Pred: "Student", Args: Tuple{"ann", "bob"}}}
	if _, err := st.Apply(nil, role, Limits{}); err != nil {
		t.Fatal(err)
	}
	check("role deleted", "[]")
	if _, err := st.Apply(role, []Fact{{Pred: "Student", Args: Tuple{"bob"}}}, Limits{}); err != nil {
		t.Fatal(err)
	}
	check("role back, concept deleted", queries[0].want, "[[ann]]")
	escaped := []Fact{{Pred: EDB(conceptPrefix + "Student"), Args: Tuple{"x4"}}}
	if _, err := st.Apply(nil, escaped, Limits{}); err != nil {
		t.Fatal(err)
	}
	check("c·Student deleted", queries[0].want, "[[ann]]", "[]")
}
