package saturate

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"ogpa/internal/cq"
	"ogpa/internal/daf"
	"ogpa/internal/dllite"
	"ogpa/internal/graph"
	"ogpa/internal/perfectref"
)

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

func TestMaterializeHierarchy(t *testing.T) {
	abox := &dllite.ABox{}
	abox.AddConcept("PhD", "Ann")
	g, st, err := Materialize(exampleTBox(t), abox, 2, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	ann := g.VertexByName("Ann")
	// I1: PhD ⊑ Student materialized as a label.
	if !g.HasLabel(ann, g.Symbols.Lookup("Student")) {
		t.Fatal("Student label not derived")
	}
	// I10/I11: Ann got a takesCourse witness and an advisor null.
	if !g.HasOutLabel(ann, g.Symbols.Lookup("takesCourse")) {
		t.Fatal("takesCourse witness missing")
	}
	if !g.HasInLabel(ann, g.Symbols.Lookup("advisorOf")) {
		t.Fatal("advisorOf witness missing")
	}
	if st.Nulls < 2 {
		t.Fatalf("expected ≥ 2 nulls, got %d", st.Nulls)
	}
}

func TestRestrictedChaseReusesWitnesses(t *testing.T) {
	// Ann already takes a course: no null needed for takesCourse.
	abox := &dllite.ABox{}
	abox.AddConcept("Student", "Ann")
	abox.AddRole("takesCourse", "Ann", "c1")
	_, st, err := Materialize(exampleTBox(t), abox, 3, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Nulls != 0 {
		t.Fatalf("restricted chase should reuse the witness; got %d nulls", st.Nulls)
	}
}

func TestDepthBoundStopsInfiniteChase(t *testing.T) {
	// A ⊑ ∃P, ∃P⁻ ⊑ A: the unrestricted chase is infinite.
	tb, err := dllite.ParseTBox(strings.NewReader(`
A SubClassOf some P
some P- SubClassOf A
`))
	if err != nil {
		t.Fatal(err)
	}
	abox := &dllite.ABox{}
	abox.AddConcept("A", "a0")
	for _, depth := range []int{1, 3, 5} {
		_, st, err := Materialize(tb, abox, depth, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if st.Nulls != depth {
			t.Fatalf("depth %d: nulls = %d", depth, st.Nulls)
		}
	}
}

func TestMaterializeLimits(t *testing.T) {
	tb, err := dllite.ParseTBox(strings.NewReader(`
A SubClassOf some P
some P- SubClassOf A
`))
	if err != nil {
		t.Fatal(err)
	}
	abox := &dllite.ABox{}
	abox.AddConcept("A", "a0")
	if _, _, err := Materialize(tb, abox, 1000, Limits{MaxFacts: 10}); err != ErrLimit {
		t.Fatalf("MaxFacts: err = %v", err)
	}
	if _, _, err := Materialize(tb, abox, 10, Limits{Deadline: time.Now().Add(-time.Second)}); err != ErrLimit {
		t.Fatalf("Deadline: err = %v", err)
	}
}

func TestAnswerCQRunningExample(t *testing.T) {
	q := cq.MustParse(`q(x) :- advisorOf(y1, x), advisorOf(y1, y2), advisorOf(y1, y3), takesCourse(x, z)`)
	abox := &dllite.ABox{}
	abox.AddConcept("PhD", "Ann")
	res, g, _, err := AnswerCQ(exampleTBox(t), abox, q, Limits{}, daf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := res.Names(g)
	if len(names) != 1 || names[0] != "Ann" {
		t.Fatalf("answers = %v, want [Ann]", names)
	}
}

func TestNullsNeverAnswer(t *testing.T) {
	// q(x) :- takesCourse(_, x): the course witness is a null and must not
	// be returned; Ann's takesCourse target is invented.
	tb := exampleTBox(t)
	abox := &dllite.ABox{}
	abox.AddConcept("PhD", "Ann")
	q := cq.MustParse(`q(x) :- takesCourse(_, x)`)
	res, _, _, err := AnswerCQ(tb, abox, q, Limits{}, daf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("null answers leaked: %d", res.Len())
	}
}

// TestAgainstPerfectRef: saturation + plain evaluation computes the same
// certain answers as PerfectRef + UCQ evaluation on random KBs.
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

		got, mg, _, err := AnswerCQ(tb, abox, q, Limits{}, daf.Options{})
		if err != nil {
			t.Logf("seed %d: AnswerCQ: %v", seed, err)
			return false
		}
		w, gn := want.Names(g), got.Names(mg)
		if len(w) != len(gn) {
			t.Logf("seed %d: query %s\nUCQ answers %v\nsaturation answers %v", seed, q, w, gn)
			return false
		}
		for i := range w {
			if w[i] != gn[i] {
				t.Logf("seed %d: %v vs %v", seed, w, gn)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// randomKB mirrors the generator used across baseline tests.
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

// facts renders every label and edge of g by name, sorted.
func facts(g *graph.Graph) []string {
	var out []string
	for v := graph.VID(0); int(v) < g.NumVertices(); v++ {
		for _, l := range g.Labels(v) {
			out = append(out, fmt.Sprintf("%s(%s)", g.Symbols.Name(l), g.Name(v)))
		}
		for _, h := range g.Out(v) {
			out = append(out, fmt.Sprintf("%s(%s, %s)", g.Symbols.Name(h.Label), g.Name(v), g.Name(h.To)))
		}
	}
	sort.Strings(out)
	return out
}

// TestMaterializeDeterministic: the chase names its nulls in an order
// fixed by its input, so two runs over the same TBox and ABox derive the
// same facts under the same names.
func TestMaterializeDeterministic(t *testing.T) {
	abox := &dllite.ABox{}
	for i := 0; i < 40; i++ {
		abox.AddConcept([]string{"Student", "PhD"}[i%2], fmt.Sprint("s", i))
		if i%3 == 0 {
			abox.AddRole("takesCourse", fmt.Sprint("s", i), fmt.Sprint("c", i))
		}
	}
	want := func() []string {
		g, _, err := Materialize(exampleTBox(t), abox, 2, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		return facts(g)
	}
	first := want()
	for run := 1; run < 4; run++ {
		got := want()
		for i := range min(len(got), len(first)) {
			if got[i] != first[i] {
				t.Fatalf("run %d derived %s where run 0 derived %s", run, got[i], first[i])
			}
		}
		if len(got) != len(first) {
			t.Fatalf("run %d derived %d facts, run 0 %d", run, len(got), len(first))
		}
	}
}
