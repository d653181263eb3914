package rewrite

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ogpa/internal/core"
	"ogpa/internal/cq"
	"ogpa/internal/daf"
	"ogpa/internal/dllite"
	"ogpa/internal/perfectref"
)

func example2TBox(t testing.TB) *dllite.TBox {
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

const example3Query = `q(x) :- advisorOf(y1, x), advisorOf(y1, y2), advisorOf(y1, y3), takesCourse(x, z)`

// TestExample9And10 walks the paper's running example through GenOGP and
// checks the final condition sets of Table III (step 4).
func TestExample9And10(t *testing.T) {
	q := cq.MustParse(example3Query)
	res, err := Generate(q, example2TBox(t))
	if err != nil {
		t.Fatal(err)
	}
	p := res.Pattern
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	ix := p.VertexByName("x")
	iy1 := p.VertexByName("y1")
	iy2 := p.VertexByName("y2")
	iz := p.VertexByName("z")

	// C^o(z) must contain Student(x) and PhD(x) (CondDeduction via T1, T2).
	hasOmit := func(v int, want OmitAtom) bool {
		for _, j := range res.OmitSets[v] {
			if j.Atom == want && len(j.Same) == 0 {
				return true
			}
		}
		return false
	}
	if !hasOmit(iz, OmitAtom{Kind: OmitConcept, V: ix, Name: "Student"}) ||
		!hasOmit(iz, OmitAtom{Kind: OmitConcept, V: ix, Name: "PhD"}) {
		t.Errorf("C^o(z) = %v, want Student(x) and PhD(x)", res.OmitSets[iz])
	}

	// LazyReduction must mark y2, y3 omittable (justified by the kept edge)
	// and turn y1 unbound; then C^o(y1) gains PhD(x) via T3.
	if !res.Unbound[iy1] {
		t.Error("y1 should become unbound after LazyReduction")
	}
	if !hasOmit(iy1, OmitAtom{Kind: OmitConcept, V: ix, Name: "PhD"}) {
		t.Errorf("C^o(y1) = %v, want PhD(x)", res.OmitSets[iy1])
	}
	// The merge is justified at the hub: "y1 advises someone".
	if !hasOmit(iy2, OmitAtom{Kind: OmitEdgeExists, V: iy1, Name: "advisorOf", Out: true}) {
		t.Errorf("C^o(y2) = %v, want advisorOf(y1, _)", res.OmitSets[iy2])
	}
	// Cascade: y2 inherits y1's PhD(x) justification.
	if !hasOmit(iy2, OmitAtom{Kind: OmitConcept, V: ix, Name: "PhD"}) {
		t.Errorf("C^o(y2) = %v, cascade should inherit PhD(x)", res.OmitSets[iy2])
	}
	if res.CondCount() == 0 {
		t.Error("CondCount should be positive")
	}
}

// TestExample10EndToEnd: the generated OGP evaluated over A = {PhD(Ann)}
// answers Ann (paper Example 10), using the naive reference matcher.
func TestExample10EndToEnd(t *testing.T) {
	q := cq.MustParse(example3Query)
	res, err := Generate(q, example2TBox(t))
	if err != nil {
		t.Fatal(err)
	}
	abox := &dllite.ABox{}
	abox.AddConcept("PhD", "Ann")
	g := abox.Graph(nil)
	got := core.EnumerateNaive(res.Pattern, g).Names(g)
	if len(got) != 1 || got[0] != "Ann" {
		t.Fatalf("OGP answers = %v, want [Ann]", got)
	}
}

// TestExample8Star reproduces the paper's Example 8: edges of the star
// query gain the alternative P1, so the polynomial OGP encodes the
// exponential UCQ.
func TestExample8Star(t *testing.T) {
	n := 6
	var atoms []string
	for i := 1; i <= n; i++ {
		atoms = append(atoms, fmt.Sprintf("P%d(x, y%d)", i, i))
	}
	q := cq.MustParse("q(y1) :- " + strings.Join(atoms, ", "))
	var cis []dllite.ConceptInclusion
	for i := 2; i <= n; i++ {
		cis = append(cis, dllite.ConceptInclusion{
			Sub: dllite.Exists(dllite.Role{Name: "P1"}),
			Sup: dllite.Exists(dllite.Role{Name: fmt.Sprintf("P%d", i)}),
		})
	}
	tb := dllite.NewTBox(cis, nil)

	res, err := Generate(q, tb)
	if err != nil {
		t.Fatal(err)
	}
	// Every edge (x, y_i), i ≥ 2, must carry the alternative P1.
	for ei, alts := range res.EdgeAlts {
		role := res.Query.Atoms[ei].Pred
		if role == "P1" {
			continue
		}
		found := false
		for _, a := range alts {
			if a.Role == "P1" && !a.Rev {
				found = true
			}
		}
		if !found {
			t.Errorf("edge %d (%s): alternatives %v lack P1", ei, role, alts)
		}
	}
	// Polynomial size: the UCQ is ≥ 2^(n-1) disjuncts, the OGP stays small.
	u, err := perfectref.Rewrite(q, tb, perfectref.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() < 1<<(n-1) {
		t.Fatalf("UCQ should be exponential, got %d disjuncts", u.Len())
	}
	if res.CondCount() > 4*n {
		t.Fatalf("OGP CondCount = %d, should be linear in n=%d", res.CondCount(), n)
	}
	// Same answers on a sample ABox where only P1 edges exist.
	abox := &dllite.ABox{}
	abox.AddRole("P1", "a", "b")
	abox.AddRole("P1", "a", "c")
	g := abox.Graph(nil)
	want, _, err := daf.EvalUCQ(u.Queries, g, daf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := core.EnumerateNaive(res.Pattern, g)
	w, gn := want.Names(g), got.Names(g)
	if len(w) != len(gn) {
		t.Fatalf("UCQ answers %v vs OGP answers %v", w, gn)
	}
	for i := range w {
		if w[i] != gn[i] {
			t.Fatalf("UCQ answers %v vs OGP answers %v", w, gn)
		}
	}
}

func TestInverseRoleAlternative(t *testing.T) {
	// advisee^- ⊑ advisorOf: the pattern edge must carry a reversed
	// alternative, matched by a data edge in the opposite direction.
	tb := dllite.NewTBox(nil, []dllite.RoleInclusion{
		{Sub: dllite.Role{Name: "advisee", Inv: true}, Sup: dllite.Role{Name: "advisorOf"}},
	})
	q := cq.MustParse(`q(x, y) :- advisorOf(x, y)`)
	res, err := Generate(q, tb)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range res.EdgeAlts[0] {
		if a.Role == "advisee" && a.Rev {
			found = true
		}
	}
	if !found {
		t.Fatalf("EdgeAlts = %v, want reversed advisee", res.EdgeAlts[0])
	}
	abox := &dllite.ABox{}
	abox.AddRole("advisee", "s", "p") // s names p as advisor ⇒ advisorOf(p, s)
	g := abox.Graph(nil)
	got := core.EnumerateNaive(res.Pattern, g).Names(g)
	if len(got) != 1 || got[0] != "p,s" {
		t.Fatalf("answers = %v, want [p,s]", got)
	}
}

func TestConceptHierarchyAlternatives(t *testing.T) {
	tb, err := dllite.ParseTBox(strings.NewReader(`
Processor SubClassOf Hardware
Memory SubClassOf Hardware
IODevice SubClassOf Hardware
`))
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustParse(`q(x) :- Hardware(x)`)
	res, err := Generate(q, tb)
	if err != nil {
		t.Fatal(err)
	}
	alts := res.VertexAltGroups[0][0]
	if len(alts) != 4 {
		t.Fatalf("alternatives = %v, want 4 labels", alts)
	}
	abox := &dllite.ABox{}
	abox.AddConcept("Processor", "cpu1")
	abox.AddConcept("Hardware", "hw1")
	abox.AddConcept("Software", "sw1")
	g := abox.Graph(nil)
	got := core.EnumerateNaive(res.Pattern, g).Names(g)
	if len(got) != 2 || got[0] != "cpu1" || got[1] != "hw1" {
		t.Fatalf("answers = %v", got)
	}
}

func TestEdgeExistsAlternative(t *testing.T) {
	// ∃teaches ⊑ Teacher (I8): Teacher(x) matched by an outgoing teaches edge.
	tb, err := dllite.ParseTBox(strings.NewReader("some teaches SubClassOf Teacher"))
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustParse(`q(x) :- Teacher(x)`)
	res, err := Generate(q, tb)
	if err != nil {
		t.Fatal(err)
	}
	abox := &dllite.ABox{}
	abox.AddRole("teaches", "bob", "ann")
	g := abox.Graph(nil)
	got := core.EnumerateNaive(res.Pattern, g).Names(g)
	if len(got) != 1 || got[0] != "bob" {
		t.Fatalf("answers = %v, want [bob]", got)
	}
}

func TestEmptyTBoxIdentity(t *testing.T) {
	q := cq.MustParse(`q(x) :- Student(x), takesCourse(x, z)`)
	res, err := Generate(q, dllite.NewTBox(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	// One alternative per original atom, no omissions.
	if res.CondCount() != 2 {
		t.Fatalf("CondCount = %d, want 2", res.CondCount())
	}
	for _, os := range res.OmitSets {
		if len(os) != 0 {
			t.Fatalf("unexpected omission set %v", os)
		}
	}
}

// randomKB builds a small random TBox, ABox and query for cross-checking.
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

	// Connected random query: star or path over ≤ 3 role atoms + optional
	// concept atom.
	vars := []string{"x", "y", "z", "w"}
	var atoms []string
	ne := 1 + rng.Intn(2)
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

// TestEquivalenceWithPerfectRef is the core correctness property:
// on random KBs, evaluating the GenOGP pattern (naive reference matcher)
// yields exactly the certain answers computed by PerfectRef + UCQ
// evaluation (Theorem 1 of the paper).
func TestEquivalenceWithPerfectRef(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb, abox, q := randomKB(rng)
		g := abox.Graph(nil)

		u, err := perfectref.Rewrite(q, tb, perfectref.Limits{MaxQueries: 5000})
		if err != nil {
			return true // pathological blowup: skip this sample
		}
		want, _, err := daf.EvalUCQ(u.Queries, g, daf.Options{})
		if err != nil {
			t.Logf("seed %d: EvalUCQ: %v", seed, err)
			return false
		}

		res, err := Generate(q, tb)
		if err != nil {
			t.Logf("seed %d: Generate: %v", seed, err)
			return false
		}
		got := core.EnumerateNaive(res.Pattern, g)

		w, gn := want.Names(g), got.Names(g)
		if len(w) != len(gn) {
			t.Logf("seed %d: query %s\nTBox CIs %v RIs %v\nUCQ(%d) answers %v\nOGP answers %v\nOGP:\n%s",
				seed, q, tb.CIs, tb.RIs, u.Len(), w, gn, res.Pattern)
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
	// Deterministic sweep: GenOGP has known residual incompleteness at
	// roughly 1e-4 per seed (pinned in the match package's
	// TestKnownBugResidualGenOGPSeeds), so a time-seeded run this size
	// flakes on bugs no commit under test touched. New-seed exploration
	// belongs in a manual sweep, not the CI gate.
	if err := quick.Check(f, &quick.Config{MaxCount: 1500, Rand: rand.New(rand.NewSource(20260805))}); err != nil {
		t.Fatal(err)
	}
}

// TestPolynomialGrowth: GenOGP's output grows polynomially in |q| on the
// star family where the UCQ explodes (Theorem 1's size claim).
func TestPolynomialGrowth(t *testing.T) {
	condCounts := map[int]int{}
	for _, n := range []int{4, 8, 12} {
		var atoms []string
		for i := 1; i <= n; i++ {
			atoms = append(atoms, fmt.Sprintf("P%d(x, y%d)", i, i))
		}
		q := cq.MustParse("q(y1) :- " + strings.Join(atoms, ", "))
		var cis []dllite.ConceptInclusion
		for i := 2; i <= n; i++ {
			cis = append(cis, dllite.ConceptInclusion{
				Sub: dllite.Exists(dllite.Role{Name: "P1"}),
				Sup: dllite.Exists(dllite.Role{Name: fmt.Sprintf("P%d", i)}),
			})
		}
		res, err := Generate(q, dllite.NewTBox(cis, nil))
		if err != nil {
			t.Fatal(err)
		}
		condCounts[n] = res.CondCount()
	}
	// Linear-ish growth: #COND(12)/#COND(4) well under the 2^8 a UCQ shows.
	if condCounts[12] > condCounts[4]*6 {
		t.Fatalf("CondCount growth not polynomial: %v", condCounts)
	}
}

func TestGenerateRejectsNothing(t *testing.T) {
	// Queries with repeated concept atoms per variable still work
	// (conjunctive groups).
	q := cq.MustParse(`q(x) :- Student(x), Employee(x), worksFor(x, y)`)
	res, err := Generate(q, dllite.NewTBox(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	ix := res.Pattern.VertexByName("x")
	if len(res.VertexAltGroups[ix]) != 2 {
		t.Fatalf("conjunctive groups = %d, want 2", len(res.VertexAltGroups[ix]))
	}
}

func BenchmarkGenOGPExample3(b *testing.B) {
	q := cq.MustParse(example3Query)
	tb := example2TBox(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(q, tb); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenOGPStar12(b *testing.B) {
	var atoms []string
	n := 12
	for i := 1; i <= n; i++ {
		atoms = append(atoms, fmt.Sprintf("P%d(x, y%d)", i, i))
	}
	q := cq.MustParse("q(y1) :- " + strings.Join(atoms, ", "))
	var cis []dllite.ConceptInclusion
	for i := 2; i <= n; i++ {
		cis = append(cis, dllite.ConceptInclusion{
			Sub: dllite.Exists(dllite.Role{Name: "P1"}),
			Sup: dllite.Exists(dllite.Role{Name: fmt.Sprintf("P%d", i)}),
		})
	}
	tb := dllite.NewTBox(cis, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(q, tb); err != nil {
			b.Fatal(err)
		}
	}
}
