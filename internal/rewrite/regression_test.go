package rewrite

import (
	"testing"

	"ogpa/internal/core"
	"ogpa/internal/cq"
	"ogpa/internal/daf"
	"ogpa/internal/dllite"
	"ogpa/internal/perfectref"
)

// Regression tests locking in knowledge bases that historically exposed
// soundness or completeness bugs in GenOGP (found by the randomized
// equivalence property test). Each compares against PerfectRef + DAF.

func checkEquivalent(t *testing.T, tb *dllite.TBox, abox *dllite.ABox, q *cq.Query) {
	t.Helper()
	g := abox.Graph(nil)
	u, err := perfectref.Rewrite(q, tb, perfectref.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := daf.EvalUCQ(u.Queries, g, daf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(q, tb)
	if err != nil {
		t.Fatal(err)
	}
	got := core.EnumerateNaive(res.Pattern, g)
	w, gn := want.Names(g), got.Names(g)
	if len(w) != len(gn) {
		t.Fatalf("query %s\nUCQ answers %v\nOGP answers %v\nOGP:\n%s", q, w, gn, res.Pattern)
	}
	for i := range w {
		if w[i] != gn[i] {
			t.Fatalf("query %s: %v vs %v", q, w, gn)
		}
	}
}

// TestRegressionUnsoundWholeEdgeJustification: omission justified by "the
// kept edge matched via ANY alternative" over-answers; the justification
// must derive from the common alternative only.
func TestRegressionUnsoundWholeEdgeJustification(t *testing.T) {
	tb := dllite.NewTBox([]dllite.ConceptInclusion{
		{Sub: dllite.Exists(dllite.Role{Name: "q", Inv: true}), Sup: dllite.Exists(dllite.Role{Name: "q"})},
		{Sub: dllite.Exists(dllite.Role{Name: "r", Inv: true}), Sup: dllite.Exists(dllite.Role{Name: "q", Inv: true})},
		{Sub: dllite.Exists(dllite.Role{Name: "r"}), Sup: dllite.Exists(dllite.Role{Name: "p"})},
	}, []dllite.RoleInclusion{
		{Sub: dllite.Role{Name: "q"}, Sup: dllite.Role{Name: "p"}},
	})
	abox := &dllite.ABox{}
	abox.AddRole("q", "a", "b")
	abox.AddConcept("A", "c")
	q := cq.MustParse(`q(x) :- q(x, y), r(z, x)`)
	checkEquivalent(t, tb, abox, q)
}

// TestRegressionExistentialRootsAfterReduction: after a reduction, only
// the common alternative may seed existential deduction — the original
// atom's family is too wide.
func TestRegressionExistentialRootsAfterReduction(t *testing.T) {
	tb := dllite.NewTBox([]dllite.ConceptInclusion{
		{Sub: dllite.Exists(dllite.Role{Name: "p"}), Sup: dllite.Atomic("B")},
		{Sub: dllite.Atomic("C"), Sup: dllite.Exists(dllite.Role{Name: "p", Inv: true})},
		{Sub: dllite.Exists(dllite.Role{Name: "r"}), Sup: dllite.Atomic("A")},
	}, []dllite.RoleInclusion{
		{Sub: dllite.Role{Name: "q", Inv: true}, Sup: dllite.Role{Name: "p"}},
		{Sub: dllite.Role{Name: "p", Inv: true}, Sup: dllite.Role{Name: "p"}},
	})
	abox := &dllite.ABox{}
	abox.AddConcept("C", "b")
	abox.AddRole("p", "e", "d")
	abox.AddRole("q", "c", "e")
	q := cq.MustParse(`q(x) :- p(y, x), q(z, y)`)
	checkEquivalent(t, tb, abox, q)
}

// TestRegressionBoundEndpointReduction: PerfectRef reduces two same-role
// edges by unifying a *bound* far endpoint with the kept one, unbinding
// the hub; GenOGP must capture the resulting rewritings with SameAs-gated
// omission justifications.
func TestRegressionBoundEndpointReduction(t *testing.T) {
	tb := dllite.NewTBox([]dllite.ConceptInclusion{
		{Sub: dllite.Exists(dllite.Role{Name: "p"}), Sup: dllite.Atomic("B")},
		{Sub: dllite.Exists(dllite.Role{Name: "p"}), Sup: dllite.Exists(dllite.Role{Name: "r", Inv: true})},
		{Sub: dllite.Exists(dllite.Role{Name: "p"}), Sup: dllite.Exists(dllite.Role{Name: "q"})},
		{Sub: dllite.Exists(dllite.Role{Name: "p", Inv: true}), Sup: dllite.Exists(dllite.Role{Name: "r"})},
	}, nil)
	abox := &dllite.ABox{}
	abox.AddRole("p", "d", "a")
	abox.AddRole("p", "a", "b")
	q := cq.MustParse(`q(x) :- r(y, x), r(y, z), p(z, w)`)

	// The SameAs gate must appear in the compiled pattern.
	res, err := Generate(q, tb)
	if err != nil {
		t.Fatal(err)
	}
	foundGate := false
	for _, os := range res.OmitSets {
		for _, j := range os {
			if len(j.Same) > 0 {
				foundGate = true
			}
		}
	}
	if !foundGate {
		t.Fatalf("expected a SameAs-gated justification:\n%s", res.Pattern)
	}
	checkEquivalent(t, tb, abox, q)

	// Both a and d must be answers (via p(x, _) in the reduced chain).
	g := abox.Graph(nil)
	got := core.EnumerateNaive(res.Pattern, g).Names(g)
	if len(got) != 2 || got[0] != "a" || got[1] != "d" {
		t.Fatalf("answers = %v, want [a d]", got)
	}
}

// TestRegressionGateBlocksOverAnswering: without the SameAs gate the
// justification would fire for arbitrary z bindings; with it, data where
// the merged endpoint cannot coincide with the kept vertex yields no
// spurious answers.
func TestRegressionGateBlocksOverAnswering(t *testing.T) {
	tb := dllite.NewTBox([]dllite.ConceptInclusion{
		{Sub: dllite.Exists(dllite.Role{Name: "p"}), Sup: dllite.Exists(dllite.Role{Name: "r", Inv: true})},
	}, nil)
	// z's residual constraint p(z, w) is satisfiable at c, but c has no
	// r-witness-producing p-edge relationship with x candidates lacking
	// p-out: only vertices with an outgoing p-edge may answer.
	abox := &dllite.ABox{}
	abox.AddRole("p", "c", "w1")
	abox.AddConcept("A", "lonely")
	q := cq.MustParse(`q(x) :- r(y, x), r(y, z), p(z, w)`)
	checkEquivalent(t, tb, abox, q)

	res, err := Generate(q, tb)
	if err != nil {
		t.Fatal(err)
	}
	g := abox.Graph(nil)
	got := core.EnumerateNaive(res.Pattern, g).Names(g)
	// Only c (which has the outgoing p edge) answers; "lonely" and "w1"
	// must not.
	if len(got) != 1 || got[0] != "c" {
		t.Fatalf("answers = %v, want [c]", got)
	}
}
