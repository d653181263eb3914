package daf

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"ogpa/internal/core"
	"ogpa/internal/cq"
	"ogpa/internal/dllite"
	"ogpa/internal/engine"
	"ogpa/internal/graph"
	"ogpa/internal/perfectref"
)

func triangleGraph() *graph.Graph {
	b := graph.NewBuilder(nil)
	b.AddLabel("a1", "A")
	b.AddLabel("b1", "B")
	b.AddLabel("c1", "C")
	b.AddLabel("a2", "A")
	b.AddEdge("a1", "p", "b1")
	b.AddEdge("b1", "q", "c1")
	b.AddEdge("c1", "r", "a1")
	b.AddEdge("a2", "p", "b1")
	return b.Freeze()
}

func pat(src string) *core.Pattern { return core.FromCQ(cq.MustParse(src)) }

func TestMatchPath(t *testing.T) {
	g := triangleGraph()
	res, st, err := Match(pat(`q(x, y) :- p(x, y)`), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Names(g)
	if len(got) != 2 || got[0] != "a1,b1" || got[1] != "a2,b1" {
		t.Fatalf("matches = %v", got)
	}
	if st.Steps == 0 {
		t.Fatal("no steps recorded")
	}
}

func TestMatchTriangle(t *testing.T) {
	g := triangleGraph()
	res, _, err := Match(pat(`q(x, y, z) :- p(x, y), q(y, z), r(z, x)`), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Names(g)
	if len(got) != 1 || got[0] != "a1,b1,c1" {
		t.Fatalf("triangle matches = %v", got)
	}
}

func TestLabeledVertexFilter(t *testing.T) {
	g := triangleGraph()
	res, _, err := Match(pat(`q(x, y) :- A(x), p(x, y)`), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("matches = %v", res.Names(g))
	}
	// Label that exists but on no valid endpoint.
	res2, _, err := Match(pat(`q(x, y) :- C(x), p(x, y)`), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Len() != 0 {
		t.Fatalf("matches = %v", res2.Names(g))
	}
	// Label never interned in G at all.
	res3, _, err := Match(pat(`q(x) :- Zzz(x)`), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Len() != 0 {
		t.Fatal("unknown label should have no matches")
	}
}

// TestHomomorphismVsIsomorphism: matching is homomorphic, so x and y
// may both map to the one vertex of a self loop.
func TestHomomorphismVsIsomorphism(t *testing.T) {
	// Graph: single vertex with self loop.
	b := graph.NewBuilder(nil)
	b.AddLabel("u", "A")
	b.AddEdge("u", "p", "u")
	g := b.Freeze()
	p := pat(`q(x, y) :- p(x, y)`)
	hom, _, err := Match(p, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hom.Len() != 1 {
		t.Fatalf("homomorphic matches = %d", hom.Len())
	}
}

func TestStaticBFSOrderSameAnswers(t *testing.T) {
	g := triangleGraph()
	p := pat(`q(x, y, z) :- p(x, y), q(y, z)`)
	a, _, err := Match(p, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Match(p, g, Options{Order: engine.OrderStaticBFS})
	if err != nil {
		t.Fatal(err)
	}
	an, bn := a.Names(g), b.Names(g)
	if len(an) != len(bn) {
		t.Fatalf("adaptive %v vs bfs %v", an, bn)
	}
	for i := range an {
		if an[i] != bn[i] {
			t.Fatalf("adaptive %v vs bfs %v", an, bn)
		}
	}
}

func TestLimits(t *testing.T) {
	// Large-ish bipartite graph so enumeration has many results.
	b := graph.NewBuilder(nil)
	for i := 0; i < 30; i++ {
		for j := 0; j < 30; j++ {
			b.AddEdge(fmt.Sprintf("l%d", i), "p", fmt.Sprintf("r%d", j))
		}
	}
	g := b.Freeze()
	p := pat(`q(x, y) :- p(x, y)`)

	res, _, err := Match(p, g, Options{Limits: Limits{MaxResults: 10}})
	if err != nil {
		t.Fatalf("MaxResults should truncate, not error: %v", err)
	}
	if res.Len() != 10 {
		t.Fatalf("res = %d", res.Len())
	}

	_, _, err = Match(p, g, Options{Limits: Limits{MaxSteps: 5}})
	if err != ErrLimit {
		t.Fatalf("MaxSteps: err = %v", err)
	}

	_, _, err = Match(p, g, Options{Limits: Limits{Deadline: time.Now().Add(-time.Second)}})
	// Deadline is only checked every 4096 steps; with 900 results it may
	// finish first. Both outcomes are legal; just ensure no panic.
	_ = err
}

func TestRejectsOGPFeatures(t *testing.T) {
	p := pat(`q(x, y) :- p(x, y)`)
	p.Vertices[0].Omit = core.LabelIs{X: 1, Label: "B"}
	if _, _, err := Match(p, triangleGraph(), Options{}); err == nil {
		t.Fatal("omission condition must be rejected")
	}
	p2 := pat(`q(x, y) :- p(x, y)`)
	p2.Vertices[0].Match = core.Or{L: core.LabelIs{X: 0, Label: "A"}, R: core.LabelIs{X: 0, Label: "B"}}
	if _, _, err := Match(p2, triangleGraph(), Options{}); err == nil {
		t.Fatal("disjunctive condition must be rejected")
	}
	p3 := pat(`q(x, y) :- p(x, y)`)
	p3.Edges[0].Match = core.EdgeIs{X: 1, Y: 0, Label: "p"}
	if _, _, err := Match(p3, triangleGraph(), Options{}); err == nil {
		t.Fatal("non-structural edge condition must be rejected")
	}
}

// TestAgainstNaive cross-checks DAF against the brute-force reference
// evaluator on random graphs and random small patterns.
func TestAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := graph.NewBuilder(nil)
		labels := []string{"A", "B", "C"}
		preds := []string{"p", "q"}
		n := 3 + rng.Intn(5)
		for i := 0; i < n; i++ {
			b.AddLabel(fmt.Sprintf("v%d", i), labels[rng.Intn(len(labels))])
		}
		for i := 0; i < n*2; i++ {
			b.AddEdge(fmt.Sprintf("v%d", rng.Intn(n)), preds[rng.Intn(len(preds))], fmt.Sprintf("v%d", rng.Intn(n)))
		}
		g := b.Freeze()

		// Random connected pattern: a path/tree of 2-3 edges.
		atoms := []string{}
		vars := []string{"x", "y", "z", "w"}
		ne := 1 + rng.Intn(3)
		for i := 0; i < ne; i++ {
			a, c := vars[rng.Intn(i+1)], vars[i+1]
			if rng.Intn(2) == 0 {
				a, c = c, a
			}
			atoms = append(atoms, fmt.Sprintf("%s(%s, %s)", preds[rng.Intn(len(preds))], a, c))
		}
		if rng.Intn(2) == 0 {
			atoms = append(atoms, fmt.Sprintf("%s(x)", labels[rng.Intn(len(labels))]))
		}
		q := cq.MustParse("q(x) :- " + strings.Join(atoms, ", "))
		p := core.FromCQ(q)

		want := core.EnumerateNaive(p, g).Names(g)
		got, _, err := Match(p, g, Options{})
		if err != nil {
			return false
		}
		gotN := got.Names(g)
		if len(want) != len(gotN) {
			t.Logf("seed %d: naive %v vs daf %v (query %s)", seed, want, gotN, q)
			return false
		}
		for i := range want {
			if want[i] != gotN[i] {
				t.Logf("seed %d: naive %v vs daf %v", seed, want, gotN)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestEndToEndExample reproduces the paper's running example end to end
// with the UCQ baseline: PerfectRef + DAF over A = {PhD(Ann)} answers Ann.
func TestEndToEndExample(t *testing.T) {
	tb, err := dllite.ParseTBox(strings.NewReader(`
Student SubClassOf some takesCourse
PhD SubClassOf Student
PhD SubClassOf some advisorOf-
`))
	if err != nil {
		t.Fatal(err)
	}
	abox := &dllite.ABox{}
	abox.AddConcept("PhD", "Ann")
	g := abox.Graph(nil)

	q := cq.MustParse(`q(x) :- advisorOf(y1, x), advisorOf(y1, y2), advisorOf(y1, y3), takesCourse(x, z)`)

	// Without the ontology: no answers.
	direct, _, err := EvalCQ(q, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Len() != 0 {
		t.Fatalf("direct evaluation should be empty, got %v", direct.Names(g))
	}

	// With the ontology: Ann.
	u, err := perfectref.Rewrite(q, tb, perfectref.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := EvalUCQ(u.Queries, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := res.Names(g)
	if len(names) != 1 || names[0] != "Ann" {
		t.Fatalf("certain answers = %v, want [Ann]", names)
	}
}

func TestEvalUCQDedup(t *testing.T) {
	g := triangleGraph()
	qs := []*cq.Query{
		cq.MustParse(`q(x) :- A(x)`),
		cq.MustParse(`q(x) :- p(x, _)`),
	}
	res, _, err := EvalUCQ(qs, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// a1, a2 satisfy both disjuncts but must appear once each.
	if res.Len() != 2 {
		t.Fatalf("UCQ answers = %v", res.Names(g))
	}
	// MaxResults truncates across disjuncts.
	res2, _, err := EvalUCQ(qs, g, Options{Limits: Limits{MaxResults: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Len() != 1 {
		t.Fatalf("UCQ truncation = %v", res2.Names(g))
	}
}

func TestBooleanQuery(t *testing.T) {
	// A query with no distinguished variables: answer is the empty tuple
	// when a match exists.
	g := triangleGraph()
	q := &cq.Query{Name: "b", Atoms: []cq.Atom{cq.RoleAtom("p", "x", "y")}}
	p := core.FromCQ(q)
	res, _, err := Match(p, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("boolean query answers = %d, want 1 (empty tuple)", res.Len())
	}
}

func BenchmarkMatchTriangle(b *testing.B) {
	bld := graph.NewBuilder(nil)
	rng := rand.New(rand.NewSource(7))
	const n = 300
	for i := 0; i < n; i++ {
		bld.AddLabel(fmt.Sprintf("v%d", i), "A")
	}
	for i := 0; i < 3000; i++ {
		bld.AddEdge(fmt.Sprintf("v%d", rng.Intn(n)), "p", fmt.Sprintf("v%d", rng.Intn(n)))
	}
	g := bld.Freeze()
	p := pat(`q(x, y, z) :- p(x, y), p(y, z), p(z, x)`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Match(p, g, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
