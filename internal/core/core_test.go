package core

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ogpa/internal/cq"
	"ogpa/internal/graph"
)

// fig2Graph reconstructs the graph G of the paper's Figure 2 / Example 5:
// a Teacher y1, a Professor y2, Students y3/y4, an Article y5 and a Course
// y6, with teaches(y1,y3), teaches(y1,y4), takes(y3,y6), takes(y4,y6).
func fig2Graph() *graph.Graph {
	b := graph.NewBuilder(nil)
	b.AddLabel("y1", "Teacher")
	b.AddLabel("y2", "Professor")
	b.AddLabel("y3", "Student")
	b.AddLabel("y4", "Student")
	b.AddLabel("y5", "Article")
	b.AddLabel("y6", "Course")
	b.AddEdge("y1", "teaches", "y3")
	b.AddEdge("y1", "teaches", "y4")
	b.AddEdge("y3", "takes", "y6")
	b.AddEdge("y4", "takes", "y6")
	return b.Freeze()
}

// q5Prime builds the OGP Q5' of the paper's Example 4(3): it encodes both
// Q5 (professor/publishes/article/university) and Q6 (teacher/takes/course).
// Vertices: 0=x1, 1=x2, 2=x3, 3=x4.
func q5Prime() *Pattern {
	return &Pattern{
		Vertices: []Vertex{
			{Name: "x1", Label: Wildcard, Distinguished: true,
				Match: Or{LabelIs{0, "Professor"}, LabelIs{0, "Teacher"}}},
			{Name: "x2", Label: "Student", Distinguished: true},
			{Name: "x3", Label: Wildcard, Distinguished: true,
				Match: Or{
					And{LabelIs{2, "Article"}, LabelIs{0, "Professor"}},
					And{LabelIs{2, "Course"}, LabelIs{0, "Teacher"}},
				}},
			{Name: "x4", Label: "University", Distinguished: true,
				Omit: LabelIs{0, "Teacher"}},
		},
		Edges: []Edge{
			{From: 0, To: 1, Label: "teaches"},
			{From: 1, To: 2, Label: Wildcard,
				Match: Or{
					And{EdgeIs{1, 2, "publishes"}, LabelIs{0, "Professor"}},
					And{EdgeIs{1, 2, "takes"}, LabelIs{0, "Teacher"}},
				}},
			{From: 0, To: 3, Label: "worksFor"},
		},
	}
}

func TestQ5PrimeValidatesAndConnected(t *testing.T) {
	p := q5Prime()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !p.Connected() {
		t.Fatal("Q5' should be connected")
	}
	if got := p.Distinguished(); len(got) != 4 {
		t.Fatalf("Distinguished = %v", got)
	}
	if p.VertexByName("x3") != 2 || p.VertexByName("nope") != -1 {
		t.Fatal("VertexByName wrong")
	}
	if got := p.AdjacentEdges(0); len(got) != 2 {
		t.Fatalf("AdjacentEdges(x1) = %v", got)
	}
	if p.CondSize() != 11 {
		t.Fatalf("CondSize = %d", p.CondSize())
	}
	if !strings.Contains(p.String(), "x1") {
		t.Fatal("String() should mention vertex names")
	}
}

// TestExample5Matches reproduces the paper's Example 5: Q5' has exactly the
// two matches h1 (x2→y3) and h2 (x2→y4), both with x1→y1, x3→y6, x4→⊥.
func TestExample5Matches(t *testing.T) {
	g := fig2Graph()
	res := EnumerateNaive(q5Prime(), g)
	got := res.Names(g)
	want := []string{"y1,y3,y6,⊥", "y1,y4,y6,⊥"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("matches = %v, want %v", got, want)
	}
}

func TestOmissionRequiresCondition(t *testing.T) {
	g := fig2Graph()
	p := q5Prime()
	// Drop the omission condition: x4 can no longer be omitted, and since G
	// has no University vertex there are no matches at all.
	p.Vertices[3].Omit = nil
	if res := EnumerateNaive(p, g); res.Len() != 0 {
		t.Fatalf("expected no matches, got %v", res.Names(g))
	}
}

func TestEvalAtoms(t *testing.T) {
	b := graph.NewBuilder(nil)
	b.AddLabel("a", "A")
	b.AddLabel("c", "C")
	b.AddEdge("a", "p", "c")
	b.SetAttr("a", "age", graph.Int(30))
	b.SetAttr("c", "age", graph.Int(20))
	b.SetAttr("c", "name", graph.String("carol"))
	g := b.Freeze()
	va, vc := g.VertexByName("a"), g.VertexByName("c")
	m := Mapping{va, vc}

	cases := []struct {
		c    Cond
		want bool
	}{
		{True{}, true},
		{LabelIs{0, "A"}, true},
		{LabelIs{0, "B"}, false},
		{LabelIs{0, "NeverInterned"}, false},
		{EdgeIs{0, 1, "p"}, true},
		{EdgeIs{1, 0, "p"}, false},
		{EdgeIs{0, 1, "q"}, false},
		{EdgeExists{0, "p", true}, true},
		{EdgeExists{0, "p", false}, false},
		{EdgeExists{1, "p", false}, true},
		{AttrCmpConst{0, "age", Gt, graph.Int(25)}, true},
		{AttrCmpConst{0, "age", Lt, graph.Int(25)}, false},
		{AttrCmpConst{0, "missing", Eq, graph.Int(1)}, false},
		{AttrCmpConst{1, "name", Eq, graph.String("carol")}, true},
		{AttrCmpConst{1, "name", Ne, graph.String("carol")}, false},
		{AttrCmpConst{1, "name", Eq, graph.Int(3)}, false}, // incomparable
		{AttrCmpAttr{X: 0, AttrX: "age", Op: Gt, Y: 1, AttrY: "age"}, true},
		{AttrCmpAttr{X: 0, AttrX: "age", Op: Le, Y: 1, AttrY: "age"}, false},
		{AttrCmpAttr{X: 0, AttrX: "age", Op: Eq, Y: 1, AttrY: "name"}, false},
		{And{LabelIs{0, "A"}, LabelIs{1, "C"}}, true},
		{And{LabelIs{0, "A"}, LabelIs{1, "A"}}, false},
		{Or{LabelIs{0, "B"}, LabelIs{1, "C"}}, true},
		{Or{LabelIs{0, "B"}, LabelIs{1, "B"}}, false},
	}
	for i, c := range cases {
		if got := Eval(c.c, m, g); got != c.want {
			t.Errorf("case %d (%s): Eval = %v, want %v", i, c.c, got, c.want)
		}
	}

	// Atoms referencing an omitted vertex are false.
	mOmit := Mapping{va, Omitted}
	for _, c := range []Cond{
		LabelIs{1, "C"},
		EdgeIs{0, 1, "p"},
		EdgeExists{1, "p", false},
		AttrCmpConst{1, "age", Eq, graph.Int(20)},
		AttrCmpAttr{X: 0, AttrX: "age", Op: Gt, Y: 1, AttrY: "age"},
	} {
		if Eval(c, mOmit, g) {
			t.Errorf("%s should be false under omission", c)
		}
	}
}

func TestCmpOps(t *testing.T) {
	type tc struct {
		op   CmpOp
		cmp  int
		want bool
	}
	for _, c := range []tc{
		{Eq, 0, true}, {Eq, 1, false},
		{Ne, 1, true}, {Ne, 0, false},
		{Lt, -1, true}, {Lt, 0, false},
		{Le, 0, true}, {Le, 1, false},
		{Gt, 1, true}, {Gt, 0, false},
		{Ge, 0, true}, {Ge, -1, false},
	} {
		if got := c.op.Holds(c.cmp, true); got != c.want {
			t.Errorf("%s.Holds(%d) = %v", c.op, c.cmp, got)
		}
		if c.op.Holds(c.cmp, false) {
			t.Errorf("%s.Holds(incomparable) should be false", c.op)
		}
		if c.op.String() == "" {
			t.Error("empty operator string")
		}
	}
}

func TestCondCombinators(t *testing.T) {
	a := LabelIs{0, "A"}
	b := LabelIs{1, "B"}
	if AndAll() != nil || AndAll(nil, True{}) != nil {
		t.Fatal("AndAll of nothing should be nil")
	}
	if AndAll(a) != Cond(a) {
		t.Fatal("AndAll of one is itself")
	}
	if _, ok := AndAll(a, b).(And); !ok {
		t.Fatal("AndAll of two is And")
	}
	if OrAll() != nil {
		t.Fatal("OrAll of nothing should be nil")
	}
	if _, ok := OrAll(a, True{}).(True); !ok {
		t.Fatal("OrAll with True short-circuits")
	}
	if _, ok := OrAll(a, b).(Or); !ok {
		t.Fatal("OrAll of two is Or")
	}
}

func TestVarsAndCondSize(t *testing.T) {
	c := Or{
		And{LabelIs{2, "Article"}, LabelIs{0, "Professor"}},
		And{EdgeIs{1, 2, "takes"}, AttrCmpAttr{X: 3, AttrX: "a", Y: 4, AttrY: "b"}},
	}
	vars := Vars(c)
	for _, v := range []int{0, 1, 2, 3, 4} {
		if !vars[v] {
			t.Fatalf("Vars = %v, missing %d", vars, v)
		}
	}
	if CondSize(c) != 4 {
		t.Fatalf("CondSize = %d", CondSize(c))
	}
	if CondSize(nil) != 0 || CondSize(True{}) != 0 {
		t.Fatal("trivial conditions have size 0")
	}
}

func TestDNF(t *testing.T) {
	a, b, c, d := LabelIs{0, "a"}, LabelIs{0, "b"}, LabelIs{0, "c"}, LabelIs{0, "d"}
	// (a ∨ b) ∧ (c ∨ d) → 4 clauses of 2 atoms.
	clauses := DNF(And{Or{a, b}, Or{c, d}})
	if len(clauses) != 4 {
		t.Fatalf("DNF clauses = %d", len(clauses))
	}
	for _, cl := range clauses {
		if len(cl) != 2 {
			t.Fatalf("clause = %v", cl)
		}
	}
	if DNF(nil) != nil {
		t.Fatal("DNF(nil) should be nil")
	}
	if got := DNF(True{}); len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("DNF(true) = %v", got)
	}
	if got := DNF(a); len(got) != 1 || len(got[0]) != 1 {
		t.Fatalf("DNF(atom) = %v", got)
	}
}

func TestFromCQ(t *testing.T) {
	q := cq.MustParse(`q(x) :- Student(x), advisorOf(y1, x), takesCourse(x, z)`)
	p := FromCQ(q)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Vertices) != 3 || len(p.Edges) != 2 {
		t.Fatalf("pattern: %d vertices, %d edges", len(p.Vertices), len(p.Edges))
	}
	x := p.VertexByName("x")
	if !p.Vertices[x].Distinguished {
		t.Fatal("x should be distinguished")
	}
	if p.Vertices[x].Label != "Student" {
		t.Fatalf("label of x = %q", p.Vertices[x].Label)
	}
	if p.Vertices[p.VertexByName("y1")].Label != Wildcard {
		t.Fatal("y1 should be wildcard")
	}
	for _, e := range p.Edges {
		if e.Match == nil {
			t.Fatal("CQ-derived edges carry their atom as matching condition")
		}
	}
	// Multiple concept atoms on one variable: extra labels become conjuncts.
	q2 := cq.MustParse(`q(x) :- Student(x), Employee(x)`)
	p2 := FromCQ(q2)
	if CondSize(p2.Vertices[0].Match) != 2 {
		t.Fatalf("Match = %v", p2.Vertices[0].Match)
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []*Pattern{
		{Vertices: []Vertex{{Name: "x", Label: ""}}},
		{Vertices: []Vertex{{Name: "x", Label: "*", Match: LabelIs{5, "A"}}}},
		{Vertices: []Vertex{{Name: "x", Label: "*", Omit: EdgeIs{0, 9, "p"}}}},
		{Vertices: []Vertex{{Name: "x", Label: "*"}}, Edges: []Edge{{From: 0, To: 3, Label: "p"}}},
		{Vertices: []Vertex{{Name: "x", Label: "*"}}, Edges: []Edge{{From: 0, To: 0, Label: ""}}},
		{Vertices: []Vertex{{Name: "x", Label: "*"}, {Name: "x", Label: "*"}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("pattern %d should fail validation", i)
		}
	}
}

func TestAnswerSet(t *testing.T) {
	s := NewAnswerSet()
	if !s.Add(Answer{1, 2}) || s.Add(Answer{1, 2}) {
		t.Fatal("dedup failed")
	}
	if !s.Add(Answer{1, Omitted}) {
		t.Fatal("omitted-entry answer should be distinct")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if len(s.Answers()) != 2 {
		t.Fatal("Answers length mismatch")
	}
}

// TestAnswerSetGrowth checks the packed store and its index against a map
// model through many index doublings: same distinct answers, kept in
// first-insertion order, duplicates rejected wherever they probe.
func TestAnswerSetGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewAnswerSet()
	seen := make(map[[2]graph.VID]bool)
	var want []Answer
	for i := 0; i < 20000; i++ {
		a := Answer{graph.VID(rng.Intn(200)), graph.VID(rng.Intn(60))}
		if rng.Intn(10) == 0 {
			a[1] = Omitted
		}
		k := [2]graph.VID{a[0], a[1]}
		if got := s.Add(a); got == seen[k] {
			t.Fatalf("Add(%v) = %v after %d inserts, want %v", a, got, i, !seen[k])
		}
		if !seen[k] {
			seen[k] = true
			want = append(want, slices.Clone(a))
		}
	}
	if s.Len() != len(want) || !reflect.DeepEqual(s.Answers(), want) {
		t.Fatalf("%d answers, want %d in first-insertion order", s.Len(), len(want))
	}

	// Zero-arity answers (a boolean query's): the empty tuple, once.
	z := NewAnswerSet()
	if !z.Add(Answer{}) || z.Add(nil) || z.Len() != 1 || len(z.At(0)) != 0 {
		t.Fatal("the empty answer must be added exactly once")
	}
}

func TestWildcardEdgeNoCondition(t *testing.T) {
	b := graph.NewBuilder(nil)
	b.AddLabel("u", "A")
	b.AddLabel("v", "B")
	b.AddEdge("u", "p", "v")
	g := b.Freeze()
	p := &Pattern{
		Vertices: []Vertex{
			{Name: "x", Label: "A", Distinguished: true},
			{Name: "y", Label: "B", Distinguished: true},
		},
		Edges: []Edge{{From: 0, To: 1, Label: Wildcard}},
	}
	res := EnumerateNaive(p, g)
	if res.Len() != 1 {
		t.Fatalf("wildcard edge matches = %d", res.Len())
	}
	// Reversed pattern edge must not match.
	p.Edges[0] = Edge{From: 1, To: 0, Label: Wildcard}
	if res := EnumerateNaive(p, g); res.Len() != 0 {
		t.Fatalf("reversed wildcard edge matches = %d", res.Len())
	}
}

func TestHomomorphismSemantics(t *testing.T) {
	// Two pattern vertices may map to the same graph vertex.
	b := graph.NewBuilder(nil)
	b.AddLabel("u", "A")
	b.AddEdge("u", "p", "u")
	g := b.Freeze()
	p := &Pattern{
		Vertices: []Vertex{
			{Name: "x", Label: "A", Distinguished: true},
			{Name: "y", Label: "A", Distinguished: true},
		},
		Edges: []Edge{{From: 0, To: 1, Label: "p"}},
	}
	res := EnumerateNaive(p, g)
	if res.Len() != 1 {
		t.Fatalf("homomorphism (self-loop) matches = %d", res.Len())
	}
}

func BenchmarkDNF(b *testing.B) {
	c := Or{
		And{Or{LabelIs{0, "a"}, LabelIs{0, "b"}}, Or{LabelIs{1, "c"}, LabelIs{1, "d"}}},
		And{EdgeIs{0, 1, "p"}, Or{LabelIs{2, "e"}, EdgeExists{2, "q", true}}},
	}
	for i := 0; i < b.N; i++ {
		if len(DNF(c)) == 0 {
			b.Fatal("empty DNF")
		}
	}
}

func BenchmarkEvalCond(b *testing.B) {
	g := fig2Graph()
	p := q5Prime()
	m := Mapping{0, 2, 5, Omitted}
	cond := p.Vertices[2].Match
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Eval(cond, m, g)
	}
}
