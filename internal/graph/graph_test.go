package graph

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func buildSample(t testing.TB) *Graph {
	b := NewBuilder(nil)
	b.AddLabel("ann", "PhD")
	b.AddLabel("ann", "Student")
	b.AddLabel("bob", "Professor")
	b.AddLabel("course1", "Course")
	b.AddEdge("bob", "advisorOf", "ann")
	b.AddEdge("ann", "takesCourse", "course1")
	b.AddEdge("ann", "takesCourse", "course1") // duplicate, must dedupe
	b.SetAttr("course1", "year", Int(2023))
	b.SetAttr("ann", "name", String("Ann"))
	return b.Freeze()
}

func TestBuilderBasics(t *testing.T) {
	g := buildSample(t)
	if got := g.NumVertices(); got != 3 {
		t.Fatalf("NumVertices = %d, want 3", got)
	}
	if got := g.NumEdges(); got != 2 {
		t.Fatalf("NumEdges = %d (duplicate edge not deduped), want 2", got)
	}
	ann := g.VertexByName("ann")
	if ann == NoVID {
		t.Fatal("vertex ann missing")
	}
	if g.Name(ann) != "ann" {
		t.Fatalf("Name(ann) = %q", g.Name(ann))
	}
	if g.VertexByName("nope") != NoVID {
		t.Fatal("unexpected vertex for unknown name")
	}
}

func TestLabels(t *testing.T) {
	g := buildSample(t)
	ann := g.VertexByName("ann")
	phd := g.Symbols.Lookup("PhD")
	student := g.Symbols.Lookup("Student")
	prof := g.Symbols.Lookup("Professor")
	if !g.HasLabel(ann, phd) || !g.HasLabel(ann, student) {
		t.Fatal("ann should carry PhD and Student")
	}
	if g.HasLabel(ann, prof) {
		t.Fatal("ann should not be Professor")
	}
	if len(g.Labels(ann)) != 2 {
		t.Fatalf("Labels(ann) = %v, want 2 labels", g.Labels(ann))
	}
	if got := g.LabelFrequency(phd); got != 1 {
		t.Fatalf("LabelFrequency(PhD) = %d", got)
	}
	vs := g.VerticesByLabel(student)
	if len(vs) != 1 || vs[0] != ann {
		t.Fatalf("VerticesByLabel(Student) = %v", vs)
	}
	if g.DistinctVertexLabels() != 4 {
		t.Fatalf("DistinctVertexLabels = %d, want 4", g.DistinctVertexLabels())
	}
	if g.DistinctEdgeLabels() != 2 {
		t.Fatalf("DistinctEdgeLabels = %d, want 2", g.DistinctEdgeLabels())
	}
}

func TestAdjacency(t *testing.T) {
	g := buildSample(t)
	ann := g.VertexByName("ann")
	bob := g.VertexByName("bob")
	c1 := g.VertexByName("course1")
	adv := g.Symbols.Lookup("advisorOf")
	takes := g.Symbols.Lookup("takesCourse")

	if !g.HasEdge(bob, adv, ann) {
		t.Fatal("missing edge bob-advisorOf->ann")
	}
	if g.HasEdge(ann, adv, bob) {
		t.Fatal("reverse edge should not exist")
	}
	if !g.HasAnyEdge(ann, c1) || g.HasAnyEdge(c1, ann) {
		t.Fatal("HasAnyEdge wrong")
	}
	if !g.HasOutLabel(ann, takes) || g.HasOutLabel(ann, adv) {
		t.Fatal("HasOutLabel wrong")
	}
	if !g.HasInLabel(ann, adv) {
		t.Fatal("HasInLabel wrong")
	}
	if got := g.OutByLabel(ann, takes); len(got) != 1 || got[0].To != c1 {
		t.Fatalf("OutByLabel = %v", got)
	}
	if got := g.InByLabel(c1, takes); len(got) != 1 || got[0].To != ann {
		t.Fatalf("InByLabel = %v", got)
	}
	if g.OutDegree(ann) != 1 || g.InDegree(ann) != 1 || g.Degree(ann) != 2 {
		t.Fatalf("degrees of ann: out=%d in=%d", g.OutDegree(ann), g.InDegree(ann))
	}
	if g.EdgeLabelFrequency(takes) != 1 {
		t.Fatalf("EdgeLabelFrequency(takes) = %d", g.EdgeLabelFrequency(takes))
	}
}

func TestAttributes(t *testing.T) {
	g := buildSample(t)
	c1 := g.VertexByName("course1")
	year := g.Symbols.Lookup("year")
	v, ok := g.Attribute(c1, year)
	if !ok || v.Kind != KindInt || v.Int != 2023 {
		t.Fatalf("Attribute(course1, year) = %v, %v", v, ok)
	}
	if _, ok := g.Attribute(c1, g.Symbols.Intern("absent")); ok {
		t.Fatal("unexpected attribute")
	}
	if n := len(g.Attributes(c1)); n != 1 {
		t.Fatalf("Attributes(course1) has %d entries", n)
	}
}

// TestAttrLastWriteWins: of repeated writes to one attribute, Freeze
// keeps the last, also on a vertex with enough attribute writes (13 or
// more) that an unstable sort would reorder them.
func TestAttrLastWriteWins(t *testing.T) {
	for _, others := range []int{0, 12} {
		b := NewBuilder(nil)
		b.SetAttr("v", "a", Int(1))
		for i := 0; i < others; i++ {
			b.SetAttr("v", fmt.Sprint("b", i), Int(int64(i)))
		}
		b.SetAttr("v", "a", Int(2))
		g := b.Freeze()
		got, ok := g.Attribute(g.VertexByName("v"), g.Symbols.Lookup("a"))
		if !ok || got.Int != 2 {
			t.Fatalf("%d writes: Attribute = %v, %v; want 2", others+2, got, ok)
		}
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		cmp  int
		ok   bool
	}{
		{Int(1), Int(2), -1, true},
		{Int(2), Int(2), 0, true},
		{Float(2.5), Int(2), 1, true},
		{Int(2), Float(2.0), 0, true},
		{String("a"), String("b"), -1, true},
		{String("b"), String("b"), 0, true},
		{String("c"), String("b"), 1, true},
		{String("1"), Int(1), 0, false},
		{Int(1), String("1"), 0, false},
	}
	for i, c := range cases {
		cmp, ok := c.a.Compare(c.b)
		if ok != c.ok || (ok && cmp != c.cmp) {
			t.Errorf("case %d: Compare(%v,%v) = %d,%v want %d,%v", i, c.a, c.b, cmp, ok, c.cmp, c.ok)
		}
	}
}

func TestValueHelpers(t *testing.T) {
	if f, ok := Int(3).AsFloat(); !ok || f != 3 {
		t.Fatal("Int.AsFloat")
	}
	if f, ok := Float(2.5).AsFloat(); !ok || f != 2.5 {
		t.Fatal("Float.AsFloat")
	}
	if _, ok := String("x").AsFloat(); ok {
		t.Fatal("String.AsFloat should fail")
	}
	for _, v := range []Value{Int(3), Float(2.5), String("x")} {
		if v.String2() == "" {
			t.Fatal("empty debug string")
		}
	}
}

// TestAdjacencyInvariant checks, on random graphs, that out- and in-adjacency
// agree (every out half-edge has a matching in half-edge) and that per-label
// ranges partition the adjacency.
func TestAdjacencyInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder(nil)
		n := 2 + rng.Intn(20)
		labels := []string{"a", "b", "c"}
		for i := 0; i < n; i++ {
			b.AddLabel(fmt.Sprintf("v%d", i), labels[rng.Intn(len(labels))])
		}
		m := rng.Intn(60)
		for i := 0; i < m; i++ {
			b.AddEdge(fmt.Sprintf("v%d", rng.Intn(n)), labels[rng.Intn(len(labels))], fmt.Sprintf("v%d", rng.Intn(n)))
		}
		g := b.Freeze()

		total := 0
		for v := 0; v < g.NumVertices(); v++ {
			for _, h := range g.Out(VID(v)) {
				found := false
				for _, h2 := range g.In(h.To) {
					if h2.Label == h.Label && h2.To == VID(v) {
						found = true
						break
					}
				}
				if !found {
					return false
				}
				if !g.HasEdge(VID(v), h.Label, h.To) {
					return false
				}
			}
			total += g.OutDegree(VID(v))
			// Per-label ranges must cover the whole adjacency exactly once.
			covered := 0
			for _, l := range []string{"a", "b", "c"} {
				covered += len(g.OutByLabel(VID(v), g.Symbols.Lookup(l)))
			}
			if covered != g.OutDegree(VID(v)) {
				return false
			}
		}
		return total == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHasEdge(b *testing.B) {
	bld := NewBuilder(nil)
	const n = 2000
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		bld.Vertex(fmt.Sprintf("v%d", i))
	}
	for i := 0; i < 20000; i++ {
		bld.AddEdge(fmt.Sprintf("v%d", rng.Intn(n)), "p", fmt.Sprintf("v%d", rng.Intn(n)))
	}
	g := bld.Freeze()
	p := g.Symbols.Lookup("p")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.HasEdge(VID(i%n), p, VID((i*7)%n))
	}
}
