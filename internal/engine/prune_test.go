package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"ogpa/internal/core"
	"ogpa/internal/graph"
	"ogpa/internal/rewrite"
	"ogpa/internal/testkb"
)

// q5Graph is LUBM in miniature: two departments, each with four student
// members, a faculty member who works for it and a chair who heads it,
// plus isolated fillers. No hasMember, advisor or Chair triple exists.
func q5Graph() *graph.Graph {
	b := graph.NewBuilder(nil)
	for d := 0; d < 2; d++ {
		dept := fmt.Sprintf("d%d", d)
		b.AddLabel(dept, "Department")
		for i := 0; i < 4; i++ {
			s := fmt.Sprintf("s%d_%d", d, i)
			b.AddLabel(s, "Student")
			b.AddEdge(s, "memberOf", dept)
		}
		b.AddLabel(fmt.Sprintf("f%d", d), "Faculty")
		b.AddEdge(fmt.Sprintf("f%d", d), "worksFor", dept)
		b.AddLabel(fmt.Sprintf("c%d", d), "Faculty")
		b.AddEdge(fmt.Sprintf("c%d", d), "headOf", dept)
	}
	for i := 0; i < 20; i++ {
		b.Vertex(fmt.Sprintf("z%d", i))
	}
	return b.Freeze()
}

// q5Pattern is LUBM Q5 (q(x) :- Person(x), memberOf(x, y), Department(y))
// the way GenOGP rewrites it: x's condition is a disjunction over Person's
// subconcepts and the roles that imply it, and edge is the x–y condition.
// yOmit is y's omission condition.
func q5Pattern(xMatch, edge, yOmit core.Cond) *core.Pattern {
	return &core.Pattern{
		Vertices: []core.Vertex{
			{Name: "x", Label: core.Wildcard, Distinguished: true, Match: xMatch},
			{Name: "y", Label: core.Wildcard, Match: core.LabelIs{X: 1, Label: "Department"}, Omit: yOmit},
		},
		Edges: []core.Edge{{From: 0, To: 1, Label: "memberOf", Match: edge}},
	}
}

// checkNaive prepares and runs p and compares the answers with the
// brute-force evaluator's; it returns the plan.
func checkNaive(t *testing.T, what string, p *core.Pattern, g *graph.Graph) *Plan {
	t.Helper()
	want := fmt.Sprint(core.EnumerateNaive(p, g).Names(g))
	pl, err := Prepare(p, g)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	ans, _, err := pl.Run(Options{Workers: 1})
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if got := fmt.Sprint(ans.Names(g)); got != want {
		t.Fatalf("%s:\nplan answers %s\nbrute force  %s\npattern:\n%s", what, got, want, p)
	}
	return pl
}

// TestAbsentLabelDisjunctKeepsEdgeIndexed: one disjunct of Q5's x–y edge
// is over hasMember, which G lacks. Pruned away, the other three disjuncts
// each pin a data edge between the endpoints, so the edge is enumerated
// from CSR adjacency instead of checked per candidate pair, and the BDD is
// what the pattern without the absent disjuncts compiles to.
func TestAbsentLabelDisjunctKeepsEdgeIndexed(t *testing.T) {
	g := q5Graph()
	person := core.OrAll(core.LabelIs{X: 0, Label: "Student"}, core.LabelIs{X: 0, Label: "Faculty"},
		core.LabelIs{X: 0, Label: "Chair"}, core.EdgeExists{X: 0, Label: "advisor", Out: true})
	member := core.OrAll(core.EdgeIs{X: 1, Y: 0, Label: "hasMember"}, core.EdgeIs{X: 0, Y: 1, Label: "headOf"},
		core.EdgeIs{X: 0, Y: 1, Label: "memberOf"}, core.EdgeIs{X: 0, Y: 1, Label: "worksFor"})
	pl := checkNaive(t, "Q5", q5Pattern(person, member, nil), g)
	st := pl.Stats()
	if st.IndexedEdges != 1 || st.PatternEdges != 1 || st.AdjPairs == 0 {
		t.Fatalf("indexed %d of %d edges, %d adjacency pairs; want the edge indexed", st.IndexedEdges, st.PatternEdges, st.AdjPairs)
	}
	if ans, _, err := pl.Run(Options{Workers: 1}); err != nil || ans.Len() != 12 {
		t.Fatalf("%d answers, err %v; want the 8 students and 4 faculty", ans.Len(), err)
	}
	present := q5Pattern(
		core.OrAll(core.LabelIs{X: 0, Label: "Student"}, core.LabelIs{X: 0, Label: "Faculty"}),
		core.OrAll(core.EdgeIs{X: 0, Y: 1, Label: "headOf"}, core.EdgeIs{X: 0, Y: 1, Label: "memberOf"}, core.EdgeIs{X: 0, Y: 1, Label: "worksFor"}),
		nil)
	plPresent, err := Prepare(present, g)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.BDDNodes, plPresent.Stats().BDDNodes; got != want {
		t.Fatalf("BDD of %d nodes; the pattern without absent disjuncts compiles to %d", got, want)
	}
}

// TestAbsentLabelEdgeEmptiesPlan: when no disjunct of the x–y edge can
// hold, Q(G) = ∅ is proved at Prepare — unless y can be omitted, and then
// every answer has y = ⊥. An omission condition that itself can never
// hold does not make y omittable.
func TestAbsentLabelEdgeEmptiesPlan(t *testing.T) {
	g := q5Graph()
	person := core.OrAll(core.LabelIs{X: 0, Label: "Student"}, core.LabelIs{X: 0, Label: "Faculty"})
	// "Student" labels vertices only, never an edge.
	never := core.OrAll(core.EdgeIs{X: 1, Y: 0, Label: "hasMember"}, core.EdgeIs{X: 0, Y: 1, Label: "advisor"},
		core.EdgeIs{X: 0, Y: 1, Label: "Student"})
	for _, c := range []struct {
		name  string
		yOmit core.Cond
		empty bool
		rows  int
	}{
		{"y not omittable", nil, true, 0},
		{"y omission never holds", core.LabelIs{X: 1, Label: "Chair"}, true, 0},
		{"y omittable", core.EdgeExists{X: 0, Label: "memberOf", Out: true}, false, 8},
	} {
		pl := checkNaive(t, c.name, q5Pattern(person, never, c.yOmit), g)
		ans, _, err := pl.Run(Options{Workers: 1})
		if err != nil || pl.empty != c.empty || ans.Len() != c.rows {
			t.Fatalf("%s: plan empty %v, %d answers, err %v; want empty %v, %d answers", c.name, pl.empty, ans.Len(), err, c.empty, c.rows)
		}
		if st := pl.Stats(); st.IndexedEdges != 1 || st.AdjPairs != 0 {
			t.Fatalf("%s: indexed %d edges, %d adjacency pairs; want the edge indexed with empty rows", c.name, st.IndexedEdges, st.AdjPairs)
		}
	}
	// A plain CQ edge over a role G lacks is the same proof.
	cq := &core.Pattern{
		Vertices: []core.Vertex{{Label: "Student", Distinguished: true}, {Label: core.Wildcard}},
		Edges:    []core.Edge{{From: 0, To: 1, Label: "hasMember"}},
	}
	if pl := checkNaive(t, "plain CQ", cq, g); !pl.empty {
		t.Fatal("plain CQ over an absent role: plan not empty at Prepare")
	}
}

// absentConcepts and absentRoles are names the padded random KBs give no
// vertex (as a concept) or no edge (as a role): never interned, an
// individual's name, and a role used as a concept and back.
var absentConcepts = []string{"Zz", "i0", "p"}
var absentRoles = []string{"zz", "i1", "A"}

// withAbsent returns p with conditions that also mention labels G lacks:
// absent disjuncts and absent conjuncts on vertex matches, omissions and
// edges, whole edges and omissions that can never hold, and — so that an
// edge index built from the wrong clauses loses answers — satisfiable
// edge disjuncts that pin no data edge between the endpoints.
func withAbsent(rng *rand.Rand, p *core.Pattern) *core.Pattern {
	n := len(p.Vertices)
	deadAtom := func(u int) core.Cond {
		switch rng.Intn(3) {
		case 0:
			return core.LabelIs{X: u, Label: absentConcepts[rng.Intn(len(absentConcepts))]}
		case 1:
			return core.EdgeExists{X: u, Label: absentRoles[rng.Intn(len(absentRoles))], Out: rng.Intn(2) == 0}
		}
		return core.EdgeIs{X: u, Y: rng.Intn(n), Label: absentRoles[rng.Intn(len(absentRoles))]}
	}
	either := func(a, b core.Cond) core.Cond {
		if rng.Intn(2) == 0 {
			return core.Or{L: a, R: b}
		}
		return core.Or{L: b, R: a}
	}
	out := &core.Pattern{Vertices: append([]core.Vertex(nil), p.Vertices...), Edges: append([]core.Edge(nil), p.Edges...)}
	for u := range out.Vertices {
		v := &out.Vertices[u]
		if v.Match != nil {
			switch rng.Intn(8) {
			case 0, 1, 2:
				v.Match = either(v.Match, deadAtom(u))
			case 3:
				v.Match = either(v.Match, core.And{L: v.Match, R: deadAtom(u)})
			case 4:
				v.Match = core.And{L: v.Match, R: deadAtom(u)}
			}
		}
		if v.Omit != nil {
			switch rng.Intn(6) {
			case 0, 1:
				v.Omit = either(v.Omit, deadAtom(u))
			case 2:
				v.Omit = deadAtom(u)
			}
		}
	}
	for ei := range out.Edges {
		e := &out.Edges[ei]
		cond := e.Match
		if cond == nil {
			cond = core.EdgeIs{X: e.From, Y: e.To, Label: e.Label}
		}
		absentEdge := core.EdgeIs{X: e.From, Y: e.To, Label: absentRoles[rng.Intn(len(absentRoles))]}
		if rng.Intn(2) == 0 {
			absentEdge.X, absentEdge.Y = e.To, e.From
		}
		switch rng.Intn(8) {
		case 0, 1, 2:
			e.Match = either(cond, absentEdge)
		case 3:
			e.Match = either(cond, core.And{L: core.EdgeIs{X: e.From, Y: e.To, Label: "p"}, R: deadAtom(e.To)})
		case 4:
			unpinned := core.And{L: core.EdgeExists{X: e.From, Label: "q", Out: true}, R: core.LabelIs{X: e.To, Label: "B"}}
			e.Match = either(either(cond, absentEdge), unpinned)
		case 5:
			e.Match = absentEdge
		}
	}
	return out
}

// TestAbsentLabelPruningEquivalence is TestNarrowedSeedingEquivalence's
// sweep over patterns that mention labels G lacks (withAbsent): the
// generated OGP and the plain CQ must still return what the brute-force
// evaluator returns for the same pattern, from both builds.
func TestAbsentLabelPruningEquivalence(t *testing.T) {
	empty, indexedPast := 0, 0
	check := func(seed int64, p *core.Pattern, g *graph.Graph) {
		pl := checkNaive(t, fmt.Sprintf("seed %d", seed), p, g)
		if pl.empty {
			empty++
		}
		for ei, e := range p.Edges {
			if or, ok := e.Match.(core.Or); ok && pl.m.edgeIndexab[ei] && (isAbsentEdge(or.L) || isAbsentEdge(or.R)) {
				indexedPast++
			}
		}
	}
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb, abox, q := testkb.RandomKB(rng)
		for i := 0; i < 45; i++ {
			a, b := fmt.Sprintf("i%d", rng.Intn(24)), fmt.Sprintf("i%d", rng.Intn(24))
			if rng.Intn(3) == 0 {
				abox.AddConcept(string(rune('A'+rng.Intn(4))), a)
			} else {
				abox.AddRole(string(rune('p'+rng.Intn(3))), a, b)
			}
		}
		g := abox.Graph(nil)
		check(seed, withAbsent(rng, core.FromCQ(q)), g)
		if res, err := rewrite.Generate(q, tb); err == nil {
			check(seed, withAbsent(rng, res.Pattern), g)
		}
	}
	// 65 empty plans and 149 edges indexed past an absent disjunct when
	// written; a sweep that stops reaching either is no test of them.
	if empty < 30 || indexedPast < 75 {
		t.Fatalf("%d plans proved empty, %d edges indexed past an absent disjunct", empty, indexedPast)
	}
}

func isAbsentEdge(c core.Cond) bool {
	e, ok := c.(core.EdgeIs)
	return ok && (e.Label == "zz" || e.Label == "i1" || e.Label == "A")
}
