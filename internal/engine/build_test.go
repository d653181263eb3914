package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ogpa/internal/core"
	"ogpa/internal/dllite"
	"ogpa/internal/graph"
	"ogpa/internal/perfectref"
	"ogpa/internal/rewrite"
	"ogpa/internal/sbdd"
	"ogpa/internal/testkb"
)

// seedGraph is 40 vertices: three A-labelled hubs a0..a2, each with a
// p-edge to three partners of its own, and 28 isolated fillers.
func seedGraph() *graph.Graph {
	b := graph.NewBuilder(nil)
	for i := 0; i < 3; i++ {
		a := fmt.Sprintf("a%d", i)
		b.AddLabel(a, "A")
		for j := 0; j < 3; j++ {
			b.AddEdge(a, "p", fmt.Sprintf("b%d_%d", i, j))
		}
	}
	for i := 0; i < 28; i++ {
		b.Vertex(fmt.Sprintf("z%d", i))
	}
	return b.Freeze()
}

// TestSeedCandidates pins what ordered seeding hands to the local filter:
// an unlabelled vertex joined to a labelled one is seeded from that
// partner's neighbour rows, and a pattern that pins nothing anywhere
// still starts from |V|.
func TestSeedCandidates(t *testing.T) {
	g := seedGraph()
	nv := g.NumVertices()
	edge := []core.Edge{{From: 0, To: 1, Label: "p"}}
	cases := []struct {
		name     string
		vertices []core.Vertex
		seeds    int
		pools    [2]int
	}{
		{"labelled partner", []core.Vertex{{Label: "A", Distinguished: true}, {Label: core.Wildcard}}, 3 + 9, [2]int{3, 9}},
		// x0 takes |V| (nothing is seeded yet); its condition leaves the 3
		// sources, few enough to seed x1 from their rows.
		{"nothing pinned", []core.Vertex{{Label: core.Wildcard, Distinguished: true,
			Match: core.EdgeExists{X: 0, Label: "p", Out: true}}, {Label: core.Wildcard}}, nv + 9, [2]int{3, 9}},
		{"nothing pinned, no condition", []core.Vertex{{Label: core.Wildcard, Distinguished: true}, {Label: core.Wildcard}}, 2 * nv, [2]int{3, 9}},
	}
	for _, c := range cases {
		p := &core.Pattern{Vertices: c.vertices, Edges: edge}
		pl, err := Prepare(p, g)
		if err != nil {
			t.Fatal(err)
		}
		if got := pl.Stats().SeedCandidates; got != c.seeds {
			t.Errorf("%s: SeedCandidates = %d, want %d (|V| = %d)", c.name, got, c.seeds, nv)
		}
		for u, want := range c.pools {
			if got := len(pl.CandidatePool(u)); got != want {
				t.Errorf("%s: |pool(%d)| = %d, want %d", c.name, u, got, want)
			}
		}
		ans, _, err := pl.Run(Options{Workers: 1})
		if err != nil || ans.Len() != 3 {
			t.Errorf("%s: %d answers, err %v; want 3", c.name, ans.Len(), err)
		}
	}
}

// TestPlanKeepsNoBuildState checks what a cached Plan pins: after Prepare
// every build-only field is nil and the pools are the plan's own slices,
// so the next Prepare's scratch cannot write through them.
func TestPlanKeepsNoBuildState(t *testing.T) {
	g := seedGraph()
	p := &core.Pattern{
		Vertices: []core.Vertex{{Label: "A", Distinguished: true}, {Label: core.Wildcard}},
		Edges:    []core.Edge{{From: 0, To: 1, Label: "p"}},
	}
	pl, err := Prepare(p, g)
	if err != nil {
		t.Fatal(err)
	}
	m := pl.m
	if m.sc != nil || m.atomIdx != nil || m.localClauses != nil || m.pairClauses != nil || m.seedBuckets != nil {
		t.Fatalf("build-only state survives Prepare: %+v", m)
	}
	before := fmt.Sprint(pl.CandidatePool(0), pl.CandidatePool(1))
	// A different pattern over the same graph reuses the pooled scratch.
	q := &core.Pattern{
		Vertices: []core.Vertex{{Label: core.Wildcard, Distinguished: true}, {Label: core.Wildcard}},
		Edges:    []core.Edge{{From: 1, To: 0, Label: "p"}},
	}
	if _, err := Prepare(q, g); err != nil {
		t.Fatal(err)
	}
	if after := fmt.Sprint(pl.CandidatePool(0), pl.CandidatePool(1)); after != before {
		t.Fatalf("a later Prepare changed a finished plan's pools:\nbefore %s\nafter  %s", before, after)
	}
	for u := range p.Vertices {
		if pool := pl.CandidatePool(u); cap(pool) != len(pool) {
			t.Errorf("pool(%d): cap %d for %d candidates; the plan should keep exact-size copies", u, cap(pool), len(pool))
		}
	}
}

// TestScratchRegrowsWithGraph runs a Prepare over a small graph and then
// one over a larger graph: the pooled sets sized for the first must be
// replaced, as happens when a live KB grows between two queries.
func TestScratchRegrowsWithGraph(t *testing.T) {
	p := &core.Pattern{
		Vertices: []core.Vertex{{Label: core.Wildcard, Distinguished: true}, {Label: core.Wildcard}},
		Edges:    []core.Edge{{From: 0, To: 1, Label: "p", Match: core.Or{L: core.EdgeIs{X: 0, Y: 1, Label: "p"}, R: core.EdgeIs{X: 1, Y: 0, Label: "p"}}}},
	}
	for _, n := range []int{3, 700, 70, 5000} {
		b := graph.NewBuilder(nil)
		for i := 0; i+1 < n; i++ {
			b.AddEdge(fmt.Sprintf("v%d", i), "p", fmt.Sprintf("v%d", i+1))
		}
		pl, err := Prepare(p, b.Freeze())
		if err != nil {
			t.Fatal(err)
		}
		ans, _, err := pl.Run(Options{Workers: 1})
		if err != nil || ans.Len() != n {
			t.Fatalf("|V| = %d: %d answers, err %v", n, ans.Len(), err)
		}
	}
}

// midBuild returns a matcher as Prepare has it between compileConditions
// and buildOMDAG, for tests that call the per-candidate probes directly.
func midBuild(p *core.Pattern, g *graph.Graph) *matcher {
	m := &matcher{
		p: p, g: g,
		atomIdx: make(map[core.Cond]int),
		bdd:     sbdd.New(),
		sc:      getScratch(g.NumVertices(), len(p.Vertices)),
	}
	m.compileConditions()
	return m
}

// TestProbesDoNotAllocate guards the per-candidate cost of the build
// phase: one localPass and one pairwiseOK over compiled clauses allocate
// nothing (they used to build a variable set per atom per candidate).
func TestProbesDoNotAllocate(t *testing.T) {
	b := graph.NewBuilder(nil)
	b.AddLabel("a", "A")
	b.AddEdge("a", "p", "c")
	b.AddEdge("c", "q", "a")
	b.SetAttr("a", "age", graph.Int(30))
	b.SetAttr("c", "age", graph.Int(20))
	g := b.Freeze()
	p := &core.Pattern{
		Vertices: []core.Vertex{
			{Label: core.Wildcard, Distinguished: true, Match: core.Or{
				L: core.And{L: core.LabelIs{X: 0, Label: "A"}, R: core.AttrCmpConst{X: 0, Attr: "age", Op: core.Gt, C: graph.Int(25)}},
				R: core.And{L: core.EdgeExists{X: 0, Label: "q", Out: false}, R: core.EdgeIs{X: 0, Y: 1, Label: "p"}},
			}},
			{Label: core.Wildcard},
		},
		Edges: []core.Edge{{From: 0, To: 1, Label: "p", Match: core.Or{
			L: core.And{L: core.EdgeIs{X: 0, Y: 1, Label: "p"}, R: core.AttrCmpAttr{X: 0, AttrX: "age", Op: core.Gt, Y: 1, AttrY: "age"}},
			R: core.EdgeIs{X: 1, Y: 0, Label: "q"},
		}}},
	}
	m := midBuild(p, g)
	if m.pairClauses[0] == nil {
		t.Fatal("the edge has a clause with two pair-local atoms: pairwiseOK must evaluate it")
	}
	va, vc := g.VertexByName("a"), g.VertexByName("c")
	if !m.localPass(0, va) || m.localPass(0, vc) {
		t.Fatal("localPass(0, ·): want a in, c out")
	}
	if !m.pairwiseOK(0, va, vc) || m.pairwiseOK(0, vc, va) {
		t.Fatal("pairwiseOK(0, ·, ·): want (a,c) in, (c,a) out")
	}
	if n := testing.AllocsPerRun(100, func() {
		m.localPass(0, va)
		m.localPass(0, vc)
		m.pairwiseOK(0, va, vc)
		m.pairwiseOK(0, vc, va)
	}); n != 0 {
		t.Fatalf("localPass + pairwiseOK allocate %v times per run, want 0", n)
	}
}

// TestCompiledAtomsAgreeWithEval: every closure compileAtom builds
// answers as core.Eval does, on present and absent names, a ⊥ operand
// and incomparable values.
func TestCompiledAtomsAgreeWithEval(t *testing.T) {
	b := graph.NewBuilder(nil)
	b.AddLabel("a", "A")
	b.AddLabel("c", "C")
	b.AddEdge("a", "p", "c")
	b.SetAttr("a", "age", graph.Int(30))
	b.SetAttr("c", "age", graph.Int(20))
	b.SetAttr("c", "name", graph.String("carol"))
	g := b.Freeze()
	va, vc := g.VertexByName("a"), g.VertexByName("c")
	atoms := []core.Cond{
		core.LabelIs{X: 0, Label: "A"}, core.LabelIs{X: 0, Label: "NeverInterned"},
		core.EdgeIs{X: 0, Y: 1, Label: "p"}, core.EdgeIs{X: 0, Y: 1, Label: core.Wildcard}, core.EdgeIs{X: 0, Y: 1, Label: "NeverInterned"},
		core.EdgeExists{X: 0, Label: "p", Out: true}, core.EdgeExists{X: 0, Label: core.Wildcard, Out: false},
		core.SameAs{X: 0, Y: 1}, core.IsOmitted{X: 1},
		core.AttrCmpConst{X: 0, Attr: "age", Op: core.Gt, C: graph.Int(25)},
		core.AttrCmpConst{X: 0, Attr: "age", Op: core.Le, C: graph.Int(25)},
		core.AttrCmpConst{X: 0, Attr: "name", Op: core.Eq, C: graph.String("carol")}, // present on c only
		core.AttrCmpConst{X: 0, Attr: "name", Op: core.Ne, C: graph.Int(3)},          // incomparable on c
		core.AttrCmpConst{X: 0, Attr: "NeverInterned", Op: core.Eq, C: graph.Int(1)},
		core.AttrCmpConst{X: 0, Attr: core.Wildcard, Op: core.Eq, C: graph.Int(1)},
		core.AttrCmpAttr{X: 0, AttrX: "age", Op: core.Gt, Y: 1, AttrY: "age"},
		core.AttrCmpAttr{X: 0, AttrX: "age", Op: core.Ne, Y: 1, AttrY: "age"},
		core.AttrCmpAttr{X: 0, AttrX: "age", Op: core.Ne, Y: 1, AttrY: "name"}, // int against string, or absent
		core.AttrCmpAttr{X: 0, AttrX: "name", Op: core.Eq, Y: 1, AttrY: "name"},
		core.AttrCmpAttr{X: 0, AttrX: "age", Op: core.Eq, Y: 1, AttrY: "NeverInterned"},
	}
	mappings := []core.Mapping{
		{va, vc}, {vc, va}, {va, va}, {vc, vc},
		{core.Omitted, vc}, {va, core.Omitted}, {core.Omitted, core.Omitted},
	}
	m := midBuild(&core.Pattern{Vertices: []core.Vertex{{Label: core.Wildcard}, {Label: core.Wildcard}}}, g)
	for _, c := range atoms {
		fn := m.compileAtom(c)
		for _, mp := range mappings {
			if got, want := fn(mp), core.Eval(c, mp, g); got != want {
				t.Errorf("%s under %v: compiled %v, core.Eval %v", c, mp, got, want)
			}
		}
	}
}

// TestConcurrentPreparesShareNoScratch prepares over two graphs of
// different sizes from several goroutines at once (run under -race): each
// Prepare owns the scratch it took from the pool until it hands it back.
func TestConcurrentPreparesShareNoScratch(t *testing.T) {
	b := graph.NewBuilder(nil)
	for i := 0; i < 300; i++ {
		a := fmt.Sprintf("a%d", i)
		b.AddLabel(a, "A")
		b.AddEdge(a, "p", fmt.Sprintf("b%d", i%7))
	}
	small, large := seedGraph(), b.Freeze()
	p := &core.Pattern{
		Vertices: []core.Vertex{{Label: "A", Distinguished: true}, {Label: core.Wildcard}, {Label: core.Wildcard}},
		Edges:    []core.Edge{{From: 0, To: 1, Label: "p"}, {From: 2, To: 1, Label: "p"}},
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		g, want := small, 3
		if w%2 == 1 {
			g, want = large, 300
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				pl, err := Prepare(p, g)
				if err != nil {
					t.Error(err)
					return
				}
				if ans, _, err := pl.Run(Options{Workers: 1}); err != nil || ans.Len() != want {
					t.Errorf("|V| = %d: %d answers, err %v; want %d", g.NumVertices(), ans.Len(), err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// padABox adds 24 individuals and 45 random assertions over them to a
// random KB's ABox, so that a label bucket is well under |V|/4 and a
// pattern edge's far pool can lose members to refinement.
func padABox(rng *rand.Rand, abox *dllite.ABox) {
	for i := 0; i < 45; i++ {
		a, b := fmt.Sprintf("i%d", rng.Intn(24)), fmt.Sprintf("i%d", rng.Intn(24))
		if rng.Intn(3) == 0 {
			abox.AddConcept(string(rune('A'+rng.Intn(4))), a)
		} else {
			abox.AddRole(string(rune('p'+rng.Intn(3))), a, b)
		}
	}
}

// TestNarrowedSeedingEquivalence is the property test of seeding through
// a partner. The shared random KBs have at most five vertices and miss
// most role labels, so their sweeps reach seedPools' second stage twice
// in 24,000 seedings; here each of the same 100 TBoxes and queries runs
// over an ABox of 24 more individuals and 45 more assertions, where a label bucket
// is well under |V|/4. Both the generated OGP and the plain CQ must
// return what the brute-force evaluator returns for the same pattern,
// and their pools must hold every answer value.
func TestNarrowedSeedingEquivalence(t *testing.T) {
	narrowedPlans := 0
	check := func(seed int64, what string, p *core.Pattern, g *graph.Graph) {
		t.Helper()
		want := fmt.Sprint(core.EnumerateNaive(p, g).Names(g))
		// What SeedCandidates would be with the first and third stage only.
		m := midBuild(p, g)
		unnarrowed := 0
		for _, buckets := range m.seedBuckets {
			if buckets == nil {
				unnarrowed += g.NumVertices()
				continue
			}
			for _, l := range buckets {
				g.LabelBits(l, m.sc.nbrSeen)
			}
			unnarrowed += m.sc.nbrSeen.Count()
			m.sc.nbrSeen.Reset()
		}
		pl, err := Prepare(p, g)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ans, _, err := pl.Run(Options{Workers: 1})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := fmt.Sprint(ans.Names(g)); got != want {
			t.Fatalf("seed %d (%s):\nplan answers %s\nbrute force  %s\npattern:\n%s", seed, what, got, want, p)
		}
		dist := p.Distinguished()
		for _, a := range ans.Answers() {
			for i, v := range a {
				if v != core.Omitted && !slices.Contains(pl.CandidatePool(dist[i]), v) {
					t.Fatalf("seed %d (%s): answer value %s of vertex %d is not in its pool", seed, what, g.Name(v), dist[i])
				}
			}
		}
		if !pl.empty && pl.Stats().SeedCandidates < unnarrowed {
			narrowedPlans++
		}
	}
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb, abox, q := testkb.RandomKB(rng)
		padABox(rng, abox)
		g := abox.Graph(nil)
		check(seed, "CQ", core.FromCQ(q), g)
		if res, err := rewrite.Generate(q, tb); err == nil {
			check(seed, "OGP", res.Pattern, g)
		}
	}
	// 22 of the 200 when written; a sweep that stops reaching the
	// partner path is no test of it.
	if narrowedPlans < 15 {
		t.Fatalf("only %d plans seeded a vertex through a partner", narrowedPlans)
	}
}

// TestPrepareUnionStatsSumParts: a union plan's build statistics, in
// Stats and in a worker-1 Run, are exactly the sums over its disjunct
// plans, BuildNanos included, and the Run's enumeration counters are the
// sums of the disjunct plans' own Runs. The sums are taken field by
// field here rather than with Stats.Add, which the union itself uses.
func TestPrepareUnionStatsSumParts(t *testing.T) {
	sum := func(dst *Stats, src Stats) {
		d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src)
		for f := 0; f < d.NumField(); f++ {
			switch fd := d.Field(f); fd.Kind() {
			case reflect.Int, reflect.Int64:
				fd.SetInt(fd.Int() + s.Field(f).Int())
			case reflect.Bool:
				fd.SetBool(fd.Bool() || s.Field(f).Bool())
			default:
				t.Fatalf("Stats.%s: unhandled kind %s", d.Type().Field(f).Name, fd.Kind())
			}
		}
	}
	unions := 0
	for seed := int64(0); seed < 40; seed++ {
		tb, abox, q := testkb.RandomKB(rand.New(rand.NewSource(seed)))
		ucq, err := perfectref.Rewrite(q, tb, perfectref.Limits{MaxQueries: 64})
		if err != nil || ucq.Len() < 2 {
			continue
		}
		unions++
		g := abox.Graph(nil)
		ps := make([]*core.Pattern, ucq.Len())
		for i, d := range ucq.Queries {
			ps[i] = core.FromCQ(d)
		}
		pl, err := PrepareUnion(ps, g)
		if err != nil {
			t.Fatalf("seed %d: PrepareUnion: %v", seed, err)
		}
		if len(pl.parts) != len(ps) {
			t.Fatalf("seed %d: %d disjunct plans, want %d", seed, len(pl.parts), len(ps))
		}
		var wantBuild, wantRun Stats
		for i, part := range pl.parts {
			sum(&wantBuild, part.Stats())
			_, st, err := part.Run(Options{Workers: 1})
			if err != nil {
				t.Fatalf("seed %d disjunct %d: Run: %v", seed, i, err)
			}
			sum(&wantRun, st)
		}
		if got := pl.Stats(); got != wantBuild {
			t.Fatalf("seed %d: union Stats\n got %+v\nwant %+v", seed, got, wantBuild)
		}
		_, got, err := pl.Run(Options{Workers: 1})
		if err != nil {
			t.Fatalf("seed %d: union Run: %v", seed, err)
		}
		if got.BuildNanos != wantBuild.BuildNanos {
			t.Fatalf("seed %d: union Run BuildNanos %d, want the disjuncts' sum %d", seed, got.BuildNanos, wantBuild.BuildNanos)
		}
		got.EnumNanos, wantRun.EnumNanos = 0, 0
		if got != wantRun {
			t.Fatalf("seed %d: union Run stats\n got %+v\nwant %+v", seed, got, wantRun)
		}
	}
	if unions < 10 {
		t.Fatalf("only %d of 40 seeds rewrote to a union of two or more disjuncts", unions)
	}
}
