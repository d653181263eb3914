package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ogpa/internal/core"
	"ogpa/internal/cq"
	"ogpa/internal/graph"
	"ogpa/internal/perfectref"
	"ogpa/internal/rewrite"
	"ogpa/internal/testkb"
)

// oracleArc is one pruning constraint as the oracle below reads the
// removal rule: every candidate of u needs a partner across edge ei in
// far's pool, u on the From side iff fromSide.
type oracleArc struct {
	u, far, ei int
	fromSide   bool
}

// oracleArcs lists the constraints of refinement: both ends of every
// indexable edge that neither end can excuse (a self-loop counts once).
func oracleArcs(m *matcher) []oracleArc {
	var arcs []oracleArc
	for ei, e := range m.p.Edges {
		if !m.edgeIndexab[ei] || m.canOmit[e.From] || m.canOmit[e.To] {
			continue
		}
		arcs = append(arcs, oracleArc{u: e.From, far: e.To, ei: ei, fromSide: true})
		if e.From != e.To {
			arcs = append(arcs, oracleArc{u: e.To, far: e.From, ei: ei, fromSide: false})
		}
	}
	return arcs
}

// bruteSupported reports whether v, a candidate of a.u, has a partner in
// far across a's edge: some w in far joined to v by a data edge that one
// of the edge's probes asks for, found by scanning v's whole row, with
// the pair passing pairwiseOK. Across a self-loop the only partner is v.
func bruteSupported(m *matcher, a oracleArc, v graph.VID, far []graph.VID) bool {
	for _, w := range far {
		if a.u == a.far && w != v {
			continue
		}
		from, to := v, w
		if !a.fromSide {
			from, to = w, v
		}
		linked := false
		for _, pr := range m.edgeProbes[a.ei] {
			src, dst := from, to
			if !pr.forward {
				src, dst = to, from
			}
			for _, h := range m.g.Out(src) {
				if h.To == dst && (pr.label == 0 || h.Label == pr.label) {
					linked = true
				}
			}
		}
		if linked && m.pairwiseOK(a.ei, from, to) {
			return true
		}
	}
	return false
}

// oracleRefine sweeps every constraint over pools until a whole sweep
// removes nothing, with no cap on the sweeps, and returns the sweeps it
// took.
func oracleRefine(m *matcher, arcs []oracleArc, pools [][]graph.VID) int {
	for sweeps := 1; ; sweeps++ {
		changed := false
		for _, a := range arcs {
			out := pools[a.u][:0]
			for _, v := range pools[a.u] {
				if bruteSupported(m, a, v, pools[a.far]) {
					out = append(out, v)
				}
			}
			changed = changed || len(out) < len(pools[a.u])
			pools[a.u] = out
		}
		if !changed {
			return sweeps
		}
	}
}

// withSelfLoop returns q with one more atom: a random role from a random
// variable of q to itself.
func withSelfLoop(rng *rand.Rand, q *cq.Query) *cq.Query {
	q = q.Clone()
	vars := q.Vars()
	v := vars[rng.Intn(len(vars))]
	q.Atoms = append(q.Atoms, cq.RoleAtom(string(rune('p'+rng.Intn(3))), v, v))
	return q
}

// TestRefinementReachesFixpoint checks the worklist against its
// definition: after Prepare every candidate of a vertex with a
// constraint has a partner across each of its constraints, and every
// pool is exactly what an uncapped sweep-until-stable oracle leaves of
// the same seed pools, the greatest arc-consistent sub-pools. 100 random
// KBs padded as in TestNarrowedSeedingEquivalence, each query also with a
// self-loop atom added, through the generated OGP and every disjunct of
// the PerfectRef rewriting (the DAF plans).
func TestRefinementReachesFixpoint(t *testing.T) {
	plans, cascades, loopCascades := 0, 0, 0
	check := func(seed int64, what string, p *core.Pattern, g *graph.Graph) {
		t.Helper()
		pl, err := Prepare(p, g)
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, what, err)
		}
		m := midBuild(p, g)
		seeded := m.buildOMDAG()
		pools := make([][]graph.VID, len(p.Vertices))
		for u := range pools {
			pools[u] = slices.Clone(m.cand[u])
		}
		arcs := oracleArcs(m)
		sweeps := oracleRefine(m, arcs, pools)
		emptied := false
		for u, pool := range pools {
			emptied = emptied || len(pool) == 0 && !m.canOmit[u]
		}
		if pl.empty {
			// Without EmptyCandSets the conditions alone proved Q(G) = ∅,
			// before any pool was seeded.
			if pl.Stats().EmptyCandSets > 0 && seeded && !emptied {
				t.Fatalf("seed %d (%s): plan proved empty, oracle pools %v\npattern:\n%s", seed, what, pools, p)
			}
			return
		}
		if !seeded || emptied {
			t.Fatalf("seed %d (%s): oracle empties a pool, plan pools %v\npattern:\n%s", seed, what, pl.m.cand, p)
		}
		plans++
		for _, a := range arcs {
			for _, v := range pl.CandidatePool(a.u) {
				if !bruteSupported(m, a, v, pl.CandidatePool(a.far)) {
					t.Fatalf("seed %d (%s): candidate %s of vertex %d has no partner across edge %d\npattern:\n%s",
						seed, what, g.Name(v), a.u, a.ei, p)
				}
			}
		}
		for u, want := range pools {
			if got := pl.CandidatePool(u); !slices.Equal(got, want) {
				t.Fatalf("seed %d (%s): pool(%d) = %v, oracle %v\npattern:\n%s", seed, what, u, got, want, p)
			}
		}
		if sweeps > 2 {
			cascades++
			for _, a := range arcs {
				if a.u == a.far {
					loopCascades++
					break
				}
			}
		}
	}
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb, abox, q := testkb.RandomKB(rng)
		padABox(rng, abox)
		g := abox.Graph(nil)
		for _, q := range []*cq.Query{q, withSelfLoop(rng, q)} {
			if res, err := rewrite.Generate(q, tb); err == nil {
				check(seed, "OGP of "+q.String(), res.Pattern, g)
			}
			u, err := perfectref.Rewrite(q, tb, perfectref.Limits{MaxQueries: 64})
			if err != nil {
				continue
			}
			for i, d := range u.Queries {
				check(seed, fmt.Sprintf("disjunct %d of %s", i, q), core.FromCQ(d), g)
			}
		}
	}
	t.Logf("%d plans, %d needing more than two oracle sweeps, %d of them with a self-loop", plans, cascades, loopCascades)
	if cascades < 100 || loopCascades < 30 {
		t.Fatalf("%d plans needed more than two oracle sweeps, %d with a self-loop: too few to test the worklist", cascades, loopCascades)
	}
}

// TestSelfLoopSupport: across a self-loop only the candidate itself is a
// partner. Over a -p-> b, b -p-> b the pattern of q(x) :- p(x, x) keeps b
// alone: a reaches a pooled vertex carrying the loop, but carries none.
func TestSelfLoopSupport(t *testing.T) {
	b := graph.NewBuilder(nil)
	b.AddEdge("a", "p", "b")
	b.AddEdge("b", "p", "b")
	g := b.Freeze()
	p := core.FromCQ(cq.MustParse("q(x) :- p(x, x)"))
	pl, err := Prepare(p, g)
	if err != nil {
		t.Fatal(err)
	}
	var pool []string
	for _, v := range pl.CandidatePool(0) {
		pool = append(pool, g.Name(v))
	}
	if fmt.Sprint(pool) != "[b]" {
		t.Errorf("pool = %v, want [b]", pool)
	}
	ans, _, err := pl.Run(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	for _, a := range ans.Answers() {
		rows = append(rows, []string{g.Name(a[0])})
	}
	if fmt.Sprint(rows) != "[[b]]" {
		t.Errorf("answers = %v, want [[b]]", rows)
	}
}
