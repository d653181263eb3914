package match

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ogpa/internal/core"
	"ogpa/internal/daf"
	"ogpa/internal/graph"
	"ogpa/internal/perfectref"
	"ogpa/internal/rewrite"
)

// TestBitsetMapEquivalence is the contract of the bitset/CSR candidate
// space: for any generated OGP it yields exactly the answers of the
// brute-force evaluator core.EnumerateNaive, sequentially and with a
// worker pool, and never reports truncation without limits. 100 random
// KBs; internal/daf runs the DAF-side twin of this test.
func TestBitsetMapEquivalence(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb, abox, q := randomKB(rng)
		g := abox.Graph(nil)
		res, err := rewrite.Generate(q, tb)
		if err != nil {
			continue // rewrite hit a generator limit; nothing to compare
		}
		p := res.Pattern
		want := fmt.Sprint(core.EnumerateNaive(p, g).Names(g))

		for _, workers := range []int{1, 4} {
			ans, st, err := Match(p, g, Options{Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers %d: Match: %v", seed, workers, err)
			}
			if got := fmt.Sprint(ans.Names(g)); got != want {
				t.Fatalf("seed %d workers %d:\nnaive  %s\nengine %s\npattern:\n%s",
					seed, workers, want, got, p)
			}
			if st.Truncated {
				t.Fatalf("seed %d workers %d: Truncated without limits", seed, workers)
			}
		}
	}
}

// TestCandidateSpaceCoversAnswers checks the soundness of seeding and
// refinement directly instead of through answer equality: whatever value
// a distinguished vertex takes in some answer of the brute-force
// evaluator is in that vertex's refined pool. 100 random KBs, through
// both front-ends: the generated OGP under OMatch, and every disjunct of
// the PerfectRef rewriting under DAF.
func TestCandidateSpaceCoversAnswers(t *testing.T) {
	check := func(seed int64, what string, p *core.Pattern, g *graph.Graph, pool func(u int) []graph.VID) {
		t.Helper()
		dist := p.Distinguished()
		for _, a := range core.EnumerateNaive(p, g).Answers() {
			for i, v := range a {
				if v != core.Omitted && !slices.Contains(pool(dist[i]), v) {
					t.Fatalf("seed %d, %s: answer value %s of vertex %d is not in its pool %v\npattern:\n%s",
						seed, what, g.Name(v), dist[i], pool(dist[i]), p)
				}
			}
		}
	}
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb, abox, q := randomKB(rng)
		g := abox.Graph(nil)
		if res, err := rewrite.Generate(q, tb); err == nil {
			pr, err := Prepare(res.Pattern, g, Options{})
			if err != nil {
				t.Fatalf("seed %d: Prepare: %v", seed, err)
			}
			check(seed, "OGP", res.Pattern, g, pr.CandidatePool)
		}
		u, err := perfectref.Rewrite(q, tb, perfectref.Limits{MaxQueries: 5000})
		if err != nil {
			continue
		}
		for i, d := range u.Queries {
			p := core.FromCQ(d)
			pr, err := daf.Prepare(p, g, daf.Options{})
			if err != nil {
				t.Fatalf("seed %d disjunct %d: daf.Prepare: %v", seed, i, err)
			}
			check(seed, fmt.Sprintf("DAF disjunct %d", i), p, g, pr.CandidatePool)
		}
	}
}

// BenchmarkBuildOMCS isolates the shared build phase (BuildOMDAG +
// BuildOMCS + BDD compilation) on the large KB; allocations are the
// headline number.
func BenchmarkBuildOMCS(b *testing.B) {
	g, p := benchGraph()
	b.Run("csr", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pr, err := Prepare(p, g, Options{})
			if err != nil {
				b.Fatal(err)
			}
			if pr.Stats().CSCandidates == 0 {
				b.Fatal("empty candidate space")
			}
		}
	})
}

// BenchmarkAdjacency isolates the enumeration phase over a prepared
// plan, so what's measured is the per-node candidate work: CSR row
// lookups and galloping intersections.
func BenchmarkAdjacency(b *testing.B) {
	g, p := benchGraph()
	opts := Options{Workers: 1}
	pr, err := Prepare(p, g, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("csr", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ans, _, err := pr.Run(opts)
			if err != nil {
				b.Fatal(err)
			}
			if ans.Len() == 0 {
				b.Fatal("no answers")
			}
		}
	})
}
