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
// space: for any pattern it yields byte-identical answers (same set,
// same insertion order) and the same index statistics as the map-based
// build it replaced (Options.UseLegacyCS, legacy.go). 100 random KBs,
// both checked sequentially and with a worker pool.
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

		mapAns, mapSt, err := Match(p, g, Options{Workers: 1, UseLegacyCS: true})
		if err != nil {
			t.Fatalf("seed %d: legacy Match: %v", seed, err)
		}
		mapNames := fmt.Sprint(mapAns.Names(g))

		for _, workers := range []int{1, 4} {
			csrAns, csrSt, err := Match(p, g, Options{Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers %d: bitset Match: %v", seed, workers, err)
			}
			if names := fmt.Sprint(csrAns.Names(g)); names != mapNames {
				t.Fatalf("seed %d workers %d:\nmap    %s\nbitset %s\npattern:\n%s",
					seed, workers, mapNames, names, p)
			}
			if csrSt.Truncated != mapSt.Truncated {
				t.Fatalf("seed %d workers %d: Truncated %v vs legacy %v",
					seed, workers, csrSt.Truncated, mapSt.Truncated)
			}
			// The two builds must construct the *same* index, not merely
			// agree on answers: candidate totals, materialized pairs and
			// refinement passes are all deterministic.
			if csrSt.CSCandidates != mapSt.CSCandidates ||
				csrSt.AdjPairs != mapSt.AdjPairs ||
				csrSt.RefinePasses != mapSt.RefinePasses {
				t.Fatalf("seed %d workers %d: index stats diverge: bitset {cand %d pairs %d passes %d} vs map {cand %d pairs %d passes %d}",
					seed, workers,
					csrSt.CSCandidates, csrSt.AdjPairs, csrSt.RefinePasses,
					mapSt.CSCandidates, mapSt.AdjPairs, mapSt.RefinePasses)
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
// BuildOMCS + BDD compilation) on the large KB, bitset/CSR build vs the
// map-based legacy build. Allocations are the headline number: the CSR
// build must show >= 2x fewer allocs/op than map.
func BenchmarkBuildOMCS(b *testing.B) {
	g, p := benchGraph()
	for _, variant := range []struct {
		name   string
		legacy bool
	}{{"csr", false}, {"map", true}} {
		b.Run(variant.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pr, err := Prepare(p, g, Options{UseLegacyCS: variant.legacy})
				if err != nil {
					b.Fatal(err)
				}
				if pr.Stats().CSCandidates == 0 {
					b.Fatal("empty candidate space")
				}
			}
		})
	}
}

// BenchmarkAdjacency isolates the enumeration phase over a prepared
// plan, so what's measured is the per-node candidate work: CSR row
// lookups + galloping intersections vs map probes + allocating merges.
func BenchmarkAdjacency(b *testing.B) {
	g, p := benchGraph()
	for _, variant := range []struct {
		name   string
		legacy bool
	}{{"csr", false}, {"map", true}} {
		opts := Options{Workers: 1, UseLegacyCS: variant.legacy}
		pr, err := Prepare(p, g, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(variant.name, func(b *testing.B) {
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
}
