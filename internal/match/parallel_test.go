package match

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ogpa/internal/core"
	"ogpa/internal/graph"
	"ogpa/internal/rewrite"
)

// poolSizes is the Workers axis of the first-level fan-out.
var poolSizes = []int{0, 2, 4, 8}

// TestParallelSequentialEquivalence is the contract of the first-level
// fan-out: for any pattern, at every pool size, it returns byte-identical
// answers (same set, same insertion order) and the same Truncated flag as
// the sequential path. 100 random KBs, each checked at every pool size,
// with and without a MaxResults limit.
func TestParallelSequentialEquivalence(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb, abox, q := randomKB(rng)
		g := abox.Graph(nil)
		res, err := rewrite.Generate(q, tb)
		if err != nil {
			continue // rewrite hit a generator limit; nothing to compare
		}
		p := res.Pattern

		seqAns, seqSt, err := Match(p, g, Options{Workers: 1})
		if err != nil {
			t.Fatalf("seed %d: sequential Match: %v", seed, err)
		}
		seqNames := seqAns.Names(g)
		full := make(map[string]bool, seqAns.Len())
		for _, a := range seqAns.Answers() {
			full[fmt.Sprint(a)] = true
		}

		for _, workers := range poolSizes {
			parAns, parSt, err := Match(p, g, Options{Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers %d: Match: %v", seed, workers, err)
			}
			if seqSt.Truncated != parSt.Truncated {
				t.Fatalf("seed %d workers %d: Truncated %v vs sequential %v",
					seed, workers, parSt.Truncated, seqSt.Truncated)
			}
			parNames := parAns.Names(g)
			if fmt.Sprint(seqNames) != fmt.Sprint(parNames) {
				t.Fatalf("seed %d workers %d:\nsequential %v\nparallel   %v\npattern:\n%s",
					seed, workers, seqNames, parNames, p)
			}
			if !reflect.DeepEqual(seqAns.Answers(), parAns.Answers()) {
				t.Fatalf("seed %d workers %d: insertion order differs:\nsequential %v\nparallel   %v\npattern:\n%s",
					seed, workers, seqAns.Answers(), parAns.Answers(), p)
			}
		}

		// Truncated runs: answer *identity* may legitimately differ (workers
		// cut different subtrees short once the gate trips), but the count
		// must be exactly MaxResults, every answer must come from the full
		// answer set, and both sides must agree they truncated.
		if seqAns.Len() < 2 {
			continue
		}
		limit := 1 + int(seed)%seqAns.Len()
		limAns, limSt, err := Match(p, g, Options{
			Limits: Limits{MaxResults: limit}, Workers: 1})
		if err != nil {
			t.Fatalf("seed %d limit %d: sequential Match: %v", seed, limit, err)
		}
		if limAns.Len() != limit || !limSt.Truncated {
			t.Fatalf("seed %d limit %d: sequential %d answers, Truncated=%v",
				seed, limit, limAns.Len(), limSt.Truncated)
		}
		for _, workers := range poolSizes {
			parAns, parSt, err := Match(p, g, Options{
				Limits: Limits{MaxResults: limit}, Workers: workers})
			if err != nil {
				t.Fatalf("seed %d limit %d workers %d: Match: %v", seed, limit, workers, err)
			}
			if parAns.Len() != limit || !parSt.Truncated {
				t.Fatalf("seed %d limit %d workers %d: %d answers, Truncated=%v",
					seed, limit, workers, parAns.Len(), parSt.Truncated)
			}
			for _, a := range parAns.Answers() {
				if !full[fmt.Sprint(a)] {
					t.Fatalf("seed %d limit %d workers %d: answer %v outside the full answer set",
						seed, limit, workers, a)
				}
			}
		}
	}
}

// TestConcurrentMatchSharedGraph is the -race stress test: many Match
// calls (mixed pool sizes, with and without limits) running concurrently
// against one frozen graph and symbol table. Freezing turns any
// accidental query-time Intern into a panic, and the race detector
// flags any unsynchronized sharing between the workers of different
// calls.
func TestConcurrentMatchSharedGraph(t *testing.T) {
	g := fig2Graph()
	g.Symbols.Freeze()
	p := q5Prime()

	want, _, err := Match(p, g, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantNames := fmt.Sprint(want.Names(g))

	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opt := Options{Workers: 1 + i%4}
			if i%8 == 7 {
				opt.Limits.MaxResults = 1
			}
			got, st, err := Match(p, g, opt)
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			if opt.Limits.MaxResults > 0 {
				if got.Len() > opt.Limits.MaxResults || !st.Truncated && got.Len() < want.Len() {
					t.Errorf("goroutine %d: %d answers, truncated=%v", i, got.Len(), st.Truncated)
				}
				return
			}
			if names := fmt.Sprint(got.Names(g)); names != wantNames {
				t.Errorf("goroutine %d: %s, want %s", i, names, wantNames)
			}
		}(i)
	}
	wg.Wait()
}

// benchGraph builds a KB large enough that the first-level fan-out
// dominates: ~200 A-vertices each rooting a few hundred (y, z)
// extensions, with an attribute-equality condition joining the ends of
// the chain.
func benchGraph() (*graph.Graph, *core.Pattern) {
	rng := rand.New(rand.NewSource(7))
	b := graph.NewBuilder(nil)
	const nA, nB, nC, deg = 200, 400, 400, 24
	name := func(prefix string, i int) string { return fmt.Sprintf("%s%d", prefix, i) }
	for i := 0; i < nA; i++ {
		b.AddLabel(name("a", i), "A")
		b.SetAttr(name("a", i), "w", graph.Int(int64(rng.Intn(32))))
	}
	for i := 0; i < nB; i++ {
		b.AddLabel(name("b", i), "B")
	}
	for i := 0; i < nC; i++ {
		b.AddLabel(name("c", i), "C")
		b.SetAttr(name("c", i), "w", graph.Int(int64(rng.Intn(32))))
	}
	for i := 0; i < nA; i++ {
		for k := 0; k < deg; k++ {
			b.AddEdge(name("a", i), "p", name("b", rng.Intn(nB)))
		}
	}
	for i := 0; i < nB; i++ {
		for k := 0; k < deg; k++ {
			b.AddEdge(name("b", i), "q", name("c", rng.Intn(nC)))
		}
	}
	p := &core.Pattern{
		Vertices: []core.Vertex{
			{Name: "x", Label: "A", Distinguished: true},
			{Name: "y", Label: "B", Distinguished: true},
			{Name: "z", Label: "C", Distinguished: true,
				Match: core.AttrCmpAttr{X: 0, AttrX: "w", Op: core.Eq, Y: 2, AttrY: "w"}},
		},
		Edges: []core.Edge{
			{From: 0, To: 1, Label: "p"},
			{From: 1, To: 2, Label: "q"},
		},
	}
	return b.Freeze(), p
}

// BenchmarkOMatchWorkers measures the worker-pool speedup on the large
// KB. The acceptance bar for the parallel backtracker is >= 1.5x at
// workers=4 over workers=1.
func BenchmarkOMatchWorkers(b *testing.B) {
	g, p := benchGraph()
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := Match(p, g, Options{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
