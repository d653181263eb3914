//go:build !race

// The race detector changes allocation counts, so these guards build only
// without it; run them with go test -run Allocs ./internal/engine.

package engine

import (
	"fmt"
	"testing"

	"ogpa/internal/core"
	"ogpa/internal/graph"
)

// TestRunAllocsPerAnswer: a run's allocations do not grow with its answer
// count. A one-vertex pattern with 1,000 and with 4,000 matches differs
// only by the few extra doublings of the answer stores and indexes,
// sequentially and fanned out.
func TestRunAllocsPerAnswer(t *testing.T) {
	plan := func(n int) *Plan {
		b := graph.NewBuilder(nil)
		for i := 0; i < n; i++ {
			b.AddLabel(fmt.Sprintf("v%d", i), "A")
		}
		p := &core.Pattern{Vertices: []core.Vertex{{Name: "x", Label: "A", Distinguished: true}}}
		pl, err := Prepare(p, b.Freeze())
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	small, large := plan(1000), plan(4000)
	for _, workers := range []int{1, 2} {
		allocs := func(pl *Plan, want int) float64 {
			return testing.AllocsPerRun(20, func() {
				res, _, err := pl.Run(Options{Workers: workers})
				if err != nil || res.Len() != want {
					t.Fatalf("workers %d: %d answers, err %v; want %d", workers, res.Len(), err, want)
				}
			})
		}
		a, b := allocs(small, 1000), allocs(large, 4000)
		if b-a > 16 {
			t.Errorf("workers %d: %v allocations for 1,000 answers, %v for 4,000: more than 16 apart", workers, a, b)
		}
	}
}

// TestUnionRunAllocsPerAnswer is TestRunAllocsPerAnswer for a union run
// through the worker pool: two one-vertex disjuncts over vertices that
// carry both labels, so the second disjunct repeats every answer of the
// first and the merge deduplicates them.
func TestUnionRunAllocsPerAnswer(t *testing.T) {
	plan := func(n int) *Plan {
		b := graph.NewBuilder(nil)
		for i := 0; i < n; i++ {
			b.AddLabel(fmt.Sprintf("v%d", i), "A")
			b.AddLabel(fmt.Sprintf("v%d", i), "B")
		}
		var ps []*core.Pattern
		for _, l := range []string{"A", "B"} {
			ps = append(ps, &core.Pattern{Vertices: []core.Vertex{{Name: "x", Label: l, Distinguished: true}}})
		}
		pl, err := PrepareUnion(ps, b.Freeze())
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	small, large := plan(1000), plan(4000)
	for _, workers := range []int{1, 2} {
		allocs := func(pl *Plan, want int) float64 {
			return testing.AllocsPerRun(20, func() {
				res, _, err := pl.Run(Options{Workers: workers})
				if err != nil || res.Len() != want {
					t.Fatalf("workers %d: %d answers, err %v; want %d", workers, res.Len(), err, want)
				}
			})
		}
		a, b := allocs(small, 1000), allocs(large, 4000)
		if b-a > 16 {
			t.Errorf("workers %d: %v allocations for 1,000 answers, %v for 4,000: more than 16 apart", workers, a, b)
		}
	}
}

// TestPrepareAllocs: a warm Prepare allocates as many times when
// refinement cascades across many arcs as when it removes nothing. The
// pattern is a p-path of eight A-vertices; both graphs hold four
// A-labelled p-cycles, which every pool keeps, and the second adds
// A-labelled p-paths of one to six edges, which seeding puts in every
// pool and refinement removes one member per revision. The arcs, the
// queue and the queued flags live in the pooled scratch. A GC inside one
// measurement can empty that pool and make its side rebuild the scratch,
// so the two counts may differ by a few allocations; an allocation per
// revision adds at least one per extra revision, 14 or more here.
func TestPrepareAllocs(t *testing.T) {
	const k = 8
	p := &core.Pattern{}
	for i := 0; i < k; i++ {
		p.Vertices = append(p.Vertices, core.Vertex{Name: fmt.Sprintf("x%d", i), Label: "A", Distinguished: i == 0})
		if i > 0 {
			p.Edges = append(p.Edges, core.Edge{From: i - 1, To: i, Label: "p"})
		}
	}
	prepare := func(tails bool) (float64, Stats) {
		b := graph.NewBuilder(nil)
		path := func(name string, n int, cycle bool) {
			for i := 0; i <= n; i++ {
				b.AddLabel(fmt.Sprintf("%s_%d", name, i), "A")
			}
			for i := 0; i < n; i++ {
				b.AddEdge(fmt.Sprintf("%s_%d", name, i), "p", fmt.Sprintf("%s_%d", name, i+1))
			}
			if cycle {
				b.AddEdge(fmt.Sprintf("%s_%d", name, n), "p", fmt.Sprintf("%s_0", name))
			}
		}
		for c := 0; c < 4; c++ {
			path(fmt.Sprintf("c%d", c), 2, true)
		}
		if tails {
			for l := 1; l <= 6; l++ {
				path(fmt.Sprintf("t%d", l), l, false)
			}
		}
		g := b.Freeze()
		var st Stats
		allocs := testing.AllocsPerRun(50, func() {
			pl, err := Prepare(p, g)
			if err != nil || pl.empty {
				t.Fatalf("tails %v: Prepare: empty plan, err %v", tails, err)
			}
			st = pl.Stats()
		})
		return allocs, st
	}
	settled, sst := prepare(false)
	cascade, cst := prepare(true)
	if sst.Revisions != 2*(k-1) || cst.Revisions < 2*sst.Revisions || sst.CSCandidates != cst.CSCandidates {
		t.Fatalf("revisions %d settled, %d cascading; candidates %d and %d: want every arc revised once against a cascade with the same pools",
			sst.Revisions, cst.Revisions, sst.CSCandidates, cst.CSCandidates)
	}
	t.Logf("%v allocations at %d revisions, %v at %d", settled, sst.Revisions, cascade, cst.Revisions)
	if cascade-settled > 4 {
		t.Errorf("a warm Prepare allocates %v times when refinement removes nothing, %v times when it cascades over %d revisions: more than 4 apart",
			settled, cascade, cst.Revisions)
	}
}
