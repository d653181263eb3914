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
