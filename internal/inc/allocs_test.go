//go:build !race

// The race detector changes allocation counts, so this guard builds only
// without it; run it with go test -run Allocs ./internal/inc.

package inc

import (
	"testing"

	"ogpa/internal/cq"
	"ogpa/internal/datalog"
	"ogpa/internal/gen"
	"ogpa/internal/perfectref"
)

// TestDatalogChainAnswerAllocs: the answers are part of the maintained
// fixpoint, so Answer copies them into one slice of the caller's own
// and sorts it. At most two allocations a call, however many rows: a
// re-join of the residual UCQ, or a copy per row, would break the bound.
func TestDatalogChainAnswerAllocs(t *testing.T) {
	d := gen.LUBM(gen.LUBMConfig{Universities: 1, Seed: 1})
	s := liveStore(d.ABox)
	defer s.Close()
	m := NewManager(s, nil)
	defer m.Close()
	for _, q := range []string{
		`q(x, y) :- Student(x), advisor(x, y)`,
		`q(x) :- Person(x), memberOf(x, y), Department(y)`,
	} {
		prog, err := datalog.Rewrite(cq.MustParse(q), d.TBox, perfectref.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		c, err := m.RegisterDatalog(prog, datalog.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		rows, _, err := c.Answer()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			t.Fatalf("%s: no answers", q)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := c.Answer(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d rows, %.0f allocs per Answer", q, len(rows), allocs)
		if allocs > 2 {
			t.Errorf("%s: %.0f allocs per Answer, want at most 2", q, allocs)
		}
	}
}
