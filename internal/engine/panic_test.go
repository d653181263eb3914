package engine

import (
	"strings"
	"testing"

	"ogpa/internal/core"
)

// TestPanicFailsRun: a panic while enumerating fails that Run with an
// error instead of the process, whether it is raised inline (one
// worker) or on a pool goroutine (a plan's first-level fan-out, a
// union's disjuncts), and the plan is not harmed for the runs after it.
func TestPanicFailsRun(t *testing.T) {
	g := q5Graph()
	student := core.LabelIs{X: 0, Label: "Student"}
	plan := func(t *testing.T) *Plan {
		pl, err := Prepare(q5Pattern(student, nil, nil), g)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	union := func(t *testing.T) *Plan {
		faculty := core.LabelIs{X: 0, Label: "Faculty"}
		pl, err := PrepareUnion([]*core.Pattern{q5Pattern(student, nil, nil), q5Pattern(faculty, nil, nil)}, g)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	for _, tc := range []struct {
		name string
		prep func(*testing.T) *Plan
	}{{"plan", plan}, {"union", union}} {
		for _, workers := range []int{1, 4} {
			pl := tc.prep(t)
			want, _, err := pl.Run(Options{Workers: workers})
			if err != nil || want.Len() == 0 {
				t.Fatalf("%s, %d workers: %d answers, %v", tc.name, workers, want.Len(), err)
			}
			m := pl.m
			if pl.parts != nil {
				m = pl.parts[0].m
			}
			atom := m.atomFns[0]
			m.atomFns[0] = func(core.Mapping) bool { panic("atom fault") }
			_, _, err = pl.Run(Options{Workers: workers})
			if err == nil || !strings.Contains(err.Error(), "atom fault") {
				t.Fatalf("%s, %d workers: Run with a panicking atom returned %v, want its panic as the error", tc.name, workers, err)
			}
			m.atomFns[0] = atom
			got, _, err := pl.Run(Options{Workers: workers})
			if err != nil || got.Len() != want.Len() {
				t.Fatalf("%s, %d workers: after the fault %d answers, %v; want %d", tc.name, workers, got.Len(), err, want.Len())
			}
		}
	}
}
