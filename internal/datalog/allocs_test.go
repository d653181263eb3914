//go:build !race

// The race detector changes allocation counts, so these guards build only
// without it; run them with go test -run Allocs ./internal/datalog.

package datalog

import "testing"

// TestAnswerMaintainedAllocs: evaluating a residual UCQ allocates per
// disjunct (its compiled plan) and per answer kept, never per candidate
// tuple tried. The four standing queries over LUBM try many candidates
// per answer (the 17 disjuncts of the Person query re-derive the same
// members), so an allocation per binding or per duplicate head would
// break the bound.
func TestAnswerMaintainedAllocs(t *testing.T) {
	progs, facts := standingFixture(t, 2)
	st, _ := standingState(t, progs, facts)
	db := st.DB()
	const perDisjunct = 48
	for i, prog := range progs {
		ans, err := AnswerMaintained(prog, db)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := AnswerMaintained(prog, db); err != nil {
				t.Fatal(err)
			}
		})
		bound := float64(len(ans) + perDisjunct*len(prog.Residual))
		t.Logf("%s: %d disjuncts, %d answers, %.0f allocs (bound %.0f)", standingQueries[i], len(prog.Residual), len(ans), allocs, bound)
		if allocs > bound {
			t.Errorf("%s: %.0f allocs per call, want at most %.0f (answers + %d per disjunct)", standingQueries[i], allocs, bound, perDisjunct)
		}
	}
}
