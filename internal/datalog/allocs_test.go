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

// TestStateApplyAllocs: maintaining the standing queries' shared
// fixpoint under a 64-fact batch, deleted (DRed) and then inserted
// back, allocates a few times per fact: the overestimate is a list of
// the fixpoint's own tuples, marked in place, and no second database
// is built or kept for the asserted base or the overestimate.
func TestStateApplyAllocs(t *testing.T) {
	progs, facts := standingFixture(t, 2)
	st, _ := standingState(t, progs, facts)
	batch := facts[len(facts)/2 : len(facts)/2+64]
	size := st.Size()
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := st.Apply(nil, batch, Limits{}); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Apply(batch, nil, Limits{}); err != nil {
			t.Fatal(err)
		}
	})
	if st.Size() != size {
		t.Fatalf("delete and re-insert left %d facts, want %d", st.Size(), size)
	}
	const perFact = 8
	t.Logf("%.0f allocs per delete and re-insert of %d facts (bound %d)", allocs, len(batch), perFact*len(batch))
	if allocs > float64(perFact*len(batch)) {
		t.Errorf("%.0f allocs per delete and re-insert of %d facts, want at most %d per fact", allocs, len(batch), perFact)
	}
}
