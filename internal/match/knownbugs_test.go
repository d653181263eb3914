package match

import (
	"math/rand"
	"testing"

	"ogpa/internal/daf"
	"ogpa/internal/perfectref"
	"ogpa/internal/rewrite"
)

// ucqVsOGP evaluates one randomKB seed both ways and returns the sorted
// answer rows (UCQ reference first).
func ucqVsOGP(t *testing.T, seed int64) (want, got []string, query string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tb, abox, q := randomKB(rng)
	g := abox.Graph(nil)

	u, err := perfectref.Rewrite(q, tb, perfectref.Limits{MaxQueries: 5000})
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := daf.EvalUCQ(u.Queries, g, daf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rewrite.Generate(q, tb)
	if err != nil {
		t.Fatal(err)
	}
	ans, _, err := Match(res.Pattern, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ref.Names(g), ans.Names(g), q.String()
}

func equalRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestOmissionGateOnOmittedVertex is the regression test for a fixed
// GenOGP bug: when a LazyReduction equality gate in an omission
// justification referred to a vertex that must itself be omitted, the
// compiled SameAs conjunct was unsatisfiable and the OGP lost answers
// the UCQ rewriting finds. The seed is a minimal-ish randomKB instance:
// query q(x) :- p(y, x), q(z, y), q(w, z) whose entire tail y/z/w must
// drop for the answers [b c e]. The fix is two-part: gates over
// omittable vertices degrade to IsOmitted ∨ SameAs, and justifications
// anchored at omittable vertices compose transitively with the anchor's
// own justifications (gate-aware omission cascade in condDeduction).
func TestOmissionGateOnOmittedVertex(t *testing.T) {
	want, got, q := ucqVsOGP(t, -143985124633941825)
	if !equalRows(want, got) {
		t.Fatalf("regression: UCQ answers %v, OGP answers %v (query %s)", want, got, q)
	}
}

// TestGatedExistentialRootStaysOutOfEdgeConds is the regression test for
// a fixed GenOGP unsoundness (formerly the over-answering residual seed):
// an existential subsumee of a LazyReduction root reached through a
// concept-inclusion hop (∃P1 ⊑ ∃P2) witnesses the dropped endpoint only
// as a fresh anonymous null, yet condDeduction also registered it as a
// real-edge C^l alternative — silently discarding the reduction's z=kept
// equality gate, which a bare edge disjunct cannot degrade to. On the
// seed instance (query q(x) :- q(x, y), q(z, y), r(w, z); TBox
// ∃q⁻ ⊑ ∃p⁻, ∃r ⊑ ∃p, p⁻ ⊑ q) the leaked alternative r(x,y) let x=d
// match via the real edge r(d,e) with z unconstrained, while the sound
// derivation q(x) :- r(x,_), r(w,x) needs z=x and hence r(w,d). The fix:
// gated roots contribute omission justifications only (where the gate
// survives as a SameAs conjunct); ungated roots keep the edge
// alternative, which is sound because every merged sibling endpoint is
// existential and can follow the anonymous witness.
func TestGatedExistentialRootStaysOutOfEdgeConds(t *testing.T) {
	want, got, q := ucqVsOGP(t, 2392402369435569976)
	if !equalRows(want, got) {
		t.Fatalf("regression: UCQ answers %v, OGP answers %v (query %s)", want, got, q)
	}
}

// TestKnownBugResidualGenOGPSeeds pins the remaining pre-existing GenOGP
// incompleteness instances surfaced by 30k- and 8k-seed sweeps (see
// ROADMAP "Open items" and DESIGN.md "Residual GenOGP incompleteness").
// All of them under-answer (OGP ⊊ UCQ) with the same shape: a hub
// unbound by LazyReduction never receives its own existentially-
// justified omission conditions, so fringe-dropping derivations through
// the hub are lost; the fix is an existential-root extension of the
// justification calculus that deserves its own PR. The formerly listed
// over-answering seed 2392402369435569976 is fixed and now enforced by
// TestGatedExistentialRootStaysOutOfEdgeConds plus the equivalence
// test's fixed preamble.
//
// While the bugs stand these SKIP (documentation, not a gate); once a
// fix lands the skip paths go dead — then convert to hard failures and
// fold the seeds into the equivalence property test's fixed preamble.
func TestKnownBugResidualGenOGPSeeds(t *testing.T) {
	for _, seed := range []int64{
		3913136004195287598,
		1644683122221037022,
		6913217735738182772,
		4271,
	} {
		want, got, q := ucqVsOGP(t, seed)
		if !equalRows(want, got) {
			t.Skipf("known bug still present: seed %d UCQ answers %v, OGP answers %v (query %s)", seed, want, got, q)
		}
	}
	t.Log("previously-failing seeds now pass; convert skips to failures, update ROADMAP")
}
