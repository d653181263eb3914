//go:build !race

// The race detector changes allocation counts, so this guard builds only
// without it; run it with go test -run Allocs ./internal/perfectref.

package perfectref

import (
	"testing"

	"ogpa/internal/cq"
)

// TestSubsumesAllocs: the homomorphism search binds through fixed arrays,
// so a subsumption test allocates a constant amount however many atom
// pairs it tries. Here the search backtracks through dozens of pairs (a
// chain of P atoms where only the last reaches an A) before it succeeds,
// and again before it fails; a slice per atom pair tried breaks the bound.
func TestSubsumesAllocs(t *testing.T) {
	small := cq.MustParse(`q(x) :- P(x, y), P(y, z), P(z, w), A(w)`)
	big := cq.MustParse(`q(x) :- P(x, a), P(x, b), P(x, c), P(a, d), P(b, e), P(c, f), P(d, g), P(e, h), P(f, i), R(g, i), A(i)`)
	miss := cq.MustParse(`q(x) :- P(x, a), P(x, b), P(x, c), P(a, d), P(b, e), P(c, f), P(d, g), P(e, h), P(f, i), A(x), A(a)`)
	if !Subsumes(small, big) || Subsumes(small, miss) {
		t.Fatal("wrong subsumption verdicts")
	}
	for _, big := range []*cq.Query{big, miss} {
		allocs := testing.AllocsPerRun(50, func() { Subsumes(small, big) })
		t.Logf("%s: %.0f allocs", big, allocs)
		if allocs > 2 {
			t.Errorf("Subsumes into %s: %.0f allocs, want at most 2", big, allocs)
		}
	}
}
