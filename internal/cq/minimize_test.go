package cq

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestMinimizeRedundantStar(t *testing.T) {
	// The paper's Example 3 shape with T = ∅: the advisorOf star folds to
	// one edge (y2, y3 map onto x).
	q := MustParse(`q(x) :- advisorOf(y1, x), advisorOf(y1, y2), advisorOf(y1, y3), takesCourse(x, z)`)
	m := q.Minimize()
	if m.Size() != 2 {
		t.Fatalf("core has %d atoms, want 2: %s", m.Size(), m)
	}
}

func TestMinimizeAlreadyCore(t *testing.T) {
	q := MustParse(`q(x, y) :- advisorOf(x, y), takesCourse(y, z)`)
	m := q.Minimize()
	if m.Size() != 2 {
		t.Fatalf("core changed a minimal query: %s", m)
	}
}

func TestMinimizePreservesHead(t *testing.T) {
	// Distinguished variables must never be folded away.
	q := MustParse(`q(x, y) :- p(x, z), p(x, y)`)
	m := q.Minimize()
	if len(m.Head) != 2 || m.Head[0] != "x" || m.Head[1] != "y" {
		t.Fatalf("head changed: %v", m.Head)
	}
	// z is existential: p(x,z) folds onto p(x,y).
	if m.Size() != 1 {
		t.Fatalf("core = %s", m)
	}
	if m.Atoms[0].Y != "y" {
		t.Fatalf("fold went the wrong way: %s", m)
	}
}

func TestMinimizeCycleNotFoldable(t *testing.T) {
	// A directed 3-cycle has no endomorphism onto a proper subset when
	// tied to a distinguished vertex.
	q := MustParse(`q(x) :- p(x, y), p(y, z), p(z, x)`)
	m := q.Minimize()
	if m.Size() != 3 {
		t.Fatalf("cycle folded incorrectly: %s", m)
	}
}

func TestMinimizeSelfLoopAbsorbsCycle(t *testing.T) {
	// With a self loop present and no head anchors, the cycle folds into
	// the loop.
	q := &Query{Name: "b", Atoms: []Atom{
		RoleAtom("p", "a", "a"),
		RoleAtom("p", "x", "y"),
		RoleAtom("p", "y", "x"),
	}}
	m := q.Minimize()
	if m.Size() != 1 || m.Atoms[0] != RoleAtom("p", "a", "a") {
		t.Fatalf("core = %s", m)
	}
}

func TestMinimizeDuplicateAtoms(t *testing.T) {
	q := &Query{Name: "q", Head: []string{"x"}, Atoms: []Atom{
		RoleAtom("p", "x", "y"),
		RoleAtom("p", "x", "y"),
	}}
	m := q.Minimize()
	if m.Size() != 1 {
		t.Fatalf("duplicates survived: %s", m)
	}
}

// TestMinimizeEquivalence: on random queries, the core must be equivalent
// to the original (mutual homomorphism fixing the head).
func TestMinimizeEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		preds := []string{"p", "q"}
		vars := []string{"x", "y", "z", "w", "v"}
		var atoms []string
		n := 2 + rng.Intn(3)
		for i := 0; i < n; i++ {
			a, b := vars[rng.Intn(i+1)], vars[i+1]
			if rng.Intn(2) == 0 {
				a, b = b, a
			}
			atoms = append(atoms, fmt.Sprintf("%s(%s, %s)", preds[rng.Intn(2)], a, b))
		}
		q := MustParse("q(x) :- " + strings.Join(atoms, ", "))
		m := q.Minimize()
		if m.Size() > q.Size() {
			return false
		}
		// m ⊆ q and q ⊆ m must both hold (homomorphic equivalence).
		return homInto(m, q) && homInto(q, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// homInto reports a homomorphism from a into b fixing distinguished vars.
func homInto(a, b *Query) bool {
	sigma := map[string]string{}
	for _, h := range a.Head {
		sigma[h] = h
	}
	var match func(i int) bool
	match = func(i int) bool {
		if i == len(a.Atoms) {
			return true
		}
		ga := a.Atoms[i]
		for _, gb := range b.Atoms {
			if ga.Pred != gb.Pred || ga.IsRole != gb.IsRole {
				continue
			}
			pairs := [][2]string{{ga.X, gb.X}}
			if ga.IsRole {
				pairs = append(pairs, [2]string{ga.Y, gb.Y})
			}
			var added []string
			ok := true
			for _, p := range pairs {
				if img, has := sigma[p[0]]; has {
					if img != p[1] {
						ok = false
						break
					}
					continue
				}
				sigma[p[0]] = p[1]
				added = append(added, p[0])
			}
			if ok && match(i+1) {
				return true
			}
			for _, x := range added {
				delete(sigma, x)
			}
		}
		return false
	}
	return match(0)
}

func TestContainedIn(t *testing.T) {
	narrow := MustParse(`q(x) :- p(x, y), A(y)`)
	wide := MustParse(`q(x) :- p(x, y)`)
	if !narrow.ContainedIn(wide) {
		t.Fatal("narrow ⊆ wide should hold")
	}
	if wide.ContainedIn(narrow) {
		t.Fatal("wide ⊆ narrow should not hold")
	}
	// Head renaming: containment is positional.
	renamed := MustParse(`q(z) :- p(z, w)`)
	if !narrow.ContainedIn(renamed) || !renamed.ContainedIn(wide) {
		t.Fatal("renamed heads must compare positionally")
	}
	// Arity mismatch.
	pair := MustParse(`q(x, y) :- p(x, y)`)
	if pair.ContainedIn(wide) || wide.ContainedIn(pair) {
		t.Fatal("different head arities are incomparable")
	}
	// Equivalent queries contain each other.
	a := MustParse(`q(x) :- p(x, y), p(x, z)`)
	if !a.ContainedIn(wide) || !wide.ContainedIn(a) {
		t.Fatal("homomorphically equivalent queries must be mutually contained")
	}
}

// TestMinimizeSearchBounded: the fold search grows from the head along
// the query's edges, so a directed cycle whose atoms are listed out of
// order — 46 s to minimize when the search placed atoms in text order —
// is proved a core in a few thousand steps; and a search that runs out
// of steps folds nothing, so Minimize returns an equivalent query
// instead of pinning a core.
func TestMinimizeSearchBounded(t *testing.T) {
	atoms := []string{"p(x, y0)"}
	for _, start := range []int{0, 1} {
		for i := start; i < 14; i += 2 {
			atoms = append(atoms, fmt.Sprintf("p(y%d, y%d)", i, (i+1)%14))
		}
	}
	cycle := MustParse("q(x) :- " + strings.Join(atoms, ", "))
	steps := minimizeSteps
	if m, changed := foldOnce(cycle, &steps); changed || minimizeSteps-steps > 5000 {
		t.Fatalf("cycle: folded %v to %s in %d steps; want a core proved in at most 5000", changed, m, minimizeSteps-steps)
	}
	padded := MustParse("q(x) :- p(x, y), p(x, z)")
	steps = 0
	if m, changed := foldOnce(padded, &steps); changed {
		t.Fatalf("folded to %s with no steps left", m)
	}
	steps = 2 // one candidate per atom: p(x, y) onto p(x, z), p(x, z) onto itself
	if m, changed := foldOnce(padded, &steps); !changed || m.String() != "q(x) :- p(x, z)" {
		t.Fatalf("with two steps: folded %v to %s; want q(x) :- p(x, z)", changed, m)
	}
}
