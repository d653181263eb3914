// Package perfectref implements the classic PerfectRef rewriting algorithm
// of Calvanese et al. (JAR'07), reviewed in Section IV-A of the paper: given
// a conjunctive query q and a DL-Lite_R TBox T, it produces a union of
// conjunctive queries (UCQ) q_o with q_o ≡_T q, by interleaving Deduction
// (applying inclusions I1–I11 of Table II to atoms) and Reduction (unifying
// atom pairs with their most general unifier).
//
// The UCQ is worst-case exponential in |q| (paper Example 7); this package
// is the baseline that the paper's GenOGP avoids. RewriteOptimized adds the
// subsumption pruning used by the Iqaros/Rapid family of optimized UCQ
// rewriters: it removes disjuncts subsumed by another disjunct, shrinking
// the UCQ without changing its answers.
package perfectref

import (
	"errors"
	"fmt"
	"time"

	"ogpa/internal/cq"
	"ogpa/internal/dllite"
)

// Limits bounds a rewriting run. Zero values disable the respective limit.
type Limits struct {
	MaxQueries int           // abort when the UCQ exceeds this many disjuncts
	Timeout    time.Duration // abort after this much wall-clock time
}

// ErrLimit is returned when a limit was hit; the paper marks such queries
// "unsolved" and charges the time limit.
var ErrLimit = errors.New("perfectref: rewriting limit exceeded")

// UCQ is a union of conjunctive queries.
type UCQ struct {
	Queries []*cq.Query
}

// Size reports the total number of atoms across disjuncts, the paper's
// rewriting-size metric (Exp-2).
func (u *UCQ) Size() int {
	n := 0
	for _, q := range u.Queries {
		n += q.Size()
	}
	return n
}

// Len reports the number of disjuncts.
func (u *UCQ) Len() int { return len(u.Queries) }

// Rewrite runs PerfectRef. The result always contains the input query as
// its first disjunct.
func (u *UCQ) String() string {
	s := ""
	for i, q := range u.Queries {
		if i > 0 {
			s += "\n∪ "
		}
		s += q.String()
	}
	return s
}

// Rewrite runs the classic PerfectRef loop.
func Rewrite(q *cq.Query, t *dllite.TBox, lim Limits) (*UCQ, error) {
	var deadline time.Time
	if lim.Timeout > 0 {
		deadline = time.Now().Add(lim.Timeout)
	}
	set := newQuerySet()
	set.add(q)
	frontier := []*cq.Query{q}
	fresh := freshGen{}

	for len(frontier) > 0 {
		if lim.MaxQueries > 0 && set.len() > lim.MaxQueries {
			return nil, ErrLimit
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return nil, ErrLimit
		}
		cur := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]

		// Deduction: apply every applicable inclusion to every atom.
		unbound := cur.Unbound()
		for i, g := range cur.Atoms {
			for _, rep := range applicable(cur, g, unbound, t, &fresh) {
				next := cur.Clone()
				next.Atoms[i] = rep
				dedupAtoms(next)
				if set.add(next) {
					frontier = append(frontier, next)
				}
			}
		}

		// Reduction: unify every unifiable atom pair.
		for i := 0; i < len(cur.Atoms); i++ {
			for j := i + 1; j < len(cur.Atoms); j++ {
				sigma := cur.Unify(cur.Atoms[i], cur.Atoms[j])
				if sigma == nil {
					continue
				}
				next := cur.Apply(sigma)
				if set.add(next) {
					frontier = append(frontier, next)
				}
			}
		}
	}
	return &UCQ{Queries: set.queries()}, nil
}

// RewriteOptimized runs PerfectRef and then prunes subsumed disjuncts
// (if q2 maps homomorphically into q1 fixing the head, q1 is redundant).
// The time limit covers both phases.
func RewriteOptimized(q *cq.Query, t *dllite.TBox, lim Limits) (*UCQ, error) {
	var deadline time.Time
	if lim.Timeout > 0 {
		deadline = time.Now().Add(lim.Timeout)
	}
	u, err := Rewrite(q, t, lim)
	if err != nil {
		return nil, err
	}
	keep := make([]bool, len(u.Queries))
	for i := range keep {
		keep[i] = true
	}
	for i, qi := range u.Queries {
		if !keep[i] {
			continue
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return nil, ErrLimit
		}
		for j, qj := range u.Queries {
			if i == j || !keep[j] {
				continue
			}
			// qj subsumes qi when qj (smaller or equal) maps into qi.
			if qj.Size() <= qi.Size() && Subsumes(qj, qi) {
				if qi.Size() == qj.Size() && j > i {
					continue // symmetric pair: keep the earlier one
				}
				keep[i] = false
				break
			}
		}
	}
	out := &UCQ{}
	for i, qi := range u.Queries {
		if keep[i] {
			out.Queries = append(out.Queries, qi)
		}
	}
	return out, nil
}

// applicable enumerates the replacement atoms gr(g, I) for every inclusion
// I ∈ T applicable to atom g in query cur, per Table II.
func applicable(cur *cq.Query, g cq.Atom, unbound map[string]bool, t *dllite.TBox, fresh *freshGen) []cq.Atom {
	var out []cq.Atom
	if !g.IsRole {
		// Atom A(x): I1 (A2 ⊑ A), I8 (∃P ⊑ A), I9 (∃P^- ⊑ A).
		for _, sub := range t.SubConceptsOf(dllite.Atomic(g.Pred)) {
			out = append(out, conceptToAtom(sub, g.X, fresh))
		}
		return out
	}

	// Role atom P(x, y).
	// Role inclusions I2/I3 always apply.
	for _, sub := range t.SubRolesOf(dllite.Role{Name: g.Pred}) {
		if !sub.Inv {
			out = append(out, cq.RoleAtom(sub.Name, g.X, g.Y))
		} else {
			out = append(out, cq.RoleAtom(sub.Name, g.Y, g.X))
		}
	}
	// When y is unbound, g acts as P(x, _): inclusions with RHS ∃P apply.
	if unbound[g.Y] {
		for _, sub := range t.SubConceptsOf(dllite.Exists(dllite.Role{Name: g.Pred})) {
			out = append(out, conceptToAtom(sub, g.X, fresh))
		}
	}
	// When x is unbound, g acts as P(_, y): inclusions with RHS ∃P^- apply.
	if unbound[g.X] {
		for _, sub := range t.SubConceptsOf(dllite.Exists(dllite.Role{Name: g.Pred, Inv: true})) {
			out = append(out, conceptToAtom(sub, g.Y, fresh))
		}
	}
	return out
}

// conceptToAtom renders a subsumee concept as the replacement atom keeping
// variable x: A ↦ A(x), ∃P2 ↦ P2(x, _), ∃P2^- ↦ P2(_, x).
func conceptToAtom(c dllite.Concept, x string, fresh *freshGen) cq.Atom {
	switch {
	case !c.Exists:
		return cq.ConceptAtom(c.Name, x)
	case !c.Inv:
		return cq.RoleAtom(c.Name, x, fresh.next())
	default:
		return cq.RoleAtom(c.Name, fresh.next(), x)
	}
}

// dedupAtoms removes duplicate atoms in place (queries are atom *sets*).
func dedupAtoms(q *cq.Query) {
	seen := make(map[cq.Atom]bool, len(q.Atoms))
	w := 0
	for _, a := range q.Atoms {
		if !seen[a] {
			seen[a] = true
			q.Atoms[w] = a
			w++
		}
	}
	q.Atoms = q.Atoms[:w]
}

type freshGen struct{ n int }

func (f *freshGen) next() string {
	f.n++
	return fmt.Sprintf("_g%d", f.n)
}

// querySet deduplicates queries: a cheap canonical-string index with exact
// isomorphism verification inside each bucket, so distinct queries are never
// merged (which would lose answers) while duplicates are reliably dropped.
type querySet struct {
	buckets map[string][]*cq.Query
	order   []*cq.Query
}

func newQuerySet() *querySet {
	return &querySet{buckets: make(map[string][]*cq.Query)}
}

func (s *querySet) len() int { return len(s.order) }

func (s *querySet) queries() []*cq.Query { return s.order }

func (s *querySet) add(q *cq.Query) bool {
	key := q.Canonical()
	for _, other := range s.buckets[key] {
		if isoEqual(q, other) {
			return false
		}
	}
	s.buckets[key] = append(s.buckets[key], q)
	s.order = append(s.order, q)
	return true
}

// isoEqual reports whether two queries are equal up to a bijective renaming
// of existential variables (distinguished variables must match by name).
func isoEqual(a, b *cq.Query) bool {
	if len(a.Atoms) != len(b.Atoms) || len(a.Head) != len(b.Head) {
		return false
	}
	for i := range a.Head {
		if a.Head[i] != b.Head[i] {
			return false
		}
	}
	used := make(map[int]bool, len(b.Atoms))
	sigma := make(map[string]string)
	rev := make(map[string]string)
	var match func(i int) bool
	bindVar := func(x, y string) (ok, added bool) {
		if a.IsDistinguished(x) || b.IsDistinguished(y) {
			return x == y, false
		}
		if sx, ok := sigma[x]; ok {
			return sx == y, false
		}
		if _, ok := rev[y]; ok {
			return false, false
		}
		sigma[x] = y
		rev[y] = x
		return true, true
	}
	match = func(i int) bool {
		if i == len(a.Atoms) {
			return true
		}
		ga := a.Atoms[i]
		for j, gb := range b.Atoms {
			if used[j] || ga.Pred != gb.Pred || ga.IsRole != gb.IsRole {
				continue
			}
			var added []string
			ok := true
			pairs := [][2]string{{ga.X, gb.X}}
			if ga.IsRole {
				pairs = append(pairs, [2]string{ga.Y, gb.Y})
			}
			for _, p := range pairs {
				okp, addedp := bindVar(p[0], p[1])
				if addedp {
					added = append(added, p[0])
				}
				if !okp {
					ok = false
					break
				}
			}
			if ok {
				used[j] = true
				if match(i + 1) {
					return true
				}
				used[j] = false
			}
			for _, x := range added {
				delete(rev, sigma[x])
				delete(sigma, x)
			}
		}
		return false
	}
	return match(0)
}

// AtomMap decides whether atom a of the smaller query may map onto atom
// b of the bigger one in a subsumption test: it returns the n variable
// pairs (a variable of a, its image in b) the mapping binds, n = 0 when
// a may not map onto b.
type AtomMap func(a, b cq.Atom) (pairs [2][2]string, n int)

// samePred is Subsumes' atom map: the same predicate, argument for
// argument.
func samePred(a, b cq.Atom) (pairs [2][2]string, n int) {
	switch {
	case a.Pred != b.Pred || a.IsRole != b.IsRole:
		return pairs, 0
	case !a.IsRole:
		return [2][2]string{{a.X, b.X}}, 1
	default:
		return [2][2]string{{a.X, b.X}, {a.Y, b.Y}}, 2
	}
}

// Subsumes reports whether there is a homomorphism from small into big that
// fixes distinguished variables: then big is a redundant disjunct whenever
// small is also in the UCQ.
func Subsumes(small, big *cq.Query) bool { return SubsumesBy(small, big, samePred) }

// SubsumesBy reports whether there is a homomorphism from small into big
// that fixes distinguished variables, each atom of small mapped onto an
// atom of big as m allows.
func SubsumesBy(small, big *cq.Query, m AtomMap) bool {
	h := homSearch{small: small, big: big, m: m, sigma: map[string]string{}}
	return h.match(0)
}

// homSearch is SubsumesBy's backtracking state: sigma maps the
// existential variables of small bound so far.
type homSearch struct {
	small, big *cq.Query
	m          AtomMap
	sigma      map[string]string
}

// match maps small's atoms from i on, undoing its own bindings on every
// branch that fails.
func (h *homSearch) match(i int) bool {
	if i == len(h.small.Atoms) {
		return true
	}
	for _, b := range h.big.Atoms {
		pairs, n := h.m(h.small.Atoms[i], b)
		var added [2]string
		k, ok := 0, n > 0
		for _, p := range pairs[:n] {
			bound, isNew := h.bind(p[0], p[1])
			if isNew {
				added[k] = p[0]
				k++
			}
			if !bound {
				ok = false
				break
			}
		}
		if ok && h.match(i+1) {
			return true
		}
		for _, x := range added[:k] {
			delete(h.sigma, x)
		}
	}
	return false
}

// bind maps x to y, reporting whether that agrees with the bindings so
// far and whether it added one.
func (h *homSearch) bind(x, y string) (ok, added bool) {
	if h.small.IsDistinguished(x) {
		return x == y && h.big.IsDistinguished(y), false
	}
	if sx, ok := h.sigma[x]; ok {
		return sx == y, false
	}
	h.sigma[x] = y
	return true, true
}
