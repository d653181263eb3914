package cq

// Minimization computes the core of a conjunctive query: the smallest
// subquery equivalent to it. The paper's Remark (Section IV-B) reduces
// minimal-OGP generation to CQ minimization to show NP-hardness; this file
// provides the classic folding algorithm, and the facade answers every
// query through its core (a smaller query yields a smaller OGP and a
// cheaper match). Exponential in the worst case — like the problem
// itself — so the search is bounded by minimizeSteps; it extends from the
// head along the query's edges and is fast for the query sizes of the
// paper's workloads (≤ 16 atoms).

import "math"

// minimizeSteps bounds the candidate atoms one Minimize call tries across
// its homomorphism searches. Every query text the facade answers is
// minimized, and a hostile text must not pin a core: a 15-atom directed
// cycle with its atoms listed out of order took 46 s when the search
// placed atoms in text order. Past the bound, Minimize returns the query
// folded so far, which is equivalent to q, only perhaps not minimal.
const minimizeSteps = 1 << 18

// Minimize returns the core of q: an equivalent query with a minimal set
// of atoms. The head is preserved; only existential variables can be
// folded onto other variables. A query whose search outgrows
// minimizeSteps comes back folded as far as the bound allowed.
func (q *Query) Minimize() *Query {
	cur := q.Clone()
	dedupAtomsInPlace(cur)
	steps := minimizeSteps
	for {
		next, changed := foldOnce(cur, &steps)
		if !changed {
			return cur
		}
		cur = next
	}
}

// foldOnce tries to find an endomorphism of q that is the identity on the
// head and avoids at least one atom; applying it yields a strictly smaller
// equivalent query. The substitution is applied in a single step (not
// chained): the found map is a homomorphism, not necessarily idempotent.
func foldOnce(q *Query, steps *int) (*Query, bool) {
	order := searchOrder(q)
	rest := make([]Atom, 0, len(q.Atoms))
	for drop := range q.Atoms {
		rest = append(append(rest[:0], q.Atoms[:drop]...), q.Atoms[drop+1:]...)
		sigma := homomorphism(q, order, rest, steps)
		if sigma == nil {
			continue
		}
		img := func(v string) string {
			if w, ok := sigma[v]; ok {
				return w
			}
			return v
		}
		out := &Query{Name: q.Name, Head: append([]string(nil), q.Head...)}
		for _, a := range q.Atoms {
			b := a
			b.X = img(a.X)
			if a.IsRole {
				b.Y = img(a.Y)
			}
			out.Atoms = append(out.Atoms, b)
		}
		dedupAtomsInPlace(out)
		// The image lies inside q minus the dropped atom, so it is
		// strictly smaller.
		return out, true
	}
	return q, false
}

// homomorphism searches for a map from q's variables into the variables of
// atoms that fixes q's distinguished variables and sends every atom of q
// onto one of atoms, backtracking over q's atoms in order (searchOrder's).
// Each candidate atom tried costs one of *steps; once they run out the
// search fails. It returns the map, or nil when there is none or the
// steps ran out.
func homomorphism(q *Query, order []int, atoms []Atom, steps *int) map[string]string {
	sigma := map[string]string{}
	for _, h := range q.Head {
		sigma[h] = h
	}
	bind := func(x, y string) (ok, added bool) {
		if img, has := sigma[x]; has {
			return img == y, false
		}
		sigma[x] = y
		return true, true
	}
	var match func(i int) bool
	match = func(i int) bool {
		if i == len(order) {
			return true
		}
		a := q.Atoms[order[i]]
		for _, b := range atoms {
			if a.Pred != b.Pred || a.IsRole != b.IsRole {
				continue
			}
			if *steps--; *steps < 0 {
				return false
			}
			ok, addedX := bind(a.X, b.X)
			addedY := false
			if ok && a.IsRole {
				ok, addedY = bind(a.Y, b.Y)
			}
			if ok && match(i+1) {
				return true
			}
			if addedX {
				delete(sigma, a.X)
			}
			if addedY {
				delete(sigma, a.Y)
			}
		}
		return false
	}
	if match(0) {
		return sigma
	}
	return nil
}

// searchOrder lists the indexes of q's atoms in the order homomorphism
// places them: next, the atom whose variables are all bound (by the head
// or by atoms placed before it), else one with some bound, else any, ties
// going to the earlier atom. The search so grows from the head along the
// query's edges, where a bound variable leaves few candidates, instead of
// guessing images for atoms that share no variable yet.
func searchOrder(q *Query) []int {
	bound := make(map[string]bool, len(q.Head)+len(q.Atoms))
	for _, h := range q.Head {
		bound[h] = true
	}
	placed := make([]bool, len(q.Atoms))
	order := make([]int, 0, len(q.Atoms))
	for range q.Atoms {
		best, bestScore := -1, -1
		for i, a := range q.Atoms {
			if placed[i] {
				continue
			}
			nb, vs := 0, a.Vars()
			for _, v := range vs {
				if bound[v] {
					nb++
				}
			}
			score := min(nb, 1)
			if nb == len(vs) {
				score = 2
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		placed[best] = true
		order = append(order, best)
		for _, v := range q.Atoms[best].Vars() {
			bound[v] = true
		}
	}
	return order
}

func dedupAtomsInPlace(q *Query) {
	seen := make(map[Atom]bool, len(q.Atoms))
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

// ContainedIn reports whether q's answers are contained in p's on every
// dataset (classic CQ containment: a homomorphism from p into q fixing the
// head). Exposed for query-optimization callers; NP-complete in general,
// fast at the paper's query sizes.
func (q *Query) ContainedIn(p *Query) bool {
	if len(q.Head) != len(p.Head) {
		return false
	}
	// Rename p's head to q's (containment compares by head position).
	ren := map[string]string{}
	for i, h := range p.Head {
		ren[h] = q.Head[i]
	}
	pr := p.Clone()
	for i, a := range pr.Atoms {
		if v, ok := ren[a.X]; ok {
			pr.Atoms[i].X = v
		}
		if a.IsRole {
			if v, ok := ren[a.Y]; ok {
				pr.Atoms[i].Y = v
			}
		}
	}
	pr.Head = append([]string(nil), q.Head...)
	unbounded := math.MaxInt
	return homomorphism(pr, searchOrder(pr), q.Atoms, &unbounded) != nil
}
