// Package testkb is the shared randomized knowledge-base generator
// behind the cross-layer equivalence sweeps: the same seed produces the
// same (TBox, ABox, query) triple in every suite, so a failure found by
// the root-level workers-vs-sequential sweep can be replayed in
// internal/match's UCQ-vs-OGP harness (and vice versa) by seed alone.
//
// The draw sequence is the historical one from internal/match's
// randomKB — seeds quoted in ROADMAP.md, DESIGN.md and the knownbugs
// suite (e.g. 2392402369435569976) decode to the same instances here.
// Changing any Intn call, bound or ordering silently invalidates every
// recorded seed; don't.
package testkb

import (
	"fmt"
	"math/rand"
	"strings"

	"ogpa/internal/cq"
	"ogpa/internal/dllite"
)

var (
	concepts = []string{"A", "B", "C", "D"}
	roles    = []string{"p", "q", "r"}
	inds     = []string{"a", "b", "c", "d", "e"}
	vars     = []string{"x", "y", "z", "w"}
)

// RandomKB draws a small random DL-Lite KB and a connected conjunctive
// query over its signature. Identical to internal/match's randomKB.
func RandomKB(rng *rand.Rand) (*dllite.TBox, *dllite.ABox, *cq.Query) {
	tb := RandomTBox(rng)
	abox := RandomABox(rng)
	q := RandomQuery(rng)
	return tb, abox, q
}

// RandomTBox draws 3–6 concept inclusions over {A..D, ∃p, ∃p⁻, ...} and
// 0–2 role inclusions.
func RandomTBox(rng *rand.Rand) *dllite.TBox {
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	randConcept := func() dllite.Concept {
		switch rng.Intn(3) {
		case 0:
			return dllite.Atomic(pick(concepts))
		case 1:
			return dllite.Exists(dllite.Role{Name: pick(roles)})
		default:
			return dllite.Exists(dllite.Role{Name: pick(roles), Inv: true})
		}
	}
	var cis []dllite.ConceptInclusion
	for i := 0; i < 3+rng.Intn(4); i++ {
		cis = append(cis, dllite.ConceptInclusion{Sub: randConcept(), Sup: randConcept()})
	}
	var ris []dllite.RoleInclusion
	for i := 0; i < rng.Intn(3); i++ {
		ris = append(ris, dllite.RoleInclusion{
			Sub: dllite.Role{Name: pick(roles), Inv: rng.Intn(2) == 0},
			Sup: dllite.Role{Name: pick(roles)},
		})
	}
	return dllite.NewTBox(cis, ris)
}

// RandomABox draws 3–7 membership assertions over individuals {a..e}.
func RandomABox(rng *rand.Rand) *dllite.ABox {
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	abox := &dllite.ABox{}
	for i := 0; i < 3+rng.Intn(5); i++ {
		if rng.Intn(2) == 0 {
			abox.AddConcept(pick(concepts), pick(inds))
		} else {
			abox.AddRole(pick(roles), pick(inds), pick(inds))
		}
	}
	return abox
}

// RandomQuery draws a connected 1–3-edge CQ with head variable x and an
// optional concept atom on x.
func RandomQuery(rng *rand.Rand) *cq.Query {
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	var atoms []string
	ne := 1 + rng.Intn(3)
	for i := 0; i < ne; i++ {
		a, b := vars[rng.Intn(i+1)], vars[i+1]
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		atoms = append(atoms, fmt.Sprintf("%s(%s, %s)", pick(roles), a, b))
	}
	if rng.Intn(2) == 0 {
		atoms = append(atoms, fmt.Sprintf("%s(x)", pick(concepts)))
	}
	return cq.MustParse("q(x) :- " + strings.Join(atoms, ", "))
}

// Render serializes a (TBox, ABox) pair into the text formats ogpa.NewKB
// parses — ontology lines ("A SubClassOf some p", "p- SubPropertyOf q")
// and assertion lines ("A(a)", "p(a, b)"). Attribute assertions have no
// text form and must be empty.
func Render(tb *dllite.TBox, abox *dllite.ABox) (ontology, data string) {
	var ob strings.Builder
	for _, ci := range tb.CIs {
		fmt.Fprintln(&ob, ci)
	}
	for _, ri := range tb.RIs {
		fmt.Fprintln(&ob, ri)
	}
	var db strings.Builder
	for _, ca := range abox.Concepts {
		fmt.Fprintf(&db, "%s(%s)\n", ca.Concept, ca.Ind)
	}
	for _, ra := range abox.Roles {
		fmt.Fprintf(&db, "%s(%s, %s)\n", ra.Role, ra.Sub, ra.Obj)
	}
	if len(abox.Attrs) > 0 {
		panic("testkb: attribute assertions have no text rendering")
	}
	return ob.String(), db.String()
}
