package saturate

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"ogpa/internal/cq"
	"ogpa/internal/daf"
	"ogpa/internal/datalog"
	"ogpa/internal/dllite"
	"ogpa/internal/perfectref"
	"ogpa/internal/testkb"
)

// The sweeps below cross-check the cold chase against the one maintained
// structure the project keeps, the DRed-maintained datalog fixpoint
// (datalog.State), over the same insert/delete batch sequences. Either
// side drifting after a deletion-heavy batch fails the sweep.

// cloneABox deep-copies the assertion lists.
func cloneABox(a *dllite.ABox) *dllite.ABox {
	return &dllite.ABox{
		Concepts: append([]dllite.ConceptAssertion(nil), a.Concepts...),
		Roles:    append([]dllite.RoleAssertion(nil), a.Roles...),
	}
}

// applyToABox mirrors a batch onto a plain ABox (dedup on insert,
// delete-all-occurrences on delete, deletions first), producing the
// input of the cold side.
func applyToABox(a *dllite.ABox, ins, del *dllite.ABox) *dllite.ABox {
	type ck = dllite.ConceptAssertion
	type rk = dllite.RoleAssertion
	cs := map[ck]bool{}
	rs := map[rk]bool{}
	for _, x := range a.Concepts {
		cs[x] = true
	}
	for _, x := range a.Roles {
		rs[x] = true
	}
	for _, x := range del.Concepts {
		delete(cs, x)
	}
	for _, x := range del.Roles {
		delete(rs, x)
	}
	for _, x := range ins.Concepts {
		cs[x] = true
	}
	for _, x := range ins.Roles {
		rs[x] = true
	}
	out := &dllite.ABox{}
	for x := range cs {
		out.Concepts = append(out.Concepts, x)
	}
	for x := range rs {
		out.Roles = append(out.Roles, x)
	}
	return out
}

// randBatch draws one insert/delete batch over the testkb signature.
// Deletion-heavy batches (every third) remove up to half the current
// assertions, stressing the DRed overdelete/rederive path.
func randBatch(rng *rand.Rand, cur *dllite.ABox, heavy bool) (ins, del *dllite.ABox) {
	ins, del = &dllite.ABox{}, &dllite.ABox{}
	nDel := rng.Intn(3)
	if heavy {
		nDel = 3 + rng.Intn(6)
	}
	for i := 0; i < nDel; i++ {
		if n := len(cur.Concepts); n > 0 && (rng.Intn(2) == 0 || len(cur.Roles) == 0) {
			ca := cur.Concepts[rng.Intn(n)]
			del.AddConcept(ca.Concept, ca.Ind)
		} else if n := len(cur.Roles); n > 0 {
			ra := cur.Roles[rng.Intn(n)]
			del.AddRole(ra.Role, ra.Sub, ra.Obj)
		}
	}
	nIns := 1 + rng.Intn(4)
	if heavy {
		nIns = rng.Intn(2)
	}
	add := testkb.RandomABox(rng)
	for i := 0; i < nIns && i < len(add.Concepts); i++ {
		ins.AddConcept(add.Concepts[i].Concept, add.Concepts[i].Ind)
	}
	for i := 0; i < nIns && i < len(add.Roles); i++ {
		ins.AddRole(add.Roles[i].Role, add.Roles[i].Sub, add.Roles[i].Obj)
	}
	return ins, del
}

// aboxFacts flattens assertions into datalog EDB facts.
func aboxFacts(a *dllite.ABox) []datalog.Fact {
	var fs []datalog.Fact
	for _, c := range a.Concepts {
		fs = append(fs, datalog.Fact{Pred: c.Concept, Args: datalog.Tuple{c.Ind}})
	}
	for _, r := range a.Roles {
		fs = append(fs, datalog.Fact{Pred: r.Role, Args: datalog.Tuple{r.Sub, r.Obj}})
	}
	return fs
}

// maintained is one datalog program per query, each with its fixpoint
// kept by datalog.State across batches.
type maintained struct {
	progs  []*datalog.Program
	states []*datalog.State
}

func newMaintained(t *testing.T, qs []*cq.Query, tb *dllite.TBox, abox *dllite.ABox) *maintained {
	t.Helper()
	m := &maintained{}
	for _, q := range qs {
		prog, err := datalog.Rewrite(q, tb, perfectref.Limits{})
		if err != nil {
			t.Fatalf("Rewrite %s: %v", q, err)
		}
		st, err := datalog.NewState(prog.Rules, aboxFacts(abox), datalog.Limits{})
		if err != nil {
			t.Fatalf("NewState %s: %v", q, err)
		}
		m.progs = append(m.progs, prog)
		m.states = append(m.states, st)
	}
	return m
}

func (m *maintained) apply(t *testing.T, ins, del *dllite.ABox) {
	t.Helper()
	for _, st := range m.states {
		if _, err := st.Apply(aboxFacts(ins), aboxFacts(del), datalog.Limits{}); err != nil {
			t.Fatalf("State.Apply: %v", err)
		}
	}
}

// answer returns query i's rows over its maintained fixpoint, rendered
// like AnswerSet.Names.
func (m *maintained) answer(t *testing.T, i int) []string {
	t.Helper()
	tuples, err := datalog.AnswerMaintained(m.progs[i], m.states[i].DB())
	if err != nil {
		t.Fatalf("AnswerMaintained: %v", err)
	}
	rows := make([]string, len(tuples))
	for j, tu := range tuples {
		rows[j] = strings.Join(tu, ",")
	}
	sort.Strings(rows)
	return rows
}

// TestMaintainerMatchesAnswerCQ is the saturate half of the 100-seed
// maintained-vs-recompute sweep: after every batch (including
// deletion-heavy ones) the maintained datalog fixpoint of the query's
// rewriting must produce the same certain answers as a from-scratch
// AnswerCQ chase over the current ABox.
func TestMaintainerMatchesAnswerCQ(t *testing.T) {
	for seed := 0; seed < 100; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			tb, abox, q := testkb.RandomKB(rng)

			m := newMaintained(t, []*cq.Query{q}, tb, abox)
			cur := cloneABox(abox)

			check := func(step string) {
				t.Helper()
				want, wg, _, err := AnswerCQ(tb, cur, q, Limits{}, daf.Options{})
				if err != nil {
					t.Fatalf("%s: AnswerCQ: %v", step, err)
				}
				g, w := strings.Join(m.answer(t, 0), "\n"), strings.Join(want.Names(wg), "\n")
				if g != w {
					t.Fatalf("%s: query %s\nmaintained:\n%s\nchase:\n%s", step, q, g, w)
				}
			}
			check("initial")

			for bi := 0; bi < 5; bi++ {
				heavy := bi%3 == 2
				ins, del := randBatch(rng, cur, heavy)
				m.apply(t, ins, del)
				cur = applyToABox(cur, ins, del)
				check(fmt.Sprintf("batch %d (heavy=%v)", bi, heavy))
			}
		})
	}
}

// randNegatives draws disjointness axioms over the testkb signature.
func randNegatives(rng *rand.Rand, tb *dllite.TBox) {
	concepts := []string{"A", "B", "C", "D"}
	roles := []string{"p", "q", "r"}
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
	var ncs []dllite.NegConceptInclusion
	for i := 0; i < 1+rng.Intn(2); i++ {
		ncs = append(ncs, dllite.NegConceptInclusion{Sub: randConcept(), Neg: randConcept()})
	}
	var nrs []dllite.NegRoleInclusion
	if rng.Intn(2) == 0 {
		nrs = append(nrs, dllite.NegRoleInclusion{
			Sub: dllite.Role{Name: pick(roles), Inv: rng.Intn(2) == 0},
			Neg: dllite.Role{Name: pick(roles)},
		})
	}
	tb.AddNegatives(ncs, nrs)
}

// conceptAtom renders "x is in c" as one query atom, inventing the
// fresh variable y for an existential's filler.
func conceptAtom(c dllite.Concept, x, y string) cq.Atom {
	switch {
	case !c.Exists:
		return cq.ConceptAtom(c.Name, x)
	case !c.Inv:
		return cq.RoleAtom(c.Name, x, y)
	default:
		return cq.RoleAtom(c.Name, y, x)
	}
}

// violationQueries compiles each negative inclusion into the boolean
// query that holds exactly when the KB violates it (the DL-Lite
// consistency-by-rewriting reduction), keyed by the inclusion's
// rendering as CheckConsistency reports it.
func violationQueries(tb *dllite.TBox) (keys []string, qs []*cq.Query) {
	for _, nc := range tb.NegCIs {
		keys = append(keys, nc.String())
		qs = append(qs, &cq.Query{Atoms: []cq.Atom{
			conceptAtom(nc.Sub, "x", "y1"),
			conceptAtom(nc.Neg, "x", "y2"),
		}})
	}
	for _, nr := range tb.NegRIs {
		sub := cq.RoleAtom(nr.Sub.Name, "x", "y")
		if nr.Sub.Inv {
			sub = cq.RoleAtom(nr.Sub.Name, "y", "x")
		}
		keys = append(keys, nr.String())
		qs = append(qs, &cq.Query{Atoms: []cq.Atom{sub, cq.RoleAtom(nr.Neg.Name, "x", "y")}})
	}
	return keys, qs
}

// TestConsistencyStateMatchesCheck sweeps a maintained consistency state
// against the cold CheckConsistency: each negative inclusion's violation
// query is rewritten to datalog and its fixpoint maintained across the
// batches, and after every batch the set of violated inclusions must
// equal the set CheckConsistency reports over the current ABox.
func TestConsistencyStateMatchesCheck(t *testing.T) {
	for seed := 0; seed < 100; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			tb := testkb.RandomTBox(rng)
			randNegatives(rng, tb)
			abox := testkb.RandomABox(rng)

			keys, qs := violationQueries(tb)
			m := newMaintained(t, qs, tb, abox)
			cur := cloneABox(abox)

			check := func(step string) {
				t.Helper()
				vs, err := CheckConsistency(tb, cur, Limits{})
				if err != nil {
					t.Fatalf("%s: CheckConsistency: %v", step, err)
				}
				want := map[string]bool{}
				for _, v := range vs {
					want[v.Inclusion] = true
				}
				got := map[string]bool{}
				for i, k := range keys {
					if len(m.answer(t, i)) > 0 {
						got[k] = true
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: violated inclusions differ\nmaintained: %v\ncheck:      %v (%v)",
						step, got, want, vs)
				}
			}
			check("initial")

			for bi := 0; bi < 5; bi++ {
				heavy := bi%3 == 2
				ins, del := randBatch(rng, cur, heavy)
				m.apply(t, ins, del)
				cur = applyToABox(cur, ins, del)
				check(fmt.Sprintf("batch %d (heavy=%v)", bi, heavy))
			}
		})
	}
}

// TestMaintainerDeleteOnlyWitness: deleting the only named witness of an
// existential must keep the answer (the chase re-invents a null, the
// rewriting still derives it from the holder fact), and deleting the
// holder fact must retract it, on the cold chase and the maintained
// fixpoint alike.
func TestMaintainerDeleteOnlyWitness(t *testing.T) {
	tb := dllite.NewTBox([]dllite.ConceptInclusion{
		{Sub: dllite.Atomic("A"), Sup: dllite.Exists(dllite.Role{Name: "p"})},
		{Sub: dllite.Exists(dllite.Role{Name: "p"}), Sup: dllite.Atomic("B")},
	}, nil)
	abox := &dllite.ABox{}
	abox.AddConcept("A", "a")
	abox.AddRole("p", "a", "b")

	q := cq.MustParse("q(x) :- B(x)")
	m := newMaintained(t, []*cq.Query{q}, tb, abox)
	cur := cloneABox(abox)
	ans := func(step, want string) {
		t.Helper()
		res, g, _, err := AnswerCQ(tb, cur, q, Limits{}, daf.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(res.Names(g), ";"); got != want {
			t.Fatalf("%s: chase B answers = %q, want %q", step, got, want)
		}
		if got := strings.Join(m.answer(t, 0), ";"); got != want {
			t.Fatalf("%s: maintained B answers = %q, want %q", step, got, want)
		}
	}
	ans("initial", "a")

	// Delete the named witness: a keeps B.
	del := &dllite.ABox{}
	del.AddRole("p", "a", "b")
	m.apply(t, &dllite.ABox{}, del)
	cur = applyToABox(cur, &dllite.ABox{}, del)
	ans("after witness deletion", "a")

	// Delete the holder fact: nothing supports B(a) anymore.
	del2 := &dllite.ABox{}
	del2.AddConcept("A", "a")
	m.apply(t, &dllite.ABox{}, del2)
	cur = applyToABox(cur, &dllite.ABox{}, del2)
	ans("after holder deletion", "")
}
