package datalog

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"ogpa/internal/cq"
	"ogpa/internal/dllite"
	"ogpa/internal/graph"
	"ogpa/internal/perfectref"
)

// Program is the compiled datalog rewriting: hierarchy-closure rules over
// IDB predicates plus a residual UCQ over those predicates.
type Program struct {
	Rules    []Rule
	Residual []*cq.Query // over IDB predicate names (cPred/rPred)
	Head     []string
}

// Size is the rewriting-size metric used in the paper's Exp-2: number of
// atoms across rules and residual disjuncts.
func (p *Program) Size() int {
	n := 0
	for _, r := range p.Rules {
		n += 1 + len(r.Body)
	}
	for _, q := range p.Residual {
		n += q.Size()
	}
	return n
}

// AnswerPrefix is reserved for answer predicates: AnswerRules names
// its answer relation with it, and no program may use it.
const AnswerPrefix = "q·"

// AnswerRules returns the program's rules plus one rule per residual
// disjunct, pred(head) :- body, where pred is an answer predicate
// (AnswerPrefix followed by a name of the caller's). Every disjunct
// shares that head, so the relation's dedup forms the union: in the
// fixpoint of these rules pred holds exactly AnswerMaintained's
// answers, and a State built from them maintains the answers with
// everything else. Programs with distinct answer predicates can share
// one State. A disjunct with an empty body matches nothing and gets no
// rule; a head variable its body does not bind is the constant "", as
// AnswerMaintained leaves it. The rules are rejected if pred lacks the
// prefix, the program uses a predicate with it, or its disjuncts
// disagree on the head arity.
func (p *Program) AnswerRules(pred string) ([]Rule, error) {
	if !strings.HasPrefix(pred, AnswerPrefix) {
		return nil, fmt.Errorf("datalog: answer predicate %s lacks the prefix %s", pred, AnswerPrefix)
	}
	for _, r := range p.Rules {
		uses := strings.HasPrefix(r.Head.Pred, AnswerPrefix)
		for _, a := range r.Body {
			uses = uses || strings.HasPrefix(a.Pred, AnswerPrefix)
		}
		if uses {
			return nil, fmt.Errorf("datalog: rule %s uses the reserved prefix %s", r, AnswerPrefix)
		}
	}
	out := append(make([]Rule, 0, len(p.Rules)+len(p.Residual)), p.Rules...)
	arity := -1
	for _, d := range p.Residual {
		body := disjunctBody(d)
		for _, a := range body {
			if strings.HasPrefix(a.Pred, AnswerPrefix) {
				return nil, fmt.Errorf("datalog: disjunct %s uses the reserved prefix %s", d, AnswerPrefix)
			}
		}
		if len(body) == 0 {
			continue
		}
		if arity >= 0 && len(d.Head) != arity {
			return nil, fmt.Errorf("datalog: disjunct %s has %d answer variables, an earlier one %d", d, len(d.Head), arity)
		}
		arity = len(d.Head)
		bound := map[string]bool{}
		for _, a := range body {
			for _, t := range a.Args {
				bound[t.Name] = true
			}
		}
		head := Atom{Pred: pred, Args: make([]Term, len(d.Head))}
		for i, v := range d.Head {
			head.Args[i] = V(v)
			if !bound[v] {
				head.Args[i] = C("")
			}
		}
		out = append(out, Rule{Head: head, Body: body})
	}
	return out, nil
}

// disjunctBody translates a residual disjunct into datalog atoms.
func disjunctBody(d *cq.Query) []Atom {
	body := make([]Atom, len(d.Atoms))
	for i, a := range d.Atoms {
		if a.IsRole {
			body[i] = Atom{Pred: a.Pred, Args: []Term{V(a.X), V(a.Y)}}
		} else {
			body[i] = Atom{Pred: a.Pred, Args: []Term{V(a.X)}}
		}
	}
	return body
}

// cPred and rPred name the IDB predicates for a concept/role.
func cPred(a string) string { return conceptPrefix + a }
func rPred(p string) string { return rolePrefix + p }

// The prefixes of the hierarchy-closure predicates.
const conceptPrefix, rolePrefix = "c·", "r·"

// EDB names the relation that holds the data facts over pred. The
// rewriting names its own predicates with AnswerPrefix, conceptPrefix
// and rolePrefix; a data name that starts with one of them, or with
// edbEscape, gets edbEscape in front, so no data fact joins one of the
// rewriting's relations and no two data names share one. Every other
// name is its own relation. Every loader of data facts and every rule
// body over data goes through EDB.
func EDB(pred string) string {
	for _, p := range [...]string{AnswerPrefix, conceptPrefix, rolePrefix, edbEscape} {
		if strings.HasPrefix(pred, p) {
			return edbEscape + pred
		}
	}
	return pred
}

const edbEscape = "d·"

// HierarchyRules compiles the datalog-expressible inclusions (I1–I3, I8,
// I9) into closure rules: c_A and r_P hold the hierarchy-saturated
// extensions of concept A and role P.
func HierarchyRules(t *dllite.TBox, concepts, roles map[string]bool) []Rule {
	var rules []Rule
	for a := range concepts {
		rules = append(rules, Rule{
			Head: Atom{Pred: cPred(a), Args: []Term{V("x")}},
			Body: []Atom{{Pred: EDB(a), Args: []Term{V("x")}}},
		})
	}
	for p := range roles {
		rules = append(rules, Rule{
			Head: Atom{Pred: rPred(p), Args: []Term{V("x"), V("y")}},
			Body: []Atom{{Pred: EDB(p), Args: []Term{V("x"), V("y")}}},
		})
	}
	for _, ci := range t.CIs {
		if ci.Sup.Exists {
			continue // I10/I11: existential head, not datalog
		}
		head := Atom{Pred: cPred(ci.Sup.Name), Args: []Term{V("x")}}
		switch {
		case !ci.Sub.Exists: // I1
			rules = append(rules, Rule{Head: head,
				Body: []Atom{{Pred: cPred(ci.Sub.Name), Args: []Term{V("x")}}}})
		case !ci.Sub.Inv: // I8: ∃P ⊑ A
			rules = append(rules, Rule{Head: head,
				Body: []Atom{{Pred: rPred(ci.Sub.Name), Args: []Term{V("x"), V("y")}}}})
		default: // I9: ∃P⁻ ⊑ A
			rules = append(rules, Rule{Head: head,
				Body: []Atom{{Pred: rPred(ci.Sub.Name), Args: []Term{V("y"), V("x")}}}})
		}
	}
	for _, ri := range t.RIs {
		head := Atom{Pred: rPred(ri.Sup.Name), Args: []Term{V("x"), V("y")}}
		if !ri.Sub.Inv { // I2
			rules = append(rules, Rule{Head: head,
				Body: []Atom{{Pred: rPred(ri.Sub.Name), Args: []Term{V("x"), V("y")}}}})
		} else { // I3
			rules = append(rules, Rule{Head: head,
				Body: []Atom{{Pred: rPred(ri.Sub.Name), Args: []Term{V("y"), V("x")}}}})
		}
	}
	return rules
}

// Rewrite compiles the query: hierarchy rules for the predicates reachable
// from the query, plus a residual UCQ (PerfectRef over the full TBox, with
// hierarchy-aware subsumption pruning — IDB extensions are closed, so a
// disjunct is redundant when a kept disjunct maps into it with
// predicate generalization).
func Rewrite(q *cq.Query, t *dllite.TBox, lim perfectref.Limits) (*Program, error) {
	u, err := perfectref.Rewrite(q, t, lim)
	if err != nil {
		return nil, err
	}

	// Predicates needed by any disjunct.
	concepts := map[string]bool{}
	roles := map[string]bool{}
	for _, d := range u.Queries {
		for _, a := range d.Atoms {
			if a.IsRole {
				roles[a.Pred] = true
			} else {
				concepts[a.Pred] = true
			}
		}
	}

	// Hierarchy-aware pruning, bounded by the same time limit.
	var deadline time.Time
	if lim.Timeout > 0 {
		deadline = time.Now().Add(lim.Timeout)
	}
	keep := make([]bool, len(u.Queries))
	for i := range keep {
		keep[i] = true
	}
	atomMap := hierMap(t)
	for i, qi := range u.Queries {
		if !keep[i] {
			continue
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return nil, perfectref.ErrLimit
		}
		for j, qj := range u.Queries {
			if i == j || !keep[j] || qj.Size() > qi.Size() {
				continue
			}
			if qi.Size() == qj.Size() && j > i {
				continue
			}
			if perfectref.SubsumesBy(qj, qi, atomMap) {
				keep[i] = false
				break
			}
		}
	}

	prog := &Program{Head: append([]string(nil), q.Head...)}
	for i, d := range u.Queries {
		if !keep[i] {
			continue
		}
		r := d.Clone()
		for ai := range r.Atoms {
			if r.Atoms[ai].IsRole {
				r.Atoms[ai].Pred = rPred(r.Atoms[ai].Pred)
			} else {
				r.Atoms[ai].Pred = cPred(r.Atoms[ai].Pred)
			}
		}
		prog.Residual = append(prog.Residual, r)
	}
	prog.Rules = HierarchyRules(t, concepts, roles)
	return prog, nil
}

// hierMap is the atom map of hierarchy-aware pruning: an atom p(x̄) of
// the smaller disjunct may map onto an atom p'(x̄) of the bigger one
// whenever p' ⊑* p (the closed IDB extension of p' is contained in p's),
// with a role's arguments swapped when p' is an inverse subrole.
func hierMap(t *dllite.TBox) perfectref.AtomMap {
	return func(a, b cq.Atom) (pairs [2][2]string, n int) {
		switch {
		case a.IsRole != b.IsRole:
		case !a.IsRole:
			if slices.Contains(t.SubClassClosure(a.Pred), b.Pred) {
				return [2][2]string{{a.X, b.X}}, 1
			}
		default:
			for _, s := range t.SubRoleClosure(dllite.Role{Name: a.Pred}) {
				if s.Name != b.Pred {
					continue
				}
				if s.Inv {
					return [2][2]string{{a.X, b.Y}, {a.Y, b.X}}, 2
				}
				return [2][2]string{{a.X, b.X}, {a.Y, b.Y}}, 2
			}
		}
		return pairs, 0
	}
}

// LoadABox populates a database with the EDB facts of an ABox.
func LoadABox(a *dllite.ABox) *Database {
	db := NewDatabase()
	for _, ca := range a.Concepts {
		db.AddFact(EDB(ca.Concept), ca.Ind)
	}
	for _, ra := range a.Roles {
		db.AddFact(EDB(ra.Role), ra.Sub, ra.Obj)
	}
	return db
}

// GraphFacts lists a graph's labels and edges as EDB facts named
// through EDB: the one translation from the type-aware graph to the
// extensional database, shared by the maintained fixpoint and the cold
// baseline (LoadGraph). Attributes have no datalog counterpart. Every
// fact's arguments are cut from one backing array, capped so that no
// append to one reaches another's.
func GraphFacts(g *graph.Graph) []Fact {
	labels := 0
	for v := range g.NumVertices() {
		labels += len(g.Labels(graph.VID(v)))
	}
	fs := make([]Fact, 0, labels+g.NumEdges())
	args := make([]string, 0, labels+2*g.NumEdges())
	for v := range g.NumVertices() {
		vid := graph.VID(v)
		ind := g.Name(vid)
		for _, l := range g.Labels(vid) {
			args = append(args, ind)
			fs = append(fs, Fact{Pred: EDB(g.Symbols.Name(l)), Args: args[len(args)-1 : len(args) : len(args)]})
		}
		for _, h := range g.Out(vid) {
			args = append(args, ind, g.Name(h.To))
			fs = append(fs, Fact{Pred: EDB(g.Symbols.Name(h.Label)), Args: args[len(args)-2 : len(args) : len(args)]})
		}
	}
	return fs
}

// LoadGraph populates a database with the EDB facts of a graph.
func LoadGraph(g *graph.Graph) *Database {
	db := NewDatabase()
	for _, f := range GraphFacts(g) {
		db.Add(f.Pred, f.Args)
	}
	return db
}

// Answer materializes the program over db (semi-naive) and evaluates the
// residual UCQ, returning distinct sorted answer tuples.
func Answer(prog *Program, db *Database, lim Limits) ([]Tuple, error) {
	if err := Evaluate(prog.Rules, db, lim); err != nil {
		return nil, err
	}
	return AnswerMaintained(prog, db)
}

// AnswerMaintained evaluates the residual UCQ of prog over an
// already-materialized database, one join per disjunct; the union is
// deduplicated as it grows and sorted once. (A maintained State keeps
// the answers in its fixpoint instead: see AnswerRules and
// State.Answers.)
func AnswerMaintained(prog *Program, db *Database) ([]Tuple, error) {
	var s answerSet
	for _, d := range prog.Residual {
		if err := queryPlan(d.Head, disjunctBody(d)).collect(db, &s); err != nil {
			return nil, err
		}
	}
	return s.sorted(), nil
}
