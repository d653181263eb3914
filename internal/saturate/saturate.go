// Package saturate is the saturation (chase / materialization) baseline of
// the paper's evaluation, standing in for PAGOdA / RDFox / Stardog-style
// systems: it completes the ABox with all facts entailed by the TBox and
// then answers queries by plain pattern matching on the completed graph.
//
// DL-Lite_R existential axioms (A ⊑ ∃P and friends) can force an infinite
// chase, so Materialize runs the *restricted* chase bounded by an
// existential depth: labeled nulls are introduced only when the existential
// is not already witnessed, and nulls deeper than the bound are not
// expanded. For a query with at most k atoms, depth k suffices for
// certain-answer completeness (answers over the canonical model only need
// its first k levels), which is how AnswerCQ picks the bound.
//
// The cost profile matches the paper's findings: materialization is large
// and slow (the paper's saturation systems ran out of memory on DBpedia),
// while per-query time after materialization is small.
package saturate

import (
	"fmt"
	"time"

	"ogpa/internal/core"
	"ogpa/internal/cq"
	"ogpa/internal/daf"
	"ogpa/internal/dllite"
	"ogpa/internal/graph"
)

// NullPrefix marks chase-invented individuals; they never appear in
// answers.
const NullPrefix = "_:n"

// Stats reports materialization work.
type Stats struct {
	Facts     int // total facts after saturation (labels + edges)
	Nulls     int // invented individuals
	Rounds    int
	DepthUsed int
}

type edgeFact struct {
	role     string
	from, to string
}

type labelFact struct {
	ind, label string
}

// store holds the chase's facts. Each label and role also lists its
// holders in the order they were added, so an inclusion visits only its
// own holders, in an order fixed by the input: a chase names its nulls
// the same way on every run.
type store struct {
	labelSeen map[labelFact]bool
	edgeSeen  map[edgeFact]bool
	byLabel   map[string][]string   // label → individuals
	byRole    map[string][]edgeFact // role → edges
	out       map[string][]edgeFact
	in        map[string][]edgeFact
	depth     map[string]int // null depth; absent = 0 (named individual)
	nullCount int
	facts     int
}

func newStore() *store {
	return &store{
		labelSeen: map[labelFact]bool{},
		edgeSeen:  map[edgeFact]bool{},
		byLabel:   map[string][]string{},
		byRole:    map[string][]edgeFact{},
		out:       map[string][]edgeFact{},
		in:        map[string][]edgeFact{},
		depth:     map[string]int{},
	}
}

func (s *store) addLabel(ind, label string) bool {
	f := labelFact{ind, label}
	if s.labelSeen[f] {
		return false
	}
	s.labelSeen[f] = true
	s.byLabel[label] = append(s.byLabel[label], ind)
	s.facts++
	return true
}

func (s *store) addEdge(role, from, to string) bool {
	e := edgeFact{role, from, to}
	if s.edgeSeen[e] {
		return false
	}
	s.edgeSeen[e] = true
	s.byRole[role] = append(s.byRole[role], e)
	s.out[from] = append(s.out[from], e)
	s.in[to] = append(s.in[to], e)
	s.facts++
	return true
}

func (s *store) fresh(d int) string {
	s.nullCount++
	n := fmt.Sprintf("%s%d", NullPrefix, s.nullCount)
	s.depth[n] = d
	return n
}

// holders lists the individuals an inclusion's left-hand side c applies
// to, each once: the carriers of a concept name, or the subjects (objects,
// for an inverse role) of c's role.
func (s *store) holders(c dllite.Concept) []string {
	if !c.Exists {
		return s.byLabel[c.Name]
	}
	r := c.Role()
	seen := map[string]bool{}
	var out []string
	for _, e := range s.byRole[r.Name] {
		ind := e.from
		if r.Inv {
			ind = e.to
		}
		if !seen[ind] {
			seen[ind] = true
			out = append(out, ind)
		}
	}
	return out
}

// holdsExists reports whether individual x already has an R-witness.
func (s *store) holdsExists(x string, r dllite.Role) bool {
	if !r.Inv {
		for _, e := range s.out[x] {
			if e.role == r.Name {
				return true
			}
		}
		return false
	}
	for _, e := range s.in[x] {
		if e.role == r.Name {
			return true
		}
	}
	return false
}

// Limits bounds materialization.
type Limits struct {
	MaxFacts int
	Deadline time.Time
}

// ErrLimit reports that materialization exceeded its limits.
var ErrLimit = errLimit{}

type errLimit struct{}

func (errLimit) Error() string { return "saturate: materialization limit exceeded" }

// Materialize runs the bounded restricted chase and returns the completed
// graph (named individuals plus labeled nulls).
func Materialize(t *dllite.TBox, a *dllite.ABox, maxDepth int, lim Limits) (*graph.Graph, Stats, error) {
	s := newStore()
	for _, ca := range a.Concepts {
		s.addLabel(ca.Ind, ca.Concept)
	}
	for _, ra := range a.Roles {
		s.addEdge(ra.Role, ra.Sub, ra.Obj)
	}

	st := Stats{DepthUsed: maxDepth}
	for {
		st.Rounds++
		if !lim.Deadline.IsZero() && time.Now().After(lim.Deadline) {
			return nil, st, ErrLimit
		}
		changed := false

		// Concept/role hierarchy rules (I1–I3, I8, I9): iterate inclusions
		// against the current facts.
		for _, ci := range t.CIs {
			if ci.Sup.Exists {
				continue
			}
			for _, ind := range s.holders(ci.Sub) {
				if s.addLabel(ind, ci.Sup.Name) {
					changed = true
				}
			}
		}
		for _, ri := range t.RIs {
			// Ranging over the list as it stood: edges this inclusion
			// adds to the same role wait for the next round.
			for _, e := range s.byRole[ri.Sub.Name] {
				from, to := e.from, e.to
				if ri.Sub.Inv {
					from, to = to, from
				}
				if s.addEdge(ri.Sup.Name, from, to) {
					changed = true
				}
			}
		}

		// Existential rules (I4–I7, I10, I11): restricted chase with depth
		// bound.
		for _, ci := range t.CIs {
			if !ci.Sup.Exists {
				continue
			}
			sup := ci.Sup.Role()
			for _, x := range s.holders(ci.Sub) {
				if s.holdsExists(x, sup) {
					continue
				}
				if s.depth[x] >= maxDepth {
					continue // do not expand nulls past the bound
				}
				w := s.fresh(s.depth[x] + 1)
				if !sup.Inv {
					s.addEdge(sup.Name, x, w)
				} else {
					s.addEdge(sup.Name, w, x)
				}
				changed = true
				if lim.MaxFacts > 0 && s.facts > lim.MaxFacts {
					return nil, st, ErrLimit
				}
			}
		}

		if lim.MaxFacts > 0 && s.facts > lim.MaxFacts {
			return nil, st, ErrLimit
		}
		if !changed {
			break
		}
	}

	st.Facts = s.facts
	st.Nulls = s.nullCount

	b := graph.NewBuilder(nil)
	for l, inds := range s.byLabel {
		for _, ind := range inds {
			b.AddLabel(ind, l)
		}
	}
	for e := range s.edgeSeen {
		b.AddEdge(e.from, e.role, e.to)
	}
	return b.Freeze(), st, nil
}

// FilterNulls drops answers containing chase nulls in any distinguished
// position (certain answers range over named individuals only).
func FilterNulls(res *core.AnswerSet, g *graph.Graph) *core.AnswerSet {
	out := core.NewAnswerSet()
	for _, ans := range res.Answers() {
		ok := true
		for _, v := range ans {
			if v != core.Omitted && len(g.Name(v)) >= len(NullPrefix) && g.Name(v)[:len(NullPrefix)] == NullPrefix {
				ok = false
				break
			}
		}
		if ok {
			out.Add(ans)
		}
	}
	return out
}

// AnswerCQ materializes to the depth required by q and evaluates q on the
// completed graph, filtering null answers. The returned graph is the
// materialization the answer VIDs refer to.
func AnswerCQ(t *dllite.TBox, a *dllite.ABox, q *cq.Query, lim Limits, evalOpts daf.Options) (*core.AnswerSet, *graph.Graph, Stats, error) {
	g, st, err := Materialize(t, a, q.Size()+1, lim)
	if err != nil {
		return nil, nil, st, err
	}
	res, _, err := daf.EvalCQ(q, g, evalOpts)
	if err != nil {
		return nil, g, st, err
	}
	return FilterNulls(res, g), g, st, nil
}
