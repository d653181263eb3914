// Package datalog provides the datalog-rewriting baseline of the paper's
// evaluation (standing in for CLIPPER / Ontop / Drewer): a semi-naive
// datalog engine plus a rewriter that compiles a CQ + DL-Lite_R TBox into
//
//  1. a nonrecursive-in-spirit datalog program closing the concept/role
//     hierarchy (inclusions I1–I3, I8, I9 are plain datalog), and
//  2. a small residual UCQ over the IDB predicates produced by running
//     PerfectRef with only the *existential* inclusions (I4–I7, I10, I11),
//     which plain datalog cannot express.
//
// The rewriting is much smaller than a full UCQ (hierarchy reasoning moves
// into rules), matching the paper's observation that datalog rewritings are
// the smallest; evaluation materializes IDB relations, matching its
// observation that their evaluation is slower than OMatch.
package datalog

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"
)

// Term is a variable (Var == true) or constant.
type Term struct {
	Name string
	Var  bool
}

// V builds a variable term.
func V(name string) Term { return Term{Name: name, Var: true} }

// C builds a constant term.
func C(name string) Term { return Term{Name: name} }

// Atom is pred(args...).
type Atom struct {
	Pred string
	Args []Term
}

func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		if t.Var {
			parts[i] = "?" + t.Name
		} else {
			parts[i] = t.Name
		}
	}
	return a.Pred + "(" + strings.Join(parts, ", ") + ")"
}

// equal reports whether a and b are the same atom, term for term.
func (a Atom) equal(b Atom) bool { return a.Pred == b.Pred && slices.Equal(a.Args, b.Args) }

// Rule is Head :- Body. Every head variable must occur in the body
// (range restriction).
type Rule struct {
	Head Atom
	Body []Atom
}

func (r Rule) String() string {
	parts := make([]string, len(r.Body))
	for i, a := range r.Body {
		parts[i] = a.String()
	}
	return r.Head.String() + " :- " + strings.Join(parts, ", ")
}

// equal reports whether r and o are the same rule, term for term.
func (r Rule) equal(o Rule) bool {
	return r.Head.equal(o.Head) && slices.EqualFunc(r.Body, o.Body, Atom.equal)
}

// Validate checks range restriction and non-empty body.
func (r Rule) Validate() error {
	if len(r.Body) == 0 {
		return errors.New("datalog: empty rule body")
	}
	bodyVars := map[string]bool{}
	for _, a := range r.Body {
		for _, t := range a.Args {
			if t.Var {
				bodyVars[t.Name] = true
			}
		}
	}
	for _, t := range r.Head.Args {
		if t.Var && !bodyVars[t.Name] {
			return fmt.Errorf("datalog: head variable %s not bound in body of %s", t.Name, r)
		}
	}
	return nil
}

// Tuple is a fact's argument list. It is an alias, so a sorted answer
// ([]Tuple) is already the [][]string rows every pipeline returns.
type Tuple = []string

// tupleHash is the dedup key of answerSet (query-answer dedup): a 64-bit
// FNV-1a over the elements with a length prefix per element (so
// ("ab","c") and ("a","bc") differ). Relations use interned-ID keys
// instead; collisions here are resolved by answerSet's equality chains.
func tupleHash(t Tuple) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range t {
		n := uint64(len(v))
		for n > 0 {
			h = (h ^ (n & 0xff)) * prime64
			n >>= 8
		}
		h = (h ^ 0xff) * prime64 // length terminator
		for i := 0; i < len(v); i++ {
			h = (h ^ uint64(v[i])) * prime64
		}
	}
	return h
}

// interner assigns small dense IDs to constant strings, so tuple dedup
// keys are integers instead of allocated joined strings. IDs start at 1;
// a constant the map lacks has never been seen.
type interner map[string]uint32

// Relation stores the extension of one predicate. Dedup runs over
// interned-ID keys: for arity ≤ 2 (every DL-Lite predicate) the key is
// the exact packed ID pair, for wider tuples an FNV mix of the IDs.
// Same-key tuples (possible only for arity > 2) are chained through the
// chain array, so inserting a fact costs one map entry and zero slice
// allocations.
//
// Every tuple has a mark byte, zero when it is added, that the relation
// moves with it but never reads: a State keeps DRed's marks there.
//
// Positional hash indexes (argument value → tuple indexes) are lazy:
// position i's is built from tuples the first time a join probes it
// (position) and maintained by Add and Remove from then on. A relation
// no join probes — a base relation behind a copy rule — never builds
// one. Because a probe may build an index, joins over one Database must
// not run concurrently.
type Relation struct {
	arity  int
	in     interner // shared across the Database's relations
	tuples []Tuple
	keys   []uint64           // parallel to tuples: the interned dedup key
	chain  []int              // parallel to tuples: previous index with same key, or -1
	marks  []uint8            // parallel to tuples: the user's mark byte
	seen   map[uint64]int     // key → last tuple index with that key, +1 (0 = absent)
	index  []map[string][]int // per position: value → tuple indexes; nil until first probed
}

// NewRelation creates an empty stand-alone relation of the given arity.
// Relations inside a Database share the database's interner instead.
func NewRelation(arity int) *Relation { return newRelation(arity, interner{}) }

func newRelation(arity int, in interner) *Relation {
	return &Relation{arity: arity, in: in, seen: map[uint64]int{}, index: make([]map[string][]int, arity)}
}

// position returns the index of argument position i, building it from
// tuples on first use.
func (r *Relation) position(i int) map[string][]int {
	if r.index[i] == nil {
		m := map[string][]int{}
		for ti, t := range r.tuples {
			m[t[i]] = append(m[t[i]], ti)
		}
		r.index[i] = m
	}
	return r.index[i]
}

// key computes t's dedup key. With intern=false, unseen constants make
// the key unresolvable and ok=false (the tuple cannot be present).
func (r *Relation) key(t Tuple, intern bool) (uint64, bool) {
	const prime64 = 1099511628211
	var key uint64
	if len(t) > 2 {
		key = 14695981039346656037
	}
	for _, v := range t {
		id, ok := r.in[v]
		if !ok {
			if !intern {
				return 0, false
			}
			id = uint32(len(r.in) + 1)
			r.in[v] = id
		}
		if len(t) <= 2 {
			key = key<<32 | uint64(id)
			continue
		}
		for s := 0; s < 32; s += 8 {
			key = (key ^ uint64(id>>s&0xff)) * prime64
		}
	}
	return key, true
}

// find returns the index of t in tuples, or -1.
func (r *Relation) find(t Tuple) int {
	k, ok := r.key(t, false)
	if !ok {
		return -1
	}
	for i := r.seen[k] - 1; i >= 0; i = r.chain[i] {
		if r.arity <= 2 || slices.Equal(r.tuples[i], t) {
			return i
		}
	}
	return -1
}

// Contains reports membership.
func (r *Relation) Contains(t Tuple) bool { return len(t) == r.arity && r.find(t) >= 0 }

// Add inserts a tuple, reporting whether it was new.
func (r *Relation) Add(t Tuple) bool {
	_, added := r.add(t)
	return added
}

// add inserts t unless an equal tuple is present, returning the index t
// is stored at and whether it was new. A new tuple's mark is zero.
func (r *Relation) add(t Tuple) (int, bool) {
	if len(t) != r.arity {
		panic(fmt.Sprintf("datalog: arity mismatch: %v into arity-%d relation", t, r.arity))
	}
	k, _ := r.key(t, true)
	head := r.seen[k] - 1
	for i := head; i >= 0; i = r.chain[i] {
		if r.arity <= 2 || slices.Equal(r.tuples[i], t) {
			return i, false
		}
	}
	idx := len(r.tuples)
	r.seen[k] = idx + 1
	r.tuples = append(r.tuples, t)
	r.keys = append(r.keys, k)
	r.chain = append(r.chain, head)
	r.marks = append(r.marks, 0)
	for i, m := range r.index {
		if m != nil {
			m[t[i]] = append(m[t[i]], idx)
		}
	}
	return idx, true
}

// repoint makes the reference to index from in key k's chain (the head
// in seen, or a chain link) refer to index to instead; to < 0 drops from.
func (r *Relation) repoint(k uint64, from, to int) {
	if r.seen[k]-1 == from {
		if to < 0 {
			delete(r.seen, k)
		} else {
			r.seen[k] = to + 1
		}
		return
	}
	for i := r.seen[k] - 1; i >= 0; i = r.chain[i] {
		if r.chain[i] == from {
			r.chain[i] = to
			return
		}
	}
}

// Remove deletes a tuple, reporting whether it was present. The last
// tuple is swapped into the vacated slot with its key and mark, so
// removal is O(arity × index-bucket length) and the key and built
// positional indexes stay exact.
func (r *Relation) Remove(t Tuple) bool {
	if len(t) != r.arity {
		return false
	}
	idx := r.find(t)
	if idx < 0 {
		return false
	}
	r.repoint(r.keys[idx], idx, r.chain[idx])
	for i, m := range r.index {
		if m == nil {
			continue
		}
		l := m[t[i]]
		l[slices.Index(l, idx)] = l[len(l)-1]
		if l = l[:len(l)-1]; len(l) == 0 {
			delete(m, t[i])
		} else {
			m[t[i]] = l
		}
	}
	last := len(r.tuples) - 1
	if idx != last {
		moved := r.tuples[last]
		r.tuples[idx] = moved
		r.keys[idx] = r.keys[last]
		r.chain[idx] = r.chain[last]
		r.marks[idx] = r.marks[last]
		r.repoint(r.keys[idx], last, idx)
		for i, m := range r.index {
			if l := m[moved[i]]; l != nil { // a nil m has no lists
				l[slices.Index(l, last)] = idx
			}
		}
	}
	r.tuples = r.tuples[:last]
	r.keys = r.keys[:last]
	r.chain = r.chain[:last]
	r.marks = r.marks[:last]
	return true
}

// Len reports the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Tuples exposes the stored tuples (not to be mutated).
func (r *Relation) Tuples() []Tuple { return r.tuples }

// Database maps predicates to relations. A predicate is a name at one
// arity: a concept and a role with the same name are two predicates, as
// a vertex label and an edge label are in the graph. All relations
// share one constant interner, so a constant is interned once no matter
// how many predicates mention it.
type Database struct {
	rels map[predKey]*Relation
	in   interner
}

// predKey names one predicate: pred at arity.
type predKey struct {
	pred  string
	arity int
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{rels: map[predKey]*Relation{}, in: interner{}}
}

// Relation returns the relation of pred at the given arity, creating it
// empty.
func (db *Database) Relation(pred string, arity int) *Relation {
	k := predKey{pred, arity}
	if r, ok := db.rels[k]; ok {
		return r
	}
	r := newRelation(arity, db.in)
	db.rels[k] = r
	return r
}

// Lookup returns the relation of pred at the given arity, or nil.
func (db *Database) Lookup(pred string, arity int) *Relation { return db.rels[predKey{pred, arity}] }

// AddFact inserts pred(args...).
func (db *Database) AddFact(pred string, args ...string) bool {
	return db.Relation(pred, len(args)).Add(Tuple(args))
}

// Add inserts a tuple into pred's relation, reporting whether it was new.
func (db *Database) Add(pred string, t Tuple) bool {
	return db.Relation(pred, len(t)).Add(t)
}

// Remove deletes a tuple from pred's relation, reporting whether it was
// present.
func (db *Database) Remove(pred string, t Tuple) bool {
	r := db.Lookup(pred, len(t))
	return r != nil && r.Remove(t)
}

// Size reports the total number of facts.
func (db *Database) Size() int {
	n := 0
	for _, r := range db.rels {
		n += r.Len()
	}
	return n
}

// Limits bounds evaluation; zero values disable a limit.
type Limits struct {
	MaxFacts int
	Deadline time.Time
}

// ErrLimit reports that evaluation exceeded its limits.
var ErrLimit = errors.New("datalog: evaluation limit exceeded")

// Evaluate runs semi-naive fixpoint evaluation of the program over db,
// adding derived facts in place.
func Evaluate(rules []Rule, db *Database, lim Limits) error {
	if err := validate(rules); err != nil {
		return err
	}
	// Round 0: all EDB facts are "new". A delta list may mix arities; a
	// plan's seed skips tuples of another arity.
	delta := map[string][]Tuple{}
	for k, rel := range db.rels {
		delta[k.pred] = append(delta[k.pred], rel.tuples...)
	}
	return propagate(compileRules(rules), db, delta, lim)
}

// validate checks every rule.
func validate(rules []Rule) error {
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// propagate runs the semi-naive loop seeded with delta (facts assumed
// already present in db) until fixpoint: each round fires every rule
// plan on the delta facts of its seed predicate. It is the shared core
// of Evaluate (seeded with every EDB fact) and the incremental State
// (seeded with just an applied batch).
func propagate(plans []*plan, db *Database, delta map[string][]Tuple, lim Limits) error {
	for len(delta) > 0 {
		if !lim.Deadline.IsZero() && time.Now().After(lim.Deadline) {
			return ErrLimit
		}
		next := map[string][]Tuple{}
		derive := func(p *plan) error {
			h := p.headTuple()
			rel := db.Relation(p.pred, len(h))
			if rel.find(h) >= 0 {
				return nil
			}
			t := slices.Clone(h)
			rel.Add(t)
			next[p.pred] = append(next[p.pred], t)
			if lim.MaxFacts > 0 && db.Size() > lim.MaxFacts {
				return ErrLimit
			}
			return nil
		}
		for _, p := range plans {
			for _, t := range delta[p.seed.pred] {
				if _, err := p.run(db, t, derive); err != nil {
					return err
				}
			}
		}
		delta = next
	}
	return nil
}

// Query evaluates a conjunctive query (body atoms + head vars) against db,
// returning distinct head bindings sorted lexicographically, or nil when
// there are none.
func Query(head []string, body []Atom, db *Database) ([]Tuple, error) {
	var s answerSet
	if err := queryPlan(head, body).collect(db, &s); err != nil {
		return nil, err
	}
	return s.sorted(), nil
}

func varTerms(names []string) []Term {
	out := make([]Term, len(names))
	for i, n := range names {
		out[i] = V(n)
	}
	return out
}
