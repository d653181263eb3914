package core

import (
	"cmp"
	"iter"
	"math/bits"
	"slices"
	"strings"

	"ogpa/internal/graph"
)

// Omitted is the ⊥ value of a partial mapping: the pattern vertex has no
// match in the graph.
const Omitted = graph.NoVID

// Mapping is a (partial) mapping h from pattern vertices to graph vertices;
// entry Omitted encodes h(x) = ⊥.
type Mapping []graph.VID

// Eval evaluates condition c under mapping m in graph g, following the
// satisfaction rules of Section III: any atom referencing an omitted vertex
// is false; ∧ and ∨ are standard.
func Eval(c Cond, m Mapping, g *graph.Graph) bool {
	switch t := c.(type) {
	case nil:
		return true
	case True:
		return true
	case LabelIs:
		v := m[t.X]
		if v == Omitted {
			return false
		}
		l := g.Symbols.Lookup(t.Label)
		return l != 0 && g.HasLabel(v, l)
	case EdgeIs:
		x, y := m[t.X], m[t.Y]
		if x == Omitted || y == Omitted {
			return false
		}
		if t.Label == Wildcard {
			return g.HasAnyEdge(x, y)
		}
		l := g.Symbols.Lookup(t.Label)
		return l != 0 && g.HasEdge(x, l, y)
	case EdgeExists:
		x := m[t.X]
		if x == Omitted {
			return false
		}
		if t.Label == Wildcard {
			if t.Out {
				return g.OutDegree(x) > 0
			}
			return g.InDegree(x) > 0
		}
		l := g.Symbols.Lookup(t.Label)
		if l == 0 {
			return false
		}
		if t.Out {
			return g.HasOutLabel(x, l)
		}
		return g.HasInLabel(x, l)
	case AttrCmpConst:
		x := m[t.X]
		if x == Omitted {
			return false
		}
		a := g.Symbols.Lookup(t.Attr)
		if a == 0 {
			return false
		}
		val, ok := g.Attribute(x, a)
		if !ok {
			return false
		}
		cmp, comparable := val.Compare(t.C)
		return t.Op.Holds(cmp, comparable)
	case AttrCmpAttr:
		x, y := m[t.X], m[t.Y]
		if x == Omitted || y == Omitted {
			return false
		}
		ax, ay := g.Symbols.Lookup(t.AttrX), g.Symbols.Lookup(t.AttrY)
		if ax == 0 || ay == 0 {
			return false
		}
		vx, okx := g.Attribute(x, ax)
		vy, oky := g.Attribute(y, ay)
		if !okx || !oky {
			return false
		}
		cmp, comparable := vx.Compare(vy)
		return t.Op.Holds(cmp, comparable)
	case SameAs:
		x, y := m[t.X], m[t.Y]
		return x != Omitted && y != Omitted && x == y
	case IsOmitted:
		// The deliberate exception to "atoms referencing an omitted vertex
		// are false": this atom asserts the omission itself.
		return m[t.X] == Omitted
	case And:
		return Eval(t.L, m, g) && Eval(t.R, m, g)
	case Or:
		return Eval(t.L, m, g) || Eval(t.R, m, g)
	default:
		panic("core: unknown condition type")
	}
}

// labelMatches implements l ≍ l': exact match or pattern wildcard.
func labelMatches(patternLabel string, v graph.VID, g *graph.Graph) bool {
	if patternLabel == Wildcard {
		return true
	}
	l := g.Symbols.Lookup(patternLabel)
	return l != 0 && g.HasLabel(v, l)
}

// IsMatch checks whether the total assignment m (every entry a vertex or
// Omitted) is a match of p in g per the semantics of Section III.
func IsMatch(p *Pattern, m Mapping, g *graph.Graph) bool {
	if len(m) != len(p.Vertices) {
		return false
	}
	for i, pv := range p.Vertices {
		if m[i] != Omitted {
			if !labelMatches(pv.Label, m[i], g) {
				return false
			}
			if !Eval(pv.Match, m, g) {
				return false
			}
		} else {
			if pv.Omit == nil || !Eval(pv.Omit, m, g) {
				return false
			}
		}
	}
	for _, e := range p.Edges {
		if m[e.From] == Omitted || m[e.To] == Omitted {
			// The edge is excused: its omitted endpoint was already
			// justified by the vertex loop above.
			continue
		}
		if !edgeSatisfied(e, m, g) {
			return false
		}
	}
	return true
}

// edgeSatisfied checks one structural edge: with a condition the condition
// governs (supporting inverse-role alternatives); without, a forward data
// edge with a compatible label must exist.
func edgeSatisfied(e Edge, m Mapping, g *graph.Graph) bool {
	if e.Match != nil {
		return Eval(e.Match, m, g)
	}
	x, y := m[e.From], m[e.To]
	if e.Label == Wildcard {
		return g.HasAnyEdge(x, y)
	}
	l := g.Symbols.Lookup(e.Label)
	return l != 0 && g.HasEdge(x, l, y)
}

// Answer is a projection of a match to the distinguished vertices, aligned
// with Pattern.Distinguished(); Omitted entries are possible when a
// distinguished vertex was omitted.
type Answer []graph.VID

// AnswerSet accumulates deduplicated answers of one arity, fixed by the
// first Add. The tuples sit packed in one flat store in insertion order,
// and an open-addressing index of int32 slots over their VIDs
// deduplicates them, so Add allocates only when the store or the index
// grows.
type AnswerSet struct {
	width int         // arity of every answer
	n     int         // number of distinct answers
	store []graph.VID // answer i is store[i*width : (i+1)*width]
	// index holds answer number + 1 per slot (0: empty), probed linearly
	// from the slot a tuple's hash picks; len(index) is a power of two
	// at least twice n.
	index []int32
	shift uint // 64 - log2(len(index)): the hash's top bits pick a slot
}

// NewAnswerSet returns an empty answer set.
func NewAnswerSet() *AnswerSet { return &AnswerSet{} }

// hashMul is 2^64 divided by the golden ratio: multiplying by it spreads
// each VID into the top bits, which pick the slot (Fibonacci hashing).
const hashMul = 0x9E3779B97F4A7C15

func hashAnswer(a Answer) uint64 {
	var h uint64
	for _, v := range a {
		h = (h ^ uint64(v)) * hashMul
	}
	return h
}

// Add inserts a copy of answer a, reporting whether it was new. Every
// answer of one set must have the same arity.
func (s *AnswerSet) Add(a Answer) bool {
	if s.index == nil {
		s.width = len(a)
		s.index, s.shift = make([]int32, 16), 64-4
	} else if len(a) != s.width {
		panic("core: answer arity differs from the set's")
	}
	mask := len(s.index) - 1
	pos := int(hashAnswer(a) >> s.shift)
	for ; s.index[pos] != 0; pos = (pos + 1) & mask {
		if slices.Equal(s.At(int(s.index[pos])-1), a) {
			return false
		}
	}
	s.store = append(s.store, a...)
	s.n++
	s.index[pos] = int32(s.n)
	if 2*s.n > len(s.index) {
		s.grow()
	}
	return true
}

// grow doubles the index and re-slots every answer.
func (s *AnswerSet) grow() {
	s.index, s.shift = make([]int32, 2*len(s.index)), s.shift-1
	mask := len(s.index) - 1
	for i := 0; i < s.n; i++ {
		pos := int(hashAnswer(s.At(i)) >> s.shift)
		for s.index[pos] != 0 {
			pos = (pos + 1) & mask
		}
		s.index[pos] = int32(i + 1)
	}
}

// Len reports the number of distinct answers.
func (s *AnswerSet) Len() int { return s.n }

// At returns the i-th answer in insertion order: a read-only view of the
// store.
func (s *AnswerSet) At(i int) Answer {
	return s.store[i*s.width : (i+1)*s.width : (i+1)*s.width]
}

// Answers returns the deduplicated answers in insertion order, as
// read-only views of the store.
func (s *AnswerSet) Answers() []Answer {
	out := make([]Answer, s.n)
	for i := range out {
		out[i] = s.At(i)
	}
	return out
}

// omittedName renders an omitted distinguished vertex.
const omittedName = "⊥"

// cellName renders one answer cell.
func cellName(v graph.VID, g *graph.Graph) string {
	if v == Omitted {
		return omittedName
	}
	return g.Name(v)
}

// Names renders answers as rows of vertex names ("⊥" for omitted) joined
// with ",", in SortRows order, for tests and CLI output.
func (s *AnswerSet) Names(g *graph.Graph) []string {
	rows := make([]string, 0, s.n)
	for row := range s.Rows(g) {
		rows = append(rows, strings.Join(row, ","))
	}
	return rows
}

// Names2D renders answers as rows of vertex names ("⊥" for omitted), one
// slice per answer, in SortRows order. The rows share one backing array.
func (s *AnswerSet) Names2D(g *graph.Graph) [][]string {
	perm, w := s.rankOrder(g), s.width
	rows := make([][]string, len(perm))
	cells := make([]string, 0, len(s.store))
	for i, p := range perm {
		for _, v := range s.At(int(p)) {
			cells = append(cells, cellName(v, g))
		}
		rows[i] = cells[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}

// Rows yields the answers as rows of vertex names ("⊥" for omitted) in
// SortRows order, resolving each name only when its row is yielded. A
// yielded row is valid until the next one.
func (s *AnswerSet) Rows(g *graph.Graph) iter.Seq[[]string] {
	return func(yield func([]string) bool) {
		row := make([]string, s.width)
		for _, p := range s.rankOrder(g) {
			for j, v := range s.At(int(p)) {
				row[j] = cellName(v, g)
			}
			if !yield(row) {
				return
			}
		}
	}
}

// rankOrder returns the permutation that lists the answers in SortRows
// order of their rendered rows, comparing the names' ranks in
// g.Symbols.Order() instead of the names: ranks compare like names, so
// comparing rows rank by rank is comparing them cell by cell. Equal ranks
// are equal names, except for even ranks (names outside the order), which
// the names themselves break.
func (s *AnswerSet) rankOrder(g *graph.Graph) []int32 {
	ord := g.Symbols.Order()
	omitted := ord.RankOf(omittedName)
	ranks := make([]uint32, len(s.store))
	var maxRank uint32
	allOdd := true // every rank is a name's own: equal ranks are equal names
	for i, v := range s.store {
		r := omitted
		if v != Omitted {
			r = ord.Rank(g.NameID(v))
		}
		ranks[i], maxRank, allOdd = r, max(maxRank, r), allOdd && r&1 == 1
	}
	perm := make([]int32, s.n)
	w, k, m := s.width, bits.Len32(maxRank), bits.Len(uint(s.n))
	if allOdd && w*k+m <= 64 {
		// A row's ranks fit in one word above its number: sorting the
		// words sorts the rows by rank. Rows with equal ranks render
		// identically, so their order among themselves does not matter.
		keys := make([]uint64, s.n)
		for i := range keys {
			var key uint64
			for _, r := range ranks[i*w : (i+1)*w] {
				key = key<<k | uint64(r)
			}
			keys[i] = key<<m | uint64(i)
		}
		slices.Sort(keys)
		for i, key := range keys {
			perm[i] = int32(key & (1<<m - 1))
		}
		return perm
	}
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(x, y int32) int {
		a, b := int(x)*w, int(y)*w
		for j := 0; j < w; j++ {
			ra, rb := ranks[a+j], ranks[b+j]
			if ra != rb {
				return cmp.Compare(ra, rb)
			}
			if ra&1 == 0 {
				if c := strings.Compare(cellName(s.store[a+j], g), cellName(s.store[b+j], g)); c != 0 {
					return c
				}
			}
		}
		return 0
	})
	return perm
}

// SortRows puts answer rows in the canonical order of every pipeline: row
// by row, cell by cell, each cell by its bytes (datalog's tuple order).
// Without it, pipelines whose natural enumeration order is map-dependent
// (saturate) would return rows in a nondeterministic order.
func SortRows(rows [][]string) { slices.SortFunc(rows, slices.Compare) }

// Project extracts the answer tuple of mapping m for pattern p.
func Project(p *Pattern, m Mapping) Answer {
	dist := p.Distinguished()
	out := make(Answer, len(dist))
	for i, d := range dist {
		out[i] = m[d]
	}
	return out
}

// EnumerateNaive computes Q(G) by brute force: it tries every assignment of
// pattern vertices to graph vertices (plus ⊥ for omittable vertices) and
// keeps assignments satisfying IsMatch. Exponential; intended as the
// reference oracle in tests on small graphs.
func EnumerateNaive(p *Pattern, g *graph.Graph) *AnswerSet {
	out := NewAnswerSet()
	n := len(p.Vertices)
	m := make(Mapping, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if IsMatch(p, m, g) {
				out.Add(Project(p, m))
			}
			return
		}
		for v := 0; v < g.NumVertices(); v++ {
			m[i] = graph.VID(v)
			rec(i + 1)
		}
		if p.Vertices[i].Omit != nil {
			m[i] = Omitted
			rec(i + 1)
		}
	}
	rec(0)
	return out
}
