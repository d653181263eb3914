package core

import (
	"slices"
	"sort"
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

// Key encodes an answer for deduplication.
func (a Answer) Key() string {
	var b strings.Builder
	for _, v := range a {
		if v == Omitted {
			b.WriteString("⊥,")
			continue
		}
		b.WriteString(itoa(uint64(v)))
		b.WriteByte(',')
	}
	return b.String()
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// AnswerSet accumulates deduplicated answers.
type AnswerSet struct {
	seen map[string]bool
	list []Answer
}

// NewAnswerSet returns an empty answer set.
func NewAnswerSet() *AnswerSet {
	return &AnswerSet{seen: make(map[string]bool)}
}

// Add inserts a (copy of) answer a, reporting whether it was new.
func (s *AnswerSet) Add(a Answer) bool {
	k := a.Key()
	if s.seen[k] {
		return false
	}
	s.seen[k] = true
	s.list = append(s.list, append(Answer(nil), a...))
	return true
}

// Len reports the number of distinct answers.
func (s *AnswerSet) Len() int { return len(s.list) }

// Answers returns the deduplicated answers in insertion order.
func (s *AnswerSet) Answers() []Answer { return s.list }

// Names renders answers as sorted rows of vertex names ("⊥" for omitted),
// for tests and CLI output.
func (s *AnswerSet) Names(g *graph.Graph) []string {
	rows := make([]string, 0, len(s.list))
	for _, a := range s.list {
		parts := make([]string, len(a))
		for i, v := range a {
			if v == Omitted {
				parts[i] = "⊥"
			} else {
				parts[i] = g.Name(v)
			}
		}
		rows = append(rows, strings.Join(parts, ","))
	}
	sort.Strings(rows)
	return rows
}

// Names2D renders answers as sorted rows of vertex names ("⊥" for
// omitted), one slice per answer. The rows share one backing array.
func (s *AnswerSet) Names2D(g *graph.Graph) [][]string {
	n := 0
	for _, a := range s.list {
		n += len(a)
	}
	cells := make([]string, n)
	rows := make([][]string, 0, len(s.list))
	for _, a := range s.list {
		parts := cells[:len(a):len(a)]
		cells = cells[len(a):]
		for i, v := range a {
			if v == Omitted {
				parts[i] = "⊥"
			} else {
				parts[i] = g.Name(v)
			}
		}
		rows = append(rows, parts)
	}
	SortRows(rows)
	return rows
}

// SortRows puts answer rows in the canonical order of every pipeline: by
// the row's cells joined with ",". Without it, pipelines whose natural
// enumeration order is map-dependent (datalog, saturate) would return
// rows in a nondeterministic order. Each row's key is built once, all of
// them into one string, instead of twice per comparison. slices.SortFunc
// and sort.Slice are generated from one pdqsort template, so sorting on
// the keys makes the same comparisons and swaps as sort.Slice over the
// joining comparator did, and rows with equal keys ("a,b"+"c" and
// "a"+"b,c") land where they did: responses stay byte-identical.
func SortRows(rows [][]string) {
	size := 0
	for _, r := range rows {
		for _, c := range r {
			size += len(c) + 1
		}
	}
	var b strings.Builder
	b.Grow(size)
	ends := make([]int, len(rows))
	for i, r := range rows {
		for j, c := range r {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(c)
		}
		ends[i] = b.Len()
	}
	all := b.String()
	keyed := make([]keyedRow, len(rows))
	start := 0
	for i, end := range ends {
		keyed[i], start = keyedRow{all[start:end], rows[i]}, end
	}
	slices.SortFunc(keyed, func(x, y keyedRow) int { return strings.Compare(x.key, y.key) })
	for i := range keyed {
		rows[i] = keyed[i].row
	}
}

type keyedRow struct {
	key string
	row []string
}

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
