package graph

import (
	"cmp"
	"maps"
	"slices"

	"ogpa/internal/symbols"
)

// Overlay derives a new frozen Graph from a frozen start graph by writing
// through: it applies ABox-level mutations — new vertices, label and edge
// insertions and deletions, attribute updates — to a copy-on-write copy
// of the start graph, and Freeze publishes that copy. At the first change
// the copy takes its own header arrays (labels, out, in: O(|V|) pointer
// moves, not O(|E|) data) and label and edge-frequency maps; the names
// array and name index are copied only when a vertex is added, and the
// attrs array only when an attribute changes. The first time a vertex's
// row (labels, out, in or attrs) or a label's vertex bucket changes, the
// derivation clones it; later changes edit the clone in place with a
// sorted insert or delete. Reads inside the derivation therefore see the
// current state, so adding and removing need no cancellation bookkeeping,
// and the cost of a derivation is proportional to the rows it touches.
// The result is a plain *Graph the engine's monomorphic inner loops
// consume with zero indirection.
//
// Nothing reachable from the start graph is ever written, including the
// spare capacity of its rows and header arrays, so any number of
// derivations may run from one start graph at the same time.
//
// VIDs are stable: start-graph vertices keep their VID, new vertices are
// appended at VIDs >= the start graph's NumVertices. Vertices are never
// removed — deleting every triple that mentions a vertex merely leaves it
// isolated — so VIDs remain valid across any chain of derivations and
// compactions.
//
// Overlay implements rdf.Mutator: it takes names, as triples carry them.
// Insertions intern names into the start graph's symbol table, which must
// be thawed (symbols.Table.Thaw) or still unfrozen; deletions only look
// names up, so deleting a triple that mentions an unknown name is a no-op
// and does not grow the table. An Overlay is a single-goroutine builder,
// like Builder; the Graph it freezes is immutable and safe to share.
type Overlay struct {
	from *Graph
	g    *Graph // the graph under construction; nil until the first change

	rows      map[VID]rowSet      // rows of g this derivation has cloned
	buckets   map[symbols.ID]bool // byLabel buckets of g it has cloned
	ownsNames bool                // g.names and g.extraByName are its own
	ownsAttrs bool                // g.attrs is its own
}

// rowSet flags a vertex's rows: labels, out, in and attrs.
type rowSet uint8

const (
	labelsRow rowSet = 1 << iota
	outRow
	inRow
	attrsRow
)

// headerSlack is the room for new vertices the copied header arrays
// leave, so that a batch adding a few vertices does not copy them twice.
const headerSlack = 64

// NewOverlay returns an empty derivation from the frozen graph from.
func NewOverlay(from *Graph) *Overlay { return &Overlay{from: from} }

// cur is the graph as the derivation has changed it so far.
func (o *Overlay) cur() *Graph {
	if o.g != nil {
		return o.g
	}
	return o.from
}

// begin takes the copy-on-write copy of the start graph at the first
// change and returns it.
func (o *Overlay) begin() *Graph {
	if o.g == nil {
		g := *o.from
		g.labels = withSlack(g.labels)
		g.out = withSlack(g.out)
		g.in = withSlack(g.in)
		g.byLabel = maps.Clone(g.byLabel)
		g.edgeFreq = maps.Clone(g.edgeFreq)
		o.g = &g
		o.rows = make(map[VID]rowSet)
		o.buckets = make(map[symbols.ID]bool)
	}
	return o.g
}

func withSlack[T any](s []T) []T { return append(make([]T, 0, len(s)+headerSlack), s...) }

// row returns v's row of kind k in rows for writing: the derivation's own
// clone, taken the first time it writes that row, with room for one more
// element.
func row[T any](o *Overlay, v VID, k rowSet, rows [][]T) []T {
	r := rows[v]
	if o.rows[v]&k == 0 {
		o.rows[v] |= k
		r = append(make([]T, 0, len(r)+1), r...)
	}
	return r
}

// vertex resolves name to a VID, interning it and appending a vertex on
// first sight.
func (o *Overlay) vertex(name string) VID {
	id := o.from.Symbols.Intern(name)
	if v, ok := o.cur().vertexBySym(id); ok {
		return v
	}
	g := o.begin()
	if !o.ownsNames {
		o.ownsNames = true
		g.names = withSlack(g.names)
		extra := make(map[symbols.ID]VID, len(g.extraByName)+1)
		maps.Copy(extra, g.extraByName)
		g.extraByName = extra
	}
	v := VID(len(g.names))
	g.names = append(g.names, id)
	g.extraByName[id] = v
	g.labels = append(g.labels, nil)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return v
}

// lookup resolves name without creating anything; NoVID when absent.
func (o *Overlay) lookup(name string) VID {
	if v, ok := o.cur().vertexBySym(o.from.Symbols.Lookup(name)); ok {
		return v
	}
	return NoVID
}

// AddLabel attaches label to vertex (no-op if already present).
func (o *Overlay) AddLabel(vertex, label string) {
	v := o.vertex(vertex)
	l := o.from.Symbols.Intern(label)
	i, ok := slices.BinarySearch(o.cur().labels[v], l)
	if ok {
		return
	}
	g := o.begin()
	g.labels[v] = slices.Insert(row(o, v, labelsRow, g.labels), i, l)
	b := o.bucket(l)
	j, _ := slices.BinarySearch(b, v)
	g.byLabel[l] = slices.Insert(b, j, v)
}

// RemoveLabel detaches label from vertex (no-op if absent).
func (o *Overlay) RemoveLabel(vertex, label string) {
	v, l := o.lookup(vertex), o.from.Symbols.Lookup(label)
	if v == NoVID {
		return
	}
	i, ok := slices.BinarySearch(o.cur().labels[v], l)
	if !ok {
		return
	}
	g := o.begin()
	g.labels[v] = slices.Delete(row(o, v, labelsRow, g.labels), i, i+1)
	b := o.bucket(l)
	j, _ := slices.BinarySearch(b, v)
	if b = slices.Delete(b, j, j+1); len(b) == 0 {
		delete(g.byLabel, l)
	} else {
		g.byLabel[l] = b
	}
}

// bucket returns l's vertex bucket for writing, cloned the first time.
func (o *Overlay) bucket(l symbols.ID) []VID {
	b := o.g.byLabel[l]
	if !o.buckets[l] {
		o.buckets[l] = true
		b = append(make([]VID, 0, len(b)+1), b...)
	}
	return b
}

func cmpHalf(a, b Half) int {
	if c := cmp.Compare(a.Label, b.Label); c != 0 {
		return c
	}
	return cmp.Compare(a.To, b.To)
}

// AddEdge inserts the edge (from, label, to) (no-op if already present).
func (o *Overlay) AddEdge(from, label, to string) {
	l := o.from.Symbols.Intern(label)
	f, t := o.vertex(from), o.vertex(to)
	i, ok := slices.BinarySearchFunc(o.cur().out[f], Half{l, t}, cmpHalf)
	if ok {
		return
	}
	g := o.begin()
	g.out[f] = slices.Insert(row(o, f, outRow, g.out), i, Half{l, t})
	j, _ := slices.BinarySearchFunc(g.in[t], Half{l, f}, cmpHalf)
	g.in[t] = slices.Insert(row(o, t, inRow, g.in), j, Half{l, f})
	g.numEdges++
	g.edgeFreq[l]++
}

// RemoveEdge deletes the edge (from, label, to) (no-op if absent).
func (o *Overlay) RemoveEdge(from, label, to string) {
	f, t, l := o.lookup(from), o.lookup(to), o.from.Symbols.Lookup(label)
	if f == NoVID || t == NoVID {
		return
	}
	i, ok := slices.BinarySearchFunc(o.cur().out[f], Half{l, t}, cmpHalf)
	if !ok {
		return
	}
	g := o.begin()
	g.out[f] = slices.Delete(row(o, f, outRow, g.out), i, i+1)
	j, _ := slices.BinarySearchFunc(g.in[t], Half{l, f}, cmpHalf)
	g.in[t] = slices.Delete(row(o, t, inRow, g.in), j, j+1)
	g.numEdges--
	if g.edgeFreq[l]--; g.edgeFreq[l] == 0 {
		delete(g.edgeFreq, l)
	}
}

// SetAttr sets attribute name=value on vertex (last write wins).
func (o *Overlay) SetAttr(vertex, name string, value Value) {
	v := o.vertex(vertex)
	a := o.from.Symbols.Intern(name)
	as := o.cur().Attributes(v)
	i, ok := slices.BinarySearchFunc(as, a, cmpAttrName)
	if ok && as[i].Value == value {
		return
	}
	r := o.attrRow(v)
	if ok {
		r[i].Value = value
	} else {
		r = slices.Insert(r, i, Attr{Name: a, Value: value})
	}
	o.g.attrs[v] = r
}

// RemoveAttr deletes attribute name from vertex only if its current value
// equals value — triple deletion removes the asserted triple, not whatever
// value happens to be stored. No-op otherwise.
func (o *Overlay) RemoveAttr(vertex, name string, value Value) {
	v := o.lookup(vertex)
	if v == NoVID {
		return
	}
	as := o.cur().Attributes(v)
	i, ok := slices.BinarySearchFunc(as, o.from.Symbols.Lookup(name), cmpAttrName)
	if !ok || as[i].Value != value {
		return
	}
	r := o.attrRow(v)
	o.g.attrs[v] = slices.Delete(r, i, i+1)
}

func cmpAttrName(a Attr, name symbols.ID) int { return cmp.Compare(a.Name, name) }

// attrRow returns v's attribute row for writing. The attrs array is
// copied at the first attribute change (until then the derivation shares
// the start graph's, which may end before vertices added since) and
// extended to cover v.
func (o *Overlay) attrRow(v VID) []Attr {
	g := o.begin()
	if !o.ownsAttrs {
		o.ownsAttrs = true
		g.attrs = append(make([][]Attr, 0, len(g.names)), g.attrs...)
	}
	if int(v) >= len(g.attrs) {
		g.attrs = append(g.attrs, make([][]Attr, int(v)+1-len(g.attrs))...)
	}
	return row(o, v, attrsRow, g.attrs)
}

// Freeze returns the derived graph: the start graph itself when nothing
// changed. The overlay must not be used afterwards.
func (o *Overlay) Freeze() *Graph {
	g := o.cur()
	*o = Overlay{}
	return g
}

// vertexBySym resolves an interned name ID to a VID, consulting the
// overlay-derived extra index after the shared base index.
func (g *Graph) vertexBySym(id symbols.ID) (VID, bool) {
	if v, ok := g.byName[id]; ok {
		return v, true
	}
	if v, ok := g.extraByName[id]; ok {
		return v, true
	}
	return 0, false
}

// Compacted deep-copies g into canonical frozen form: flat arena-backed
// adjacency (CSR locality), a single byName index (folding any
// overlay-derived extra index), and tight label buckets. The result shares
// only the symbol table with g. Compaction in internal/delta uses this to
// fold an overlay chain back into a plain base.
func (g *Graph) Compacted() *Graph {
	n := len(g.names)
	ng := &Graph{
		Symbols: g.Symbols,
		names:   append([]symbols.ID(nil), g.names...),
		labels:  flat(g.labels, n),
		out:     flat(g.out, n),
		in:      flat(g.in, n),
		attrs:   flat(g.attrs, n),
	}
	ng.index(len(g.byLabel), len(g.edgeFreq))
	return ng
}

// flat copies rows into one arena, n rows long (rows may be shorter: a
// derived graph's attrs can end early), each nonempty row a full slice of
// the arena.
func flat[T any](rows [][]T, n int) [][]T {
	total := 0
	for _, r := range rows {
		total += len(r)
	}
	arena := make([]T, 0, total)
	out := make([][]T, n)
	for v, r := range rows {
		if len(r) > 0 {
			start := len(arena)
			arena = append(arena, r...)
			out[v] = arena[start:len(arena):len(arena)]
		}
	}
	return out
}
