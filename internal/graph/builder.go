package graph

import (
	"cmp"
	"slices"

	"ogpa/internal/symbols"
)

// Builder accumulates vertices, labels, edges and attributes and produces a
// frozen Graph. Duplicate labels and duplicate edges are tolerated and
// deduplicated at freeze time, which lets loaders stream assertions without
// bookkeeping.
type Builder struct {
	symbols *symbols.Table

	names  []symbols.ID
	byName map[symbols.ID]VID

	labels [][]symbols.ID
	out    [][]Half
	in     [][]Half
	attrs  [][]Attr
}

// NewBuilder returns an empty Builder using the given symbol table
// (a fresh one when tbl is nil).
func NewBuilder(tbl *symbols.Table) *Builder {
	if tbl == nil {
		tbl = symbols.NewTable()
	}
	return &Builder{
		symbols: tbl,
		byName:  make(map[symbols.ID]VID, 1024),
	}
}

// Symbols exposes the builder's symbol table so loaders can intern labels.
func (b *Builder) Symbols() *symbols.Table { return b.symbols }

// Vertex returns the VID for the named vertex, creating it on first sight.
// Names are interned into the shared symbol table, keeping the index and
// the per-vertex name storage on integer IDs.
func (b *Builder) Vertex(name string) VID {
	id := b.symbols.Intern(name)
	if v, ok := b.byName[id]; ok {
		return v
	}
	v := VID(len(b.names))
	b.byName[id] = v
	b.names = append(b.names, id)
	b.labels = append(b.labels, nil)
	b.out = append(b.out, nil)
	b.in = append(b.in, nil)
	b.attrs = append(b.attrs, nil)
	return v
}

// NumVertices reports how many vertices have been created so far.
func (b *Builder) NumVertices() int { return len(b.names) }

// AddLabel attaches label (interning the string) to the named vertex.
func (b *Builder) AddLabel(vertex, label string) {
	b.AddLabelID(b.Vertex(vertex), b.symbols.Intern(label))
}

// AddLabelID attaches an interned label to v.
func (b *Builder) AddLabelID(v VID, l symbols.ID) {
	b.labels[v] = append(b.labels[v], l)
}

// AddEdge adds the edge (from, label, to), creating endpoints as needed.
func (b *Builder) AddEdge(from, label, to string) {
	b.AddEdgeID(b.Vertex(from), b.symbols.Intern(label), b.Vertex(to))
}

// AddEdgeID adds the edge (from, l, to) over existing VIDs.
func (b *Builder) AddEdgeID(from VID, l symbols.ID, to VID) {
	b.out[from] = append(b.out[from], Half{Label: l, To: to})
	b.in[to] = append(b.in[to], Half{Label: l, To: from})
}

// SetAttr sets attribute name=value on the named vertex.
func (b *Builder) SetAttr(vertex, name string, value Value) {
	v := b.Vertex(vertex)
	b.attrs[v] = append(b.attrs[v], Attr{Name: b.symbols.Intern(name), Value: value})
}

// Freeze sorts and deduplicates every row, then builds the indexes.
// The Builder must not be used after Freeze.
func (b *Builder) Freeze() *Graph {
	for v := range b.names {
		slices.Sort(b.labels[v])
		b.labels[v] = slices.Compact(b.labels[v])
		slices.SortFunc(b.out[v], cmpHalf)
		b.out[v] = slices.Compact(b.out[v])
		slices.SortFunc(b.in[v], cmpHalf)
		b.in[v] = slices.Compact(b.in[v])
		if as := b.attrs[v]; len(as) > 1 {
			// Last write wins for duplicate attribute names: the sort is
			// stable, so a name's writes stay in order and the last is kept.
			slices.SortStableFunc(as, func(a, b Attr) int { return cmp.Compare(a.Name, b.Name) })
			w := 0
			for i := range as {
				if i+1 < len(as) && as[i+1].Name == as[i].Name {
					continue
				}
				as[w] = as[i]
				w++
			}
			b.attrs[v] = as[:w]
		}
	}
	g := &Graph{
		Symbols: b.symbols,
		names:   b.names,
		byName:  b.byName,
		labels:  b.labels,
		out:     b.out,
		in:      b.in,
		attrs:   b.attrs,
	}
	g.index(0, 0)
	return g
}
