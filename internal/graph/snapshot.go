package graph

import (
	"fmt"

	"ogpa/internal/symbols"
)

// Arrays is the flattened, serializable content of a frozen Graph: the
// per-vertex CSR storage with every derived index (byName, byLabel, the
// frequency tables) stripped. The snapshot layer (internal/snap) encodes
// exactly this; FromArrays rebuilds the indexes on load, which is cheap
// (one pass over the arrays) compared to re-parsing and re-interning a
// triple dump.
type Arrays struct {
	Names    []symbols.ID
	Labels   [][]symbols.ID
	Out      [][]Half
	In       [][]Half
	Attrs    [][]Attr
	NumEdges int
}

// Arrays exposes the frozen storage of g. The returned slices alias g and
// must be treated as read-only. g must be canonical (built by a Builder,
// FromArrays or Compacted): a graph derived by an Overlay may share a
// shorter attrs array with its start graph, which FromArrays would reject.
func (g *Graph) Arrays() Arrays {
	return Arrays{
		Names:    g.names,
		Labels:   g.labels,
		Out:      g.out,
		In:       g.in,
		Attrs:    g.attrs,
		NumEdges: g.numEdges,
	}
}

// FromArrays reassembles a canonical frozen Graph from snapshot arrays and
// the symbol table they reference. The arrays must already be canonical —
// labels and adjacency sorted and deduplicated, attrs sorted by name —
// which holds for anything produced by Arrays() on a frozen graph; the
// derived indexes (byName, byLabel, edgeFreq) are rebuilt once the arrays
// pass every check.
// Basic shape violations (length mismatches, out-of-range IDs or VIDs)
// return an error so a corrupted snapshot fails loudly instead of
// producing a graph that panics mid-query.
func FromArrays(tbl *symbols.Table, a Arrays) (*Graph, error) {
	n := len(a.Names)
	if len(a.Labels) != n || len(a.Out) != n || len(a.In) != n || len(a.Attrs) != n {
		return nil, fmt.Errorf("graph: snapshot arrays disagree on |V|: names=%d labels=%d out=%d in=%d attrs=%d",
			n, len(a.Labels), len(a.Out), len(a.In), len(a.Attrs))
	}
	maxID := symbols.ID(tbl.Len())
	checkID := func(id symbols.ID, what string) error {
		if id == symbols.None || id > maxID {
			return fmt.Errorf("graph: snapshot %s ID %d out of range (table has %d entries)", what, id, maxID)
		}
		return nil
	}
	edges := 0
	for v := 0; v < n; v++ {
		if err := checkID(a.Names[v], "vertex name"); err != nil {
			return nil, err
		}
		for _, l := range a.Labels[v] {
			if err := checkID(l, "label"); err != nil {
				return nil, err
			}
		}
		for _, h := range a.Out[v] {
			if err := checkID(h.Label, "edge label"); err != nil {
				return nil, err
			}
			if int(h.To) >= n {
				return nil, fmt.Errorf("graph: snapshot edge target %d out of range (|V|=%d)", h.To, n)
			}
		}
		edges += len(a.Out[v])
		for _, h := range a.In[v] {
			if err := checkID(h.Label, "edge label"); err != nil {
				return nil, err
			}
			if int(h.To) >= n {
				return nil, fmt.Errorf("graph: snapshot edge source %d out of range (|V|=%d)", h.To, n)
			}
		}
		for _, at := range a.Attrs[v] {
			if err := checkID(at.Name, "attribute name"); err != nil {
				return nil, err
			}
		}
	}
	if edges != a.NumEdges {
		return nil, fmt.Errorf("graph: snapshot edge count %d disagrees with adjacency (%d out-halves)", a.NumEdges, edges)
	}
	g := &Graph{
		Symbols: tbl,
		names:   a.Names,
		labels:  a.Labels,
		out:     a.Out,
		in:      a.In,
		attrs:   a.Attrs,
	}
	g.index(0, 0)
	return g, nil
}
