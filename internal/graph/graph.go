// Package graph implements the directed, vertex-labeled, attributed graph
// model of the paper (Section III): G = (V, E, L, F_A). Vertices carry one
// or more labels (RDF resources frequently have several rdf:type assertions;
// the paper's algorithms extend to label sets, and so does this package),
// edges carry exactly one label, and vertices carry an attribute tuple.
//
// Graphs are built through a Builder and then frozen. A frozen Graph has
// CSR-style adjacency sorted by (label, neighbor) so that per-label neighbor
// ranges and edge-existence probes are binary searches, plus a label → vertex
// index used to seed candidate sets in the matchers.
package graph

import (
	"fmt"
	"slices"

	"ogpa/internal/bitset"
	"ogpa/internal/symbols"
)

// VID identifies a vertex of a frozen Graph.
type VID uint32

// NoVID is returned by lookups that find no vertex.
const NoVID = ^VID(0)

// Half is one directed half-edge: the label and the far endpoint.
type Half struct {
	Label symbols.ID
	To    VID
}

// ValueKind discriminates attribute values.
type ValueKind uint8

// Attribute value kinds.
const (
	KindString ValueKind = iota
	KindInt
	KindFloat
)

// Value is an attribute value: a string, an int64 or a float64.
type Value struct {
	Kind ValueKind
	Str  string
	Num  float64
	Int  int64
}

// String builds a string Value.
func String(s string) Value { return Value{Kind: KindString, Str: s} }

// Int builds an integer Value.
func Int(i int64) Value { return Value{Kind: KindInt, Int: i} }

// Float builds a floating-point Value.
func Float(f float64) Value { return Value{Kind: KindFloat, Num: f} }

// AsFloat reports the numeric value and whether the Value is numeric.
func (v Value) AsFloat() (float64, bool) {
	switch v.Kind {
	case KindInt:
		return float64(v.Int), true
	case KindFloat:
		return v.Num, true
	default:
		return 0, false
	}
}

// Compare orders two values: -1, 0, +1, with ok=false when the values are
// incomparable (string vs number). Ints and floats compare numerically.
func (v Value) Compare(w Value) (int, bool) {
	if v.Kind == KindString || w.Kind == KindString {
		if v.Kind != KindString || w.Kind != KindString {
			return 0, false
		}
		switch {
		case v.Str < w.Str:
			return -1, true
		case v.Str > w.Str:
			return 1, true
		default:
			return 0, true
		}
	}
	a, _ := v.AsFloat()
	b, _ := w.AsFloat()
	switch {
	case a < b:
		return -1, true
	case a > b:
		return 1, true
	default:
		return 0, true
	}
}

func (v Value) String2() string { // debug helper; String() would collide with constructor
	switch v.Kind {
	case KindString:
		return fmt.Sprintf("%q", v.Str)
	case KindInt:
		return fmt.Sprintf("%d", v.Int)
	default:
		return fmt.Sprintf("%g", v.Num)
	}
}

// Attr is one attribute (name = value) of a vertex.
type Attr struct {
	Name  symbols.ID
	Value Value
}

// Graph is a frozen directed labeled graph. All slices are indexed by VID.
// Vertex names are interned in Symbols alongside labels and attribute
// names, so name lookups and the byName index stay on integer IDs.
type Graph struct {
	Symbols *symbols.Table

	names  []symbols.ID // external vertex names (IRIs / constants), interned
	byName map[symbols.ID]VID
	// extraByName indexes vertices appended by Overlay derivations; the
	// byName map shared with the canonical graph they started from cannot
	// be grown (readers hold it lock-free), so derived graphs carry their
	// additions here. Nil on canonical (Builder- or Compacted-built) graphs.
	extraByName map[symbols.ID]VID

	labels  [][]symbols.ID       // sorted label set per vertex
	out     [][]Half             // sorted by (Label, To)
	in      [][]Half             // sorted by (Label, To)
	attrs   []([]Attr)           // sorted by Name; nil for most vertices, none past its end
	byLabel map[symbols.ID][]VID // label → its vertices; never an empty list, so len is a count

	numEdges int
	edgeFreq map[symbols.ID]int // edges per label
}

// index builds g's derived indexes from its canonical rows: byName
// (unless g already has it), byLabel, edgeFreq and numEdges. labels and
// edgeLabels size the two label maps (0 when unknown). Builder.Freeze,
// Compacted and FromArrays each finish their graph here.
func (g *Graph) index(labels, edgeLabels int) {
	if g.byName == nil {
		g.byName = make(map[symbols.ID]VID, len(g.names))
		for v, id := range g.names {
			g.byName[id] = VID(v)
		}
	}
	g.byLabel = make(map[symbols.ID][]VID, labels)
	g.edgeFreq = make(map[symbols.ID]int, edgeLabels)
	g.numEdges = 0
	for v := range g.names {
		for _, l := range g.labels[v] {
			g.byLabel[l] = append(g.byLabel[l], VID(v))
		}
		for _, h := range g.out[v] {
			g.edgeFreq[h.Label]++
		}
		g.numEdges += len(g.out[v])
	}
}

// NumVertices reports |V|.
func (g *Graph) NumVertices() int { return len(g.names) }

// NumEdges reports |E|.
func (g *Graph) NumEdges() int { return g.numEdges }

// Name returns the external name of v.
func (g *Graph) Name(v VID) string { return g.Symbols.Name(g.names[v]) }

// NameID returns the symbol ID of v's name.
func (g *Graph) NameID(v VID) symbols.ID { return g.names[v] }

// VertexByName resolves an external name, returning NoVID when absent.
func (g *Graph) VertexByName(name string) VID {
	id := g.Symbols.Lookup(name)
	if id == symbols.None {
		return NoVID
	}
	if v, ok := g.vertexBySym(id); ok {
		return v
	}
	return NoVID
}

// Labels returns the sorted label set of v. Callers must not mutate it.
func (g *Graph) Labels(v VID) []symbols.ID { return g.labels[v] }

// HasLabel reports whether v carries label l.
func (g *Graph) HasLabel(v VID, l symbols.ID) bool {
	_, ok := slices.BinarySearch(g.labels[v], l)
	return ok
}

// Out returns all outgoing half-edges of v, sorted by (label, to).
func (g *Graph) Out(v VID) []Half { return g.out[v] }

// In returns all incoming half-edges of v, sorted by (label, to).
func (g *Graph) In(v VID) []Half { return g.in[v] }

// OutDegree reports the out-degree of v.
func (g *Graph) OutDegree(v VID) int { return len(g.out[v]) }

// InDegree reports the in-degree of v.
func (g *Graph) InDegree(v VID) int { return len(g.in[v]) }

// Degree reports the total degree of v.
func (g *Graph) Degree(v VID) int { return len(g.out[v]) + len(g.in[v]) }

// labelStart returns the index of the first half-edge of hs labeled l or
// above. The binary search is written out rather than run through
// sort.Search: its closure call per step costs more than the comparison
// it makes, and the build phase searches once per candidate per probe.
func labelStart(hs []Half, l symbols.ID) int {
	lo, hi := 0, len(hs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if hs[mid].Label < l {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// labelRange returns the run of hs labeled l: from its start, a second
// bisection over the rest of the row finds the first half-edge labeled
// above l.
func labelRange(hs []Half, l symbols.ID) []Half {
	lo := labelStart(hs, l)
	end, hi := lo, len(hs)
	for end < hi {
		mid := int(uint(end+hi) >> 1)
		if hs[mid].Label <= l {
			end = mid + 1
		} else {
			hi = mid
		}
	}
	return hs[lo:end]
}

// OutByLabel returns the outgoing half-edges of v labeled l (sorted by To).
func (g *Graph) OutByLabel(v VID, l symbols.ID) []Half { return labelRange(g.out[v], l) }

// InByLabel returns the incoming half-edges of v labeled l (sorted by To).
func (g *Graph) InByLabel(v VID, l symbols.ID) []Half { return labelRange(g.in[v], l) }

// HasEdge reports whether the edge (from, l, to) exists.
func (g *Graph) HasEdge(from VID, l symbols.ID, to VID) bool {
	hs := g.OutByLabel(from, l)
	lo, hi := 0, len(hs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if hs[mid].To < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(hs) && hs[lo].To == to
}

// HasAnyEdge reports whether any edge from→to exists, regardless of label.
func (g *Graph) HasAnyEdge(from, to VID) bool {
	for _, h := range g.out[from] {
		if h.To == to {
			return true
		}
	}
	return false
}

// HasOutLabel reports whether v has at least one outgoing edge labeled l.
func (g *Graph) HasOutLabel(v VID, l symbols.ID) bool { return hasLabel(g.out[v], l) }

// HasInLabel reports whether v has at least one incoming edge labeled l.
func (g *Graph) HasInLabel(v VID, l symbols.ID) bool { return hasLabel(g.in[v], l) }

func hasLabel(hs []Half, l symbols.ID) bool {
	i := labelStart(hs, l)
	return i < len(hs) && hs[i].Label == l
}

// VerticesByLabel returns all vertices carrying label l (sorted).
// Callers must not mutate the returned slice.
func (g *Graph) VerticesByLabel(l symbols.ID) []VID { return g.byLabel[l] }

// LabelBits ORs the vertices carrying label l into s, a bit set over
// VIDs (s must cover [0, NumVertices())). The matchers use it to seed
// candidate bitmaps from label buckets without materializing maps.
func (g *Graph) LabelBits(l symbols.ID, s *bitset.Set) {
	for _, v := range g.byLabel[l] {
		s.Add(uint32(v))
	}
}

// Attribute returns the value of attribute a on v.
func (g *Graph) Attribute(v VID, a symbols.ID) (Value, bool) {
	as := g.Attributes(v)
	lo, hi := 0, len(as)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if as[mid].Name < a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(as) && as[lo].Name == a {
		return as[lo].Value, true
	}
	return Value{}, false
}

// Attributes returns the attribute tuple of v, sorted by name. A graph
// derived by an Overlay shares its start graph's attrs array when no
// attribute changed, so vertices appended since lie past the array's end.
func (g *Graph) Attributes(v VID) []Attr {
	if int(v) < len(g.attrs) {
		return g.attrs[v]
	}
	return nil
}

// LabelFrequency reports how many vertices carry label l.
func (g *Graph) LabelFrequency(l symbols.ID) int { return len(g.byLabel[l]) }

// EdgeLabelFrequency reports how many edges carry label l.
func (g *Graph) EdgeLabelFrequency(l symbols.ID) int { return g.edgeFreq[l] }

// DistinctVertexLabels reports |Σ_V| of the graph.
func (g *Graph) DistinctVertexLabels() int { return len(g.byLabel) }

// DistinctEdgeLabels reports |Σ_E| of the graph.
func (g *Graph) DistinctEdgeLabels() int { return len(g.edgeFreq) }
