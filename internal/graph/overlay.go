package graph

import (
	"sort"

	"ogpa/internal/symbols"
)

// Overlay accumulates ABox-level mutations — new vertices, label and edge
// insertions/deletions, attribute updates — against a frozen base Graph,
// and derives a new frozen Graph with Freeze. The derived graph shares the
// base's per-vertex storage for every untouched vertex (the top-level
// slice headers are copied, O(|V|) pointer moves, not O(|E|) data, and
// the attrs array is shared outright unless a patch touches one); only
// dirty vertices get freshly merged sorted slices, and only touched
// byLabel buckets are rebuilt. That keeps derivation cost proportional to
// the patch, while the result is a plain *Graph the engine's monomorphic
// inner loops consume with zero indirection.
//
// VIDs are stable: base vertices keep their VID, new vertices are appended
// at VIDs >= base.NumVertices(). Vertices are never removed — deleting
// every triple that mentions a vertex merely leaves it isolated — so VIDs
// remain valid across any chain of derivations and compactions.
//
// An Overlay is a single-goroutine builder, like Builder; the Graph it
// freezes is immutable and safe to share.
type Overlay struct {
	base *Graph

	newNames  []symbols.ID // overlay-created vertices; index i has VID base.NumVertices()+i
	newByName map[symbols.ID]VID

	patches map[VID]*vertexPatch
}

// vertexPatch is the pending mutation set of one dirty vertex, maintained
// so that adds never duplicate base content and adds/dels are disjoint:
// effective = (base − dels) ∪ adds.
type vertexPatch struct {
	addLabels map[symbols.ID]bool
	delLabels map[symbols.ID]bool
	addOut    map[Half]bool
	delOut    map[Half]bool
	addIn     map[Half]bool
	delIn     map[Half]bool
	attrs     map[symbols.ID]attrPatch
}

// attrPatch records the effective state of one attribute relative to base:
// either a new value or a deletion.
type attrPatch struct {
	deleted bool
	value   Value
}

// NewOverlay returns an empty overlay over base. If new vertex names will
// be interned (any insert of a previously unseen IRI), base.Symbols must
// be thawed (symbols.Table.Thaw) or still unfrozen.
func NewOverlay(base *Graph) *Overlay {
	return &Overlay{
		base:      base,
		newByName: make(map[symbols.ID]VID),
		patches:   make(map[VID]*vertexPatch),
	}
}

// Base returns the graph the overlay patches.
func (o *Overlay) Base() *Graph { return o.base }

// NumVertices reports |V| of the graph Freeze would produce.
func (o *Overlay) NumVertices() int { return o.base.NumVertices() + len(o.newNames) }

// Vertex resolves name to a VID, creating an overlay vertex on first
// sight. Names are interned into the base's symbol table.
func (o *Overlay) Vertex(name string) VID {
	id := o.base.Symbols.Intern(name)
	if v, ok := o.base.vertexBySym(id); ok {
		return v
	}
	if v, ok := o.newByName[id]; ok {
		return v
	}
	v := VID(o.NumVertices())
	o.newByName[id] = v
	o.newNames = append(o.newNames, id)
	return v
}

// LookupVertex resolves name without creating anything; NoVID when absent.
func (o *Overlay) LookupVertex(name string) VID {
	id := o.base.Symbols.Lookup(name)
	if id == symbols.None {
		return NoVID
	}
	if v, ok := o.base.vertexBySym(id); ok {
		return v
	}
	if v, ok := o.newByName[id]; ok {
		return v
	}
	return NoVID
}

func (o *Overlay) patch(v VID) *vertexPatch {
	p, ok := o.patches[v]
	if !ok {
		p = &vertexPatch{}
		o.patches[v] = p
	}
	return p
}

func (o *Overlay) baseHasLabel(v VID, l symbols.ID) bool {
	return int(v) < o.base.NumVertices() && o.base.HasLabel(v, l)
}

func (o *Overlay) baseHasEdge(from VID, l symbols.ID, to VID) bool {
	return int(from) < o.base.NumVertices() && int(to) < o.base.NumVertices() &&
		o.base.HasEdge(from, l, to)
}

// AddLabel attaches label l to v (no-op if already present).
func (o *Overlay) AddLabel(v VID, l symbols.ID) {
	p := o.patch(v)
	if p.delLabels[l] {
		delete(p.delLabels, l)
		return
	}
	if o.baseHasLabel(v, l) {
		return
	}
	if p.addLabels == nil {
		p.addLabels = make(map[symbols.ID]bool)
	}
	p.addLabels[l] = true
}

// RemoveLabel detaches label l from v (no-op if absent).
func (o *Overlay) RemoveLabel(v VID, l symbols.ID) {
	p := o.patch(v)
	if p.addLabels[l] {
		delete(p.addLabels, l)
		return
	}
	if !o.baseHasLabel(v, l) {
		return
	}
	if p.delLabels == nil {
		p.delLabels = make(map[symbols.ID]bool)
	}
	p.delLabels[l] = true
}

// AddEdge inserts the edge (from, l, to) (no-op if already present).
func (o *Overlay) AddEdge(from VID, l symbols.ID, to VID) {
	pf, pt := o.patch(from), o.patch(to)
	oh, ih := Half{Label: l, To: to}, Half{Label: l, To: from}
	if pf.delOut[oh] {
		delete(pf.delOut, oh)
		delete(pt.delIn, ih)
		return
	}
	if o.baseHasEdge(from, l, to) || pf.addOut[oh] {
		return
	}
	if pf.addOut == nil {
		pf.addOut = make(map[Half]bool)
	}
	pf.addOut[oh] = true
	if pt.addIn == nil {
		pt.addIn = make(map[Half]bool)
	}
	pt.addIn[ih] = true
}

// RemoveEdge deletes the edge (from, l, to) (no-op if absent).
func (o *Overlay) RemoveEdge(from VID, l symbols.ID, to VID) {
	pf, pt := o.patch(from), o.patch(to)
	oh, ih := Half{Label: l, To: to}, Half{Label: l, To: from}
	if pf.addOut[oh] {
		delete(pf.addOut, oh)
		delete(pt.addIn, ih)
		return
	}
	if !o.baseHasEdge(from, l, to) {
		return
	}
	if pf.delOut == nil {
		pf.delOut = make(map[Half]bool)
	}
	pf.delOut[oh] = true
	if pt.delIn == nil {
		pt.delIn = make(map[Half]bool)
	}
	pt.delIn[ih] = true
}

// SetAttr sets attribute name=value on v (last write wins).
func (o *Overlay) SetAttr(v VID, name symbols.ID, value Value) {
	p := o.patch(v)
	if p.attrs == nil {
		p.attrs = make(map[symbols.ID]attrPatch)
	}
	p.attrs[name] = attrPatch{value: value}
}

// RemoveAttr deletes attribute name from v only if its current effective
// value equals value — triple deletion removes the asserted triple, not
// whatever value happens to be stored. No-op otherwise.
func (o *Overlay) RemoveAttr(v VID, name symbols.ID, value Value) {
	p := o.patch(v)
	cur, ok := p.attrs[name]
	if !ok {
		if int(v) < o.base.NumVertices() {
			if bv, has := o.base.Attribute(v, name); has {
				cur = attrPatch{value: bv}
				ok = true
			}
		}
	}
	if !ok || cur.deleted || cur.value != value {
		return
	}
	if p.attrs == nil {
		p.attrs = make(map[symbols.ID]attrPatch)
	}
	p.attrs[name] = attrPatch{deleted: true}
}

// Freeze derives the patched frozen Graph. The overlay must not be used
// afterwards. When nothing was changed, the base itself is returned.
func (o *Overlay) Freeze() *Graph {
	if len(o.patches) == 0 && len(o.newNames) == 0 {
		return o.base
	}
	b := o.base
	n := b.NumVertices() + len(o.newNames)

	g := &Graph{Symbols: b.Symbols}

	if len(o.newNames) == 0 {
		g.names = b.names
		g.byName = b.byName
		g.extraByName = b.extraByName
	} else {
		g.names = make([]symbols.ID, 0, n)
		g.names = append(g.names, b.names...)
		g.names = append(g.names, o.newNames...)
		g.byName = b.byName
		extra := make(map[symbols.ID]VID, len(b.extraByName)+len(o.newByName))
		for id, v := range b.extraByName {
			extra[id] = v
		}
		for id, v := range o.newByName {
			extra[id] = v
		}
		g.extraByName = extra
	}

	g.labels = make([][]symbols.ID, n)
	g.out = make([][]Half, n)
	g.in = make([][]Half, n)
	copy(g.labels, b.labels)
	copy(g.out, b.out)
	copy(g.in, b.in)
	// Attributes are rarely patched: share the base's array unless some
	// patch touches one (new vertices past its end have none).
	g.attrs = b.attrs
	for _, p := range o.patches {
		if len(p.attrs) > 0 {
			g.attrs = make([][]Attr, n)
			copy(g.attrs, b.attrs)
			break
		}
	}

	// Per-label membership deltas drive the byLabel bucket rebuild; edge
	// count deltas drive numEdges/edgeFreq.
	labelAdd := make(map[symbols.ID][]VID)
	labelDel := make(map[symbols.ID]map[VID]bool)
	edgeDelta := make(map[symbols.ID]int)
	edgeCount := b.numEdges

	for v, p := range o.patches {
		if len(p.addLabels) > 0 || len(p.delLabels) > 0 {
			g.labels[v] = mergeLabels(baseOrNil(b.labels, v), p.addLabels, p.delLabels)
			for l := range p.addLabels {
				labelAdd[l] = append(labelAdd[l], v)
			}
			for l := range p.delLabels {
				m := labelDel[l]
				if m == nil {
					m = make(map[VID]bool)
					labelDel[l] = m
				}
				m[v] = true
			}
		}
		if len(p.addOut) > 0 || len(p.delOut) > 0 {
			g.out[v] = mergeHalves(baseOrNil(b.out, v), p.addOut, p.delOut)
			for h := range p.addOut {
				edgeDelta[h.Label]++
				edgeCount++
			}
			for h := range p.delOut {
				edgeDelta[h.Label]--
				edgeCount--
			}
		}
		if len(p.addIn) > 0 || len(p.delIn) > 0 {
			g.in[v] = mergeHalves(baseOrNil(b.in, v), p.addIn, p.delIn)
		}
		if len(p.attrs) > 0 {
			g.attrs[v] = mergeAttrs(b.Attributes(v), p.attrs)
		}
	}
	g.numEdges = edgeCount

	// Copy map headers (O(distinct labels)), then rebuild only touched
	// buckets; untouched buckets share the base's backing arrays.
	g.byLabel = make(map[symbols.ID][]VID, len(b.byLabel))
	for l, vs := range b.byLabel {
		g.byLabel[l] = vs
	}
	touched := make(map[symbols.ID]bool, len(labelAdd)+len(labelDel))
	for l := range labelAdd {
		touched[l] = true
	}
	for l := range labelDel {
		touched[l] = true
	}
	for l := range touched {
		bucket := mergeBucket(b.byLabel[l], labelAdd[l], labelDel[l])
		if len(bucket) == 0 {
			delete(g.byLabel, l)
			continue
		}
		g.byLabel[l] = bucket
	}

	g.edgeFreq = make(map[symbols.ID]int, len(b.edgeFreq))
	for l, c := range b.edgeFreq {
		g.edgeFreq[l] = c
	}
	for l, d := range edgeDelta {
		c := g.edgeFreq[l] + d
		if c <= 0 {
			delete(g.edgeFreq, l)
			continue
		}
		g.edgeFreq[l] = c
	}

	o.patches = nil
	o.newNames = nil
	o.newByName = nil
	return g
}

// baseOrNil returns v's entry of a base per-vertex array, or nil for a
// vertex past its end (one the overlay created).
func baseOrNil[T any](s [][]T, v VID) []T {
	if int(v) < len(s) {
		return s[v]
	}
	return nil
}

func mergeLabels(base []symbols.ID, adds, dels map[symbols.ID]bool) []symbols.ID {
	out := make([]symbols.ID, 0, len(base)+len(adds))
	for _, l := range base {
		if !dels[l] {
			out = append(out, l)
		}
	}
	for l := range adds {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func mergeHalves(base []Half, adds, dels map[Half]bool) []Half {
	out := make([]Half, 0, len(base)+len(adds))
	for _, h := range base {
		if !dels[h] {
			out = append(out, h)
		}
	}
	for h := range adds {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Label != out[j].Label {
			return out[i].Label < out[j].Label
		}
		return out[i].To < out[j].To
	})
	return out
}

func mergeAttrs(base []Attr, patch map[symbols.ID]attrPatch) []Attr {
	out := make([]Attr, 0, len(base)+len(patch))
	for _, a := range base {
		p, ok := patch[a.Name]
		if !ok {
			out = append(out, a)
		} else if !p.deleted {
			out = append(out, Attr{Name: a.Name, Value: p.value})
		}
	}
	for name, p := range patch {
		if p.deleted {
			continue
		}
		if _, ok := findAttr(base, name); ok {
			continue // rewritten in place above
		}
		out = append(out, Attr{Name: name, Value: p.value})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func findAttr(as []Attr, name symbols.ID) (Value, bool) {
	i := sort.Search(len(as), func(i int) bool { return as[i].Name >= name })
	if i < len(as) && as[i].Name == name {
		return as[i].Value, true
	}
	return Value{}, false
}

func mergeBucket(base, adds []VID, dels map[VID]bool) []VID {
	out := make([]VID, 0, len(base)+len(adds))
	for _, v := range base {
		if !dels[v] {
			out = append(out, v)
		}
	}
	out = append(out, adds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
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
		Symbols:  g.Symbols,
		names:    append([]symbols.ID(nil), g.names...),
		byName:   make(map[symbols.ID]VID, n),
		labels:   make([][]symbols.ID, n),
		out:      make([][]Half, n),
		in:       make([][]Half, n),
		attrs:    make([][]Attr, n),
		byLabel:  make(map[symbols.ID][]VID, len(g.byLabel)),
		edgeFreq: make(map[symbols.ID]int, len(g.edgeFreq)),
		numEdges: g.numEdges,
	}
	for v, id := range ng.names {
		ng.byName[id] = VID(v)
	}

	var totLabels, totOut, totIn, totAttrs int
	for v := 0; v < n; v++ {
		totLabels += len(g.labels[v])
		totOut += len(g.out[v])
		totIn += len(g.in[v])
		totAttrs += len(g.Attributes(VID(v)))
	}
	labelArena := make([]symbols.ID, 0, totLabels)
	outArena := make([]Half, 0, totOut)
	inArena := make([]Half, 0, totIn)
	attrArena := make([]Attr, 0, totAttrs)
	for v := 0; v < n; v++ {
		if ls := g.labels[v]; len(ls) > 0 {
			start := len(labelArena)
			labelArena = append(labelArena, ls...)
			ng.labels[v] = labelArena[start:len(labelArena):len(labelArena)]
		}
		if hs := g.out[v]; len(hs) > 0 {
			start := len(outArena)
			outArena = append(outArena, hs...)
			ng.out[v] = outArena[start:len(outArena):len(outArena)]
		}
		if hs := g.in[v]; len(hs) > 0 {
			start := len(inArena)
			inArena = append(inArena, hs...)
			ng.in[v] = inArena[start:len(inArena):len(inArena)]
		}
		if as := g.Attributes(VID(v)); len(as) > 0 {
			start := len(attrArena)
			attrArena = append(attrArena, as...)
			ng.attrs[v] = attrArena[start:len(attrArena):len(attrArena)]
		}
	}

	for v := 0; v < n; v++ {
		for _, l := range ng.labels[v] {
			ng.byLabel[l] = append(ng.byLabel[l], VID(v))
		}
		for _, h := range ng.out[v] {
			ng.edgeFreq[h.Label]++
		}
	}
	return ng
}
