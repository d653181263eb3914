package graph

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"ogpa/internal/symbols"
)

// dumpGraph renders a graph into a canonical text form covering every
// channel the matcher reads: vertices with labels and attributes, edges,
// per-label buckets and frequency tables. Two graphs with equal dumps
// answer every query identically.
func dumpGraph(g *Graph) string {
	var sb strings.Builder
	var names []string
	for v := 0; v < g.NumVertices(); v++ {
		names = append(names, g.Name(VID(v)))
	}
	sort.Strings(names)
	for _, name := range names {
		v := g.VertexByName(name)
		fmt.Fprintf(&sb, "v %s:", name)
		for _, l := range g.Labels(v) {
			fmt.Fprintf(&sb, " +%s", g.Symbols.Name(l))
		}
		for _, a := range g.Attributes(v) {
			fmt.Fprintf(&sb, " %s=%v", g.Symbols.Name(a.Name), a.Value)
		}
		sb.WriteByte('\n')
		for _, h := range g.Out(v) {
			fmt.Fprintf(&sb, "e %s -%s-> %s\n", name, g.Symbols.Name(h.Label), g.Name(h.To))
		}
		for _, h := range g.In(v) {
			fmt.Fprintf(&sb, "r %s <-%s- %s\n", name, g.Symbols.Name(h.Label), g.Name(h.To))
		}
	}
	var labels []string
	for l := symbols.ID(1); int(l) <= g.Symbols.Len(); l++ {
		if n := g.LabelFrequency(l); n > 0 {
			bucket := g.VerticesByLabel(l)
			if len(bucket) != n {
				fmt.Fprintf(&sb, "BROKEN bucket %s: freq=%d len=%d\n", g.Symbols.Name(l), n, len(bucket))
			}
			var bs []string
			for _, v := range bucket {
				bs = append(bs, g.Name(v))
			}
			labels = append(labels, fmt.Sprintf("l %s: %s", g.Symbols.Name(l), strings.Join(bs, ",")))
		}
		if n := g.EdgeLabelFrequency(l); n > 0 {
			labels = append(labels, fmt.Sprintf("f %s: %d", g.Symbols.Name(l), n))
		}
	}
	sort.Strings(labels)
	sb.WriteString(strings.Join(labels, "\n"))
	fmt.Fprintf(&sb, "\nedges=%d\n", g.NumEdges())
	return sb.String()
}

func TestOverlayNoChangesReturnsBase(t *testing.T) {
	base := buildSample(t)
	ov := NewOverlay(base)
	if got := ov.Freeze(); got != base {
		t.Fatal("empty overlay should freeze to the base graph itself")
	}
}

func TestOverlayAddAndRemove(t *testing.T) {
	base := buildSample(t)
	baseDump := dumpGraph(base)
	base.Symbols.Thaw()

	ov := NewOverlay(base)
	// New vertex with a label and an edge to an existing vertex.
	ov.AddLabel("carl", "Student")
	ov.AddEdge("bob", "advisorOf", "carl")
	// Remove an existing label and edge.
	ov.RemoveLabel("ann", "PhD")
	ov.RemoveEdge("ann", "takesCourse", "course1")
	// Attribute update and a value-conditional delete that must not fire.
	ov.SetAttr("course1", "year", Int(2024))
	ov.RemoveAttr("ann", "name", String("NotAnn")) // wrong value: keep
	student := base.Symbols.Lookup("Student")
	advisorOf := base.Symbols.Lookup("advisorOf")
	phd := base.Symbols.Lookup("PhD")
	takes := base.Symbols.Lookup("takesCourse")
	year := base.Symbols.Lookup("year")
	nameAttr := base.Symbols.Lookup("name")

	g := ov.Freeze()

	if got := dumpGraph(base); got != baseDump {
		t.Fatal("Freeze mutated the base graph")
	}
	carl2 := g.VertexByName("carl")
	if carl2 != VID(base.NumVertices()) {
		t.Fatalf("new vertex carl got VID %d, want the first one past the base's %d", carl2, base.NumVertices())
	}
	if !g.HasLabel(carl2, student) {
		t.Fatal("carl should be Student")
	}
	if !g.HasEdge(g.VertexByName("bob"), advisorOf, carl2) {
		t.Fatal("bob -advisorOf-> carl missing")
	}
	if g.HasLabel(g.VertexByName("ann"), phd) {
		t.Fatal("ann should have lost PhD")
	}
	if g.HasEdge(g.VertexByName("ann"), takes, g.VertexByName("course1")) {
		t.Fatal("ann -takesCourse-> course1 should be deleted")
	}
	if v, ok := g.Attribute(g.VertexByName("course1"), year); !ok || v != Int(2024) {
		t.Fatalf("year = %v, %v; want 2024", v, ok)
	}
	if _, ok := g.Attribute(g.VertexByName("ann"), nameAttr); !ok {
		t.Fatal("value-conditional delete with wrong value removed the attribute")
	}
	if g.NumEdges() != base.NumEdges() {
		t.Fatalf("NumEdges = %d, want %d (one added, one removed)", g.NumEdges(), base.NumEdges())
	}
	// PhD bucket is now empty and must be gone from the frequency table.
	if g.LabelFrequency(phd) != 0 || len(g.VerticesByLabel(phd)) != 0 {
		t.Fatal("empty PhD bucket survived")
	}
}

func TestOverlayAddThenRemoveCancels(t *testing.T) {
	base := buildSample(t)
	base.Symbols.Thaw()
	ov := NewOverlay(base)
	ov.AddLabel("ann", "Visitor")
	ov.RemoveLabel("ann", "Visitor")
	ov.AddEdge("ann", "knows", "bob")
	ov.RemoveEdge("ann", "knows", "bob")
	g := ov.Freeze()
	l, e := base.Symbols.Lookup("Visitor"), base.Symbols.Lookup("knows")
	if g.HasLabel(g.VertexByName("ann"), l) {
		t.Fatal("canceled label survived")
	}
	if g.HasEdge(g.VertexByName("ann"), e, g.VertexByName("bob")) {
		t.Fatal("canceled edge survived")
	}
	if g.NumEdges() != base.NumEdges() {
		t.Fatalf("NumEdges = %d, want %d", g.NumEdges(), base.NumEdges())
	}
}

func TestCompactedEquivalence(t *testing.T) {
	base := buildSample(t)
	base.Symbols.Thaw()
	ov := NewOverlay(base)
	ov.AddLabel("carl", "Student")
	ov.AddEdge("carl", "takesCourse", "course1")
	ov.RemoveLabel("ann", "PhD")
	g := ov.Freeze()
	c := g.Compacted()
	if dumpGraph(c) != dumpGraph(g) {
		t.Fatalf("Compacted changed content:\n-- overlay --\n%s\n-- compacted --\n%s", dumpGraph(g), dumpGraph(c))
	}
	if c.extraByName != nil {
		t.Fatal("Compacted should fold extraByName into byName")
	}
}

// shadowModel is the oracle: a plain set-based graph description that a
// fresh Builder can replay.
type shadowModel struct {
	labels map[[2]string]bool  // (vertex, label)
	edges  map[[3]string]bool  // (from, label, to)
	attrs  map[[2]string]Value // (vertex, attr) -> value
	seen   map[string]bool     // every vertex ever mentioned
	order  []string            // mention order, for VID stability
}

func newShadow() *shadowModel {
	return &shadowModel{
		labels: map[[2]string]bool{},
		edges:  map[[3]string]bool{},
		attrs:  map[[2]string]Value{},
		seen:   map[string]bool{},
	}
}

func (s *shadowModel) touch(v string) {
	if !s.seen[v] {
		s.seen[v] = true
		s.order = append(s.order, v)
	}
}

func (s *shadowModel) clone() *shadowModel {
	c := newShadow()
	maps.Copy(c.labels, s.labels)
	maps.Copy(c.edges, s.edges)
	maps.Copy(c.attrs, s.attrs)
	maps.Copy(c.seen, s.seen)
	c.order = slices.Clone(s.order)
	return c
}

// build replays the shadow into a fresh canonical graph. Every vertex
// ever mentioned is created (the overlay never removes vertices), in
// first-mention order so VIDs line up with the overlay's.
func (s *shadowModel) build(tbl *symbols.Table) *Graph {
	b := NewBuilder(tbl)
	for _, v := range s.order {
		b.Vertex(v)
	}
	var ls [][2]string
	for k := range s.labels {
		ls = append(ls, k)
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i][0]+ls[i][1] < ls[j][0]+ls[j][1] })
	for _, k := range ls {
		b.AddLabel(k[0], k[1])
	}
	var es [][3]string
	for k := range s.edges {
		es = append(es, k)
	}
	sort.Slice(es, func(i, j int) bool {
		return es[i][0]+es[i][1]+es[i][2] < es[j][0]+es[j][1]+es[j][2]
	})
	for _, k := range es {
		b.AddEdge(k[0], k[1], k[2])
	}
	var as [][2]string
	for k := range s.attrs {
		as = append(as, k)
	}
	sort.Slice(as, func(i, j int) bool { return as[i][0]+as[i][1] < as[j][0]+as[j][1] })
	for _, k := range as {
		b.SetAttr(k[0], k[1], s.attrs[k])
	}
	return b.Freeze()
}

// TestOverlayRandomEquivalence drives random mutation scripts against
// both the overlay and the shadow model and requires byte-identical
// canonical dumps after every Freeze, including through Compacted.
func TestOverlayRandomEquivalence(t *testing.T) {
	verts := []string{"a", "b", "c", "d", "e", "f", "g2", "h2"}
	labels := []string{"L1", "L2", "L3"}
	elabels := []string{"p", "q", "r"}
	attrs := []string{"x", "y"}

	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sh := newShadow()

		// Random base from a prefix of the shadow script.
		b := NewBuilder(nil)
		for i := 0; i < 12; i++ {
			switch rng.Intn(3) {
			case 0:
				v, l := verts[rng.Intn(4)], labels[rng.Intn(len(labels))]
				b.AddLabel(v, l)
				sh.touch(v)
				sh.labels[[2]string{v, l}] = true
			case 1:
				f, e, to := verts[rng.Intn(4)], elabels[rng.Intn(len(elabels))], verts[rng.Intn(4)]
				b.AddEdge(f, e, to)
				sh.touch(f)
				sh.touch(to)
				sh.edges[[3]string{f, e, to}] = true
			default:
				v, a := verts[rng.Intn(4)], attrs[rng.Intn(len(attrs))]
				val := Int(int64(rng.Intn(5)))
				sh.touch(v)
				sh.attrs[[2]string{v, a}] = val
				b.SetAttr(v, a, val)
			}
		}
		base := b.Freeze()
		base.Symbols.Thaw()

		// Chain of overlays, each applying a random batch.
		g := base
		for round := 0; round < 4; round++ {
			ov := NewOverlay(g)
			for i := 0; i < 10; i++ {
				switch rng.Intn(6) {
				case 0:
					v, l := verts[rng.Intn(len(verts))], labels[rng.Intn(len(labels))]
					ov.AddLabel(v, l)
					sh.touch(v)
					sh.labels[[2]string{v, l}] = true
				case 1:
					v, l := verts[rng.Intn(len(verts))], labels[rng.Intn(len(labels))]
					ov.RemoveLabel(v, l)
					delete(sh.labels, [2]string{v, l})
				case 2:
					f, e, to := verts[rng.Intn(len(verts))], elabels[rng.Intn(len(elabels))], verts[rng.Intn(len(verts))]
					ov.AddEdge(f, e, to)
					sh.touch(f)
					sh.touch(to)
					sh.edges[[3]string{f, e, to}] = true
				case 3:
					f, e, to := verts[rng.Intn(len(verts))], elabels[rng.Intn(len(elabels))], verts[rng.Intn(len(verts))]
					ov.RemoveEdge(f, e, to)
					delete(sh.edges, [3]string{f, e, to})
				case 4:
					v, a := verts[rng.Intn(len(verts))], attrs[rng.Intn(len(attrs))]
					val := Int(int64(rng.Intn(5)))
					ov.SetAttr(v, a, val)
					sh.touch(v)
					sh.attrs[[2]string{v, a}] = val
				default:
					v, a := verts[rng.Intn(len(verts))], attrs[rng.Intn(len(attrs))]
					val := Int(int64(rng.Intn(5)))
					ov.RemoveAttr(v, a, val)
					if sh.attrs[[2]string{v, a}] == val {
						delete(sh.attrs, [2]string{v, a})
					}
				}
			}
			g = ov.Freeze()

			want := dumpGraph(sh.build(base.Symbols))
			if got := dumpGraph(g); got != want {
				t.Fatalf("seed %d round %d: overlay diverged from rebuild\n-- overlay --\n%s\n-- rebuild --\n%s", seed, round, got, want)
			}
			if got := dumpGraph(g.Compacted()); got != want {
				t.Fatalf("seed %d round %d: Compacted diverged from rebuild", seed, round)
			}
		}
	}
}

// TestFreezeSharesUntouchedAttrs: a derivation whose patches touch no
// attribute shares its base's attrs array, so the vertices it appends lie
// past that array's end and have none; a later derivation that sets one
// on such a vertex, and compaction, still see the right tuples.
func TestFreezeSharesUntouchedAttrs(t *testing.T) {
	b := NewBuilder(nil)
	b.AddLabel("ann", "Student")
	b.SetAttr("ann", "age", Int(30))
	base := b.Freeze()
	age := base.Symbols.Intern("age")

	ov := NewOverlay(base)
	ov.AddLabel("bob", "Student")
	g1 := ov.Freeze()
	bob := g1.VertexByName("bob")
	if len(g1.attrs) != len(base.attrs) || &g1.attrs[0] != &base.attrs[0] {
		t.Fatal("a derivation that touches no attribute copied the attrs array")
	}
	if _, ok := g1.Attribute(bob, age); ok || g1.Attributes(bob) != nil {
		t.Fatal("a vertex past the shared attrs array has attributes")
	}

	ov = NewOverlay(g1)
	ov.SetAttr("bob", "age", Int(40))
	g2 := ov.Freeze()
	if v, ok := g2.Attribute(bob, age); !ok || v != Int(40) {
		t.Fatalf("bob's age = %v, %v after setting it", v, ok)
	}
	if v, ok := g2.Attribute(0, age); !ok || v != Int(30) {
		t.Fatalf("ann's age = %v, %v", v, ok)
	}
	for _, g := range []*Graph{g1, g2} {
		if got, want := dumpGraph(g.Compacted()), dumpGraph(g); got != want {
			t.Fatalf("compaction changed the graph:\n%s\nwant\n%s", got, want)
		}
	}
}

// TestOverlayConcurrentDerivations: two derivations from one Builder-made
// start graph, whose rows and header arrays have spare capacity, run at
// the same time. On vertices a and b each adds its own label, edges and
// attribute, which sort past the end of the start graph's rows and so
// fill the same spare slots were they appended in place; on c and d each
// overwrites and deletes start-graph content; each adds a vertex. Each
// must equal a rebuild of its own script alone, and the start graph must
// not change.
func TestOverlayConcurrentDerivations(t *testing.T) {
	b := NewBuilder(nil)
	sh := newShadow()
	for _, v := range []string{"a", "b", "c", "d", "e"} {
		sh.touch(v)
		b.Vertex(v)
	}
	for j := 0; j < 3; j++ {
		l, p, x := fmt.Sprint("B", j), fmt.Sprint("q", j), fmt.Sprint("y", j)
		for _, v := range []string{"a", "b", "c", "d", "e"} {
			b.AddLabel(v, l)
			b.SetAttr(v, x, Int(int64(j)))
			sh.labels[[2]string{v, l}] = true
			sh.attrs[[2]string{v, x}] = Int(int64(j))
		}
		for _, e := range [][2]string{{"a", "b"}, {"b", "a"}, {"c", "d"}} {
			b.AddEdge(e[0], p, e[1])
			sh.edges[[3]string{e[0], p, e[1]}] = true
		}
	}
	start := b.Freeze()
	if cap(start.names) == len(start.names) || cap(start.labels) == len(start.labels) ||
		cap(start.labels[0]) == len(start.labels[0]) || cap(start.out[0]) == len(start.out[0]) ||
		cap(start.in[0]) == len(start.in[0]) || cap(start.attrs[0]) == len(start.attrs[0]) {
		t.Fatal("the start graph has no spare capacity for a derivation to write into")
	}
	start.Symbols.Thaw()
	before := dumpGraph(start)

	// script applies derivation k's writes to ov and to its shadow.
	script := func(k int, ov *Overlay, sh *shadowModel) {
		l, p, x, n := fmt.Sprint("L", k), fmt.Sprint("p", k), fmt.Sprint("x", k), fmt.Sprint("n", k)
		for _, e := range [][2]string{{"a", "b"}, {"b", "a"}} {
			ov.AddLabel(e[0], l)
			ov.AddEdge(e[0], p, e[1])
			ov.SetAttr(e[0], x, Int(int64(k)))
			sh.labels[[2]string{e[0], l}] = true
			sh.edges[[3]string{e[0], p, e[1]}] = true
			sh.attrs[[2]string{e[0], x}] = Int(int64(k))
		}
		ov.SetAttr("c", "y0", Int(int64(10+k)))
		ov.RemoveAttr("d", "y2", Int(2))
		ov.RemoveLabel("c", fmt.Sprint("B", k))
		ov.RemoveEdge("c", fmt.Sprint("q", k), "d")
		ov.AddEdge("d", p, n)
		sh.attrs[[2]string{"c", "y0"}] = Int(int64(10 + k))
		delete(sh.attrs, [2]string{"d", "y2"})
		delete(sh.labels, [2]string{"c", fmt.Sprint("B", k)})
		delete(sh.edges, [3]string{"c", fmt.Sprint("q", k), "d"})
		sh.touch(n)
		sh.edges[[3]string{"d", p, n}] = true
	}
	for round := 0; round < 20; round++ {
		var got [2]*Graph
		shadows := [2]*shadowModel{sh.clone(), sh.clone()}
		var wg sync.WaitGroup
		for k := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ov := NewOverlay(start)
				script(k, ov, shadows[k])
				got[k] = ov.Freeze()
			}()
		}
		wg.Wait()
		for k, g := range got {
			if d, want := dumpGraph(g), dumpGraph(shadows[k].build(start.Symbols)); d != want {
				t.Fatalf("round %d: derivation %d sees another's writes:\n%s\nwant\n%s", round, k, d, want)
			}
		}
		if dumpGraph(start) != before {
			t.Fatalf("round %d: the derivations wrote into their start graph", round)
		}
	}
}
