package snap

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ogpa/internal/graph"
	"ogpa/internal/rdf"
)

// testGraph builds a small frozen graph exercising every section kind:
// labels, edges in both directions, and all three attribute value kinds.
func testGraph() *graph.Graph {
	b := graph.NewBuilder(nil)
	b.AddLabel("ann", "Student")
	b.AddLabel("bob", "Professor")
	b.AddLabel("bob", "Advisor")
	b.AddEdge("bob", "advisorOf", "ann")
	b.AddEdge("ann", "takesCourse", "course1")
	b.AddEdge("bob", "teaches", "course1")
	b.AddLabel("course1", "Course")
	b.SetAttr("ann", "age", graph.Int(27))
	b.SetAttr("ann", "gpa", graph.Float(3.5))
	b.SetAttr("course1", "title", graph.String("logic"))
	b.SetAttr("course1", "room", graph.String(""))
	return b.Freeze()
}

// dump renders a graph's full content (names, labels, adjacency, attrs)
// as a canonical string, for equality checks across save/load.
func dump(g *graph.Graph) string {
	var lines []string
	for v := graph.VID(0); int(v) < g.NumVertices(); v++ {
		name := g.Name(v)
		for _, l := range g.Labels(v) {
			lines = append(lines, fmt.Sprintf("label %s %s", name, g.Symbols.Name(l)))
		}
		for _, h := range g.Out(v) {
			lines = append(lines, fmt.Sprintf("edge %s %s %s", name, g.Symbols.Name(h.Label), g.Name(h.To)))
		}
		for _, h := range g.In(v) {
			lines = append(lines, fmt.Sprintf("inedge %s %s %s", name, g.Symbols.Name(h.Label), g.Name(h.To)))
		}
		for _, a := range g.Attributes(v) {
			lines = append(lines, fmt.Sprintf("attr %s %s %#v", name, g.Symbols.Name(a.Name), a.Value))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func TestSnapshotRoundTrip(t *testing.T) {
	g := testGraph()
	path := filepath.Join(t.TempDir(), "base.snap")
	if err := SaveSnapshot(path, g, 42); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	got, epoch, err := LoadSnapshot(path)
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if epoch != 42 {
		t.Fatalf("epoch = %d, want 42", epoch)
	}
	if want, have := dump(g), dump(got); want != have {
		t.Fatalf("round-trip changed content:\nwant:\n%s\ngot:\n%s", want, have)
	}
	// Derived indexes must be rebuilt, not just the raw arrays.
	ann := got.VertexByName("ann")
	if ann == graph.NoVID {
		t.Fatal("byName index missing ann")
	}
	student := got.Symbols.Lookup("Student")
	if got.LabelFrequency(student) != 1 || len(got.VerticesByLabel(student)) != 1 {
		t.Fatal("byLabel index not rebuilt")
	}
	if got.NumEdges() != g.NumEdges() {
		t.Fatalf("|E| = %d, want %d", got.NumEdges(), g.NumEdges())
	}
	// Symbol IDs must be byte-identical: the CSR arrays reference them.
	if got.Symbols.Lookup("advisorOf") != g.Symbols.Lookup("advisorOf") {
		t.Fatal("symbol IDs shifted across save/load")
	}
}

func TestSnapshotEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(nil).Freeze()
	path := filepath.Join(t.TempDir(), "empty.snap")
	if err := SaveSnapshot(path, g, 1); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	got, _, err := LoadSnapshot(path)
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if got.NumVertices() != 0 || got.NumEdges() != 0 {
		t.Fatalf("empty graph came back with |V|=%d |E|=%d", got.NumVertices(), got.NumEdges())
	}
}

// TestSnapshotCorruptionRejected flips one byte at a sweep of offsets
// and requires every corrupted file to fail loudly — never to load as a
// silently different graph.
func TestSnapshotCorruptionRejected(t *testing.T) {
	g := testGraph()
	dir := t.TempDir()
	path := filepath.Join(dir, "base.snap")
	if err := SaveSnapshot(path, g, 7); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := dump(g)
	for off := 0; off < len(orig); off += 37 {
		corrupt := append([]byte(nil), orig...)
		corrupt[off] ^= 0xFF
		cpath := filepath.Join(dir, "corrupt.snap")
		if err := os.WriteFile(cpath, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		got, _, err := LoadSnapshot(cpath)
		if err != nil {
			continue // rejected, as it should be
		}
		// A flip inside page padding is invisible to every checksum —
		// and harmless. Loading identical content is the only acceptable
		// non-error outcome.
		if dump(got) != want {
			t.Fatalf("byte flip at offset %d loaded silently as different content", off)
		}
	}
}

func TestSnapshotTruncationRejected(t *testing.T) {
	g := testGraph()
	dir := t.TempDir()
	path := filepath.Join(dir, "base.snap")
	if err := SaveSnapshot(path, g, 7); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 10, headerSize - 1, headerSize, len(orig) - 1} {
		tpath := filepath.Join(dir, "trunc.snap")
		if err := os.WriteFile(tpath, orig[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadSnapshot(tpath); err == nil {
			t.Fatalf("snapshot truncated to %d bytes loaded without error", n)
		}
	}
}

func testRecords() []Record {
	return []Record{
		{Epoch: 2, Del: false, Triples: []rdf.Triple{
			{Subject: "carl", Predicate: rdf.TypePredicate, Kind: rdf.ObjectIRI, Object: "Student"},
			{Subject: "carl", Predicate: "takesCourse", Kind: rdf.ObjectIRI, Object: "course1"},
		}},
		{Epoch: 3, Del: true, Triples: []rdf.Triple{
			{Subject: "bob", Predicate: "advisorOf", Kind: rdf.ObjectIRI, Object: "ann"},
		}},
		{Epoch: 4, Del: false, Triples: []rdf.Triple{
			{Subject: "carl", Predicate: "age", Kind: rdf.ObjectInt, Int: 23},
			{Subject: "carl", Predicate: "gpa", Kind: rdf.ObjectFloat, Float: 3.25},
			{Subject: "carl", Predicate: "nick", Kind: rdf.ObjectString, Object: "cc"},
		}},
	}
}

func recordsEqual(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Epoch != b[i].Epoch || a[i].Del != b[i].Del || len(a[i].Triples) != len(b[i].Triples) {
			return false
		}
		for j := range a[i].Triples {
			if a[i].Triples[j] != b[i].Triples[j] {
				return false
			}
		}
	}
	return true
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "delta.wal")
	w, recs, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("OpenWAL (fresh): %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh WAL replayed %d records", len(recs))
	}
	want := testRecords()
	for _, rec := range want {
		if err := w.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2, got, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("OpenWAL (reopen): %v", err)
	}
	defer w2.Close()
	if !recordsEqual(want, got) {
		t.Fatalf("replay mismatch:\nwant %+v\ngot  %+v", want, got)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != w2.Size() {
		t.Fatalf("Size() = %d, file is %d bytes (%v)", w2.Size(), fi.Size(), err)
	}
}

// TestWALTornTailEveryOffset is the crash-recovery property test the
// issue asks for: truncate the log at EVERY byte offset within (and
// around) the final record and require recovery to land exactly on the
// last fully-committed record — never an error, never a half-applied
// batch, never a lost committed one.
func TestWALTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "delta.wal")
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords()
	var commitSizes []int64 // committed file size after each append
	for _, rec := range want {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		commitSizes = append(commitSizes, w.Size())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// committedAt reports how many records a file of n bytes fully holds.
	committedAt := func(n int64) int {
		k := 0
		for k < len(commitSizes) && commitSizes[k] <= n {
			k++
		}
		return k
	}

	for n := int64(walHeaderSize); n <= int64(len(orig)); n++ {
		tpath := filepath.Join(dir, "torn.wal")
		if err := os.WriteFile(tpath, orig[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		w2, got, err := OpenWAL(tpath)
		if err != nil {
			t.Fatalf("truncated to %d bytes: OpenWAL error %v (torn tails must recover, not fail)", n, err)
		}
		wantK := committedAt(n)
		if !recordsEqual(want[:wantK], got) {
			w2.Close()
			t.Fatalf("truncated to %d bytes: recovered %d records, want %d", n, len(got), wantK)
		}
		// The torn tail must be physically gone: appending after recovery
		// and reopening yields committed records + the new one.
		extra := Record{Epoch: uint64(wantK) + 2, Triples: []rdf.Triple{
			{Subject: "x", Predicate: "p", Kind: rdf.ObjectIRI, Object: "y"},
		}}
		if err := w2.Append(extra); err != nil {
			w2.Close()
			t.Fatalf("truncated to %d bytes: append after recovery: %v", n, err)
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
		w3, got3, err := OpenWAL(tpath)
		if err != nil {
			t.Fatalf("truncated to %d bytes: reopen after append: %v", n, err)
		}
		w3.Close()
		if !recordsEqual(append(append([]Record{}, want[:wantK]...), extra), got3) {
			t.Fatalf("truncated to %d bytes: append after recovery interleaved with torn garbage", n)
		}
	}
}

func TestWALReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "delta.wal")
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range testRecords() {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if w.Size() != walHeaderSize {
		t.Fatalf("Size after Reset = %d, want %d", w.Size(), walHeaderSize)
	}
	post := Record{Epoch: 9, Triples: []rdf.Triple{
		{Subject: "x", Predicate: "p", Kind: rdf.ObjectIRI, Object: "y"},
	}}
	if err := w.Append(post); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if !recordsEqual([]Record{post}, got) {
		t.Fatalf("after Reset+Append, replay = %+v, want just the post-reset record", got)
	}
}

func TestWALRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not.wal")
	if err := os.WriteFile(path, []byte("this is not a WAL file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWAL(path); err == nil {
		t.Fatal("OpenWAL accepted a non-WAL file")
	}
}
