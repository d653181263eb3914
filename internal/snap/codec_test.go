package snap

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"ogpa/internal/graph"
	"ogpa/internal/symbols"
)

// goldenGraph is a small hand-built graph touching every section shape:
// several labels on one vertex, out- and in-edges, int, float and string
// attributes (one empty), a vertex with only in-edges and an isolated one.
func goldenGraph() *graph.Graph {
	b := graph.NewBuilder(nil)
	b.AddLabel("ann", "Student")
	b.AddLabel("ann", "Person")
	b.AddLabel("bob", "Professor")
	b.AddEdge("bob", "advisorOf", "ann")
	b.AddEdge("bob", "teaches", "course1")
	b.AddEdge("ann", "takesCourse", "course1")
	b.Vertex("hermit")
	b.SetAttr("ann", "age", graph.Int(-27))
	b.SetAttr("ann", "gpa", graph.Float(3.5))
	b.SetAttr("bob", "title", graph.String("dr"))
	b.SetAttr("bob", "office", graph.String(""))
	return b.Freeze()
}

// TestSnapshotGolden pins the on-disk format byte for byte: section
// order, element layout and page padding all feed the file's SHA-256.
func TestSnapshotGolden(t *testing.T) {
	const want = "0da4b7215d8ef1c15c7eadd829f4ec411ca513f07ca30338f9e21a78c12cf17a"
	path := filepath.Join(t.TempDir(), "golden.snap")
	if err := SaveSnapshot(path, goldenGraph(), 3); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("snapshot SHA-256 = %s, want %s (%d bytes)", got, want, len(buf))
	}
}

// rowSection lays out a row section by hand: the row count, the given
// cumulative offsets and n four-byte elements.
func rowSection(offsets []uint32, n int) []byte {
	buf := le.AppendUint32(nil, uint32(len(offsets)-1))
	for _, o := range offsets {
		buf = le.AppendUint32(buf, o)
	}
	for i := range n {
		buf = le.AppendUint32(buf, uint32(i+1))
	}
	return buf
}

// The decoder tests below reach the checks the CRC and exact-length
// checks would otherwise stop first: each malformed section must return
// an error, never rows.

func TestDecodeRowsRejectsDecreasingOffsets(t *testing.T) {
	for _, offsets := range [][]uint32{{1, 0, 1}, {0, 2, 1}} {
		if rows, err := decodeRows(rowSection(offsets, 1), "labels", 4, nil, getID); err == nil {
			t.Errorf("offsets %v: decoded %v, want an error", offsets, rows)
		}
	}
	if _, err := decodeRows(rowSection([]uint32{0, 0, 1}, 1), "labels", 4, nil, getID); err != nil {
		t.Errorf("nondecreasing offsets rejected: %v", err)
	}
}

func TestDecodeRowsRejectsShortElements(t *testing.T) {
	if rows, err := decodeRows(rowSection([]uint32{0, 3}, 2), "labels", 4, nil, getID); err == nil {
		t.Errorf("three labels over two elements: decoded %v, want an error", rows)
	}
	// Two 8-byte halves claimed, three 4-byte words present.
	if rows, err := decodeRows(rowSection([]uint32{0, 2}, 3), "adjacency", 8, nil, getHalf); err == nil {
		t.Errorf("two halves over 12 bytes: decoded %v, want an error", rows)
	}
}

// attrSection encodes one vertex with one string attribute and returns
// the section and the offset of its record.
func attrSection() ([]byte, int) {
	rows := [][]graph.Attr{{{Name: symbols.ID(1), Value: graph.String("ab")}}}
	return encodeAttrRows(rows), 4 + 4*2
}

func TestDecodeAttrRowsRejectsBadRecords(t *testing.T) {
	data, rec := attrSection()
	if rows, err := decodeAttrRows(data); err != nil || len(rows) != 1 || rows[0][0].Value.Str != "ab" {
		t.Fatalf("well-formed attrs section: %v, %v", rows, err)
	}
	for name, corrupt := range map[string]func([]byte){
		"string offset past the blob": func(b []byte) { le.PutUint32(b[rec+16:], 3) },
		"string length past the blob": func(b []byte) { le.PutUint32(b[rec+20:], 3) },
		"unknown value kind":          func(b []byte) { b[rec+4] = 9 },
		"blob shorter than its length": func(b []byte) {
			le.PutUint32(b[rec+attrRecSize:], 3)
		},
	} {
		b, _ := attrSection()
		corrupt(b)
		if rows, err := decodeAttrRows(b); err == nil {
			t.Errorf("%s: decoded %v, want an error", name, rows)
		}
	}
}
