// Package snap is the durability layer: a versioned, checksummed binary
// snapshot format for the frozen graph base (the CSR arrays of
// graph.Graph plus the symbols.Table they reference) and a write-ahead
// log for internal/delta's append-only op log.
//
// # Snapshot format
//
// A snapshot file is a fixed 4 KiB header page followed by sections, each
// starting on a 4 KiB page boundary:
//
//	header page:
//	  [0:8)    magic "OGPASNP1"
//	  [8:12)   format version (little-endian u32, currently 1)
//	  [12:16)  page size (u32, 4096)
//	  [16:24)  epoch the snapshot captures (u64)
//	  [24:32)  |E| of the graph (u64)
//	  [32:36)  section count (u32)
//	  [36:40)  reserved
//	  [40:...) section table, 32 bytes per entry:
//	           kind u32, reserved u32, offset u64, length u64,
//	           CRC-32C of the payload u32, reserved u32
//	  [4092:4096) CRC-32C of header bytes [0:4092)
//
// Sections hold the symbol strings and the five per-vertex CSR arrays
// (names, labels, out-halves, in-halves, attributes), each as a count, a
// cumulative offset table and a flat data area — fixed-width integers
// throughout. Derived indexes (byName, byLabel, frequency tables) are not
// stored; LoadSnapshot rebuilds them in one pass, which is the cheap part
// of startup compared to re-parsing and re-interning an N-Triples dump.
//
// SaveSnapshot writes to a temp file in the target directory, fsyncs,
// and renames over the destination, so a crash mid-write never destroys
// the previous snapshot. Every section is CRC-checked on load; a torn or
// bit-rotted file fails loudly.
//
// # Write-ahead log
//
// See wal.go: one length-prefixed, CRC'd record per committed mutation
// batch, fsync'd before the delta store's RCU swap publishes the batch's
// epoch. Recovery replays committed records onto the snapshot base and
// discards a torn tail.
package snap

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"ogpa/internal/graph"
	"ogpa/internal/symbols"
)

// Format constants.
const (
	snapMagic   = "OGPASNP1"
	snapVersion = 1
	pageSize    = 4096
	headerSize  = pageSize
	sectionHdr  = 32 // bytes per section-table entry
)

// Section kinds.
const (
	secSymbols uint32 = 1 + iota
	secNames
	secLabels
	secOut
	secIn
	secAttrs
	numSections = 6
)

// castagnoli is the CRC-32C table used for every checksum in this package.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// le is the byte order of every fixed-width field.
var le = binary.LittleEndian

// section is one encoded payload awaiting layout.
type section struct {
	kind uint32
	data []byte
}

// SaveSnapshot writes g (with its symbol table) to path as a snapshot at
// the given epoch. The write is atomic: temp file + rename. The caller
// must ensure no writer mutates the symbol table while the save runs
// (internal/delta holds its writer gate across checkpoints).
func SaveSnapshot(path string, g *graph.Graph, epoch uint64) error {
	a := g.Arrays()
	sections := []section{
		{secSymbols, encodeStrings(g.Symbols.Strings())},
		{secNames, encodeIDs(a.Names)},
		{secLabels, encodeRows(a.Labels, 4, 0, putID)},
		{secOut, encodeRows(a.Out, 8, 0, putHalf)},
		{secIn, encodeRows(a.In, 8, 0, putHalf)},
		{secAttrs, encodeAttrRows(a.Attrs)},
	}

	header := make([]byte, headerSize)
	copy(header, snapMagic)
	le.PutUint32(header[8:], snapVersion)
	le.PutUint32(header[12:], pageSize)
	le.PutUint64(header[16:], epoch)
	le.PutUint64(header[24:], uint64(a.NumEdges))
	le.PutUint32(header[32:], uint32(len(sections)))

	off := uint64(headerSize)
	for i, s := range sections {
		ent := header[40+i*sectionHdr:]
		le.PutUint32(ent[0:], s.kind)
		le.PutUint64(ent[8:], off)
		le.PutUint64(ent[16:], uint64(len(s.data)))
		le.PutUint32(ent[24:], crc32.Checksum(s.data, castagnoli))
		off = pageAlign(off + uint64(len(s.data)))
	}
	le.PutUint32(header[headerSize-4:], crc32.Checksum(header[:headerSize-4], castagnoli))

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("snap: create snapshot temp: %w", err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		//lint:ignore droppederr best-effort cleanup of a temp file that was never published; the write error is the one to report
		_ = tmp.Close()
		//lint:ignore droppederr best-effort cleanup of a temp file that was never published; the write error is the one to report
		_ = os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(header); err != nil {
		return fail(fmt.Errorf("snap: write snapshot header: %w", err))
	}
	pos := uint64(headerSize)
	var pad [pageSize]byte
	for _, s := range sections {
		if _, err := tmp.Write(s.data); err != nil {
			return fail(fmt.Errorf("snap: write snapshot section: %w", err))
		}
		pos += uint64(len(s.data))
		if gap := pageAlign(pos) - pos; gap > 0 {
			if _, err := tmp.Write(pad[:gap]); err != nil {
				return fail(fmt.Errorf("snap: pad snapshot section: %w", err))
			}
			pos += gap
		}
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("snap: sync snapshot: %w", err))
	}
	if err := tmp.Close(); err != nil {
		//lint:ignore droppederr best-effort cleanup of a temp file that was never published; the close error is the one to report
		_ = os.Remove(tmpName)
		return fmt.Errorf("snap: close snapshot temp: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		//lint:ignore droppederr best-effort cleanup of a temp file that was never published; the rename error is the one to report
		_ = os.Remove(tmpName)
		return fmt.Errorf("snap: publish snapshot: %w", err)
	}
	return syncDir(dir)
}

// parsedSnapshot is a validated snapshot buffer: every section located,
// CRC-checked and sliced out of the underlying bytes (payload slices
// alias the buffer; LoadSnapshot copies out of them).
type parsedSnapshot struct {
	epoch    uint64
	numEdges uint64
	payload  map[uint32][]byte
}

// parseSections validates a whole snapshot buffer — magic, version,
// header CRC, per-section CRCs and the exact-length check — and returns
// the located section payloads.
func parseSections(buf []byte) (*parsedSnapshot, error) {
	if len(buf) < headerSize {
		return nil, fmt.Errorf("snap: snapshot truncated: %d bytes, header needs %d", len(buf), headerSize)
	}
	header := buf[:headerSize]
	if string(header[:8]) != snapMagic {
		return nil, fmt.Errorf("snap: bad magic %q (not a snapshot file?)", header[:8])
	}
	if got := le.Uint32(header[headerSize-4:]); got != crc32.Checksum(header[:headerSize-4], castagnoli) {
		return nil, fmt.Errorf("snap: snapshot header checksum mismatch")
	}
	if v := le.Uint32(header[8:]); v != snapVersion {
		return nil, fmt.Errorf("snap: unsupported snapshot version %d (want %d)", v, snapVersion)
	}
	if ps := le.Uint32(header[12:]); ps != pageSize {
		return nil, fmt.Errorf("snap: unsupported page size %d (want %d)", ps, pageSize)
	}
	p := &parsedSnapshot{
		epoch:    le.Uint64(header[16:]),
		numEdges: le.Uint64(header[24:]),
	}
	count := le.Uint32(header[32:])
	if count != numSections {
		return nil, fmt.Errorf("snap: snapshot has %d sections (want %d)", count, numSections)
	}

	p.payload = make(map[uint32][]byte, count)
	expectEnd := uint64(headerSize)
	for i := 0; i < int(count); i++ {
		ent := header[40+i*sectionHdr:]
		kind := le.Uint32(ent[0:])
		off := le.Uint64(ent[8:])
		length := le.Uint64(ent[16:])
		sum := le.Uint32(ent[24:])
		if off > uint64(len(buf)) || length > uint64(len(buf))-off {
			return nil, fmt.Errorf("snap: section %d extends past end of file", kind)
		}
		data := buf[off : off+length]
		if crc32.Checksum(data, castagnoli) != sum {
			return nil, fmt.Errorf("snap: section %d checksum mismatch", kind)
		}
		if _, dup := p.payload[kind]; dup {
			return nil, fmt.Errorf("snap: duplicate section %d", kind)
		}
		p.payload[kind] = data
		if end := pageAlign(off + length); end > expectEnd {
			expectEnd = end
		}
	}
	// Exact-length check: per-section CRCs cannot see bytes sheared off
	// the trailing page padding (or garbage appended after it), so the
	// file length itself is part of the format.
	if uint64(len(buf)) != expectEnd {
		return nil, fmt.Errorf("snap: snapshot is %d bytes, layout expects %d", len(buf), expectEnd)
	}
	for kind := secSymbols; kind <= secAttrs; kind++ {
		if _, ok := p.payload[kind]; !ok {
			return nil, fmt.Errorf("snap: snapshot missing section %d", kind)
		}
	}
	return p, nil
}

// LoadSnapshot reads a snapshot file and reassembles the graph and its
// symbol table, copying every array out of the file buffer. The returned
// table is unfrozen; callers freeze or thaw it (ogpa.KB does) before
// sharing the graph across goroutines.
func LoadSnapshot(path string) (*graph.Graph, uint64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("snap: read snapshot: %w", err)
	}
	p, err := parseSections(buf)
	if err != nil {
		return nil, 0, err
	}
	epoch := p.epoch
	numEdges := p.numEdges
	payload := p.payload

	strs, err := decodeStrings(payload[secSymbols])
	if err != nil {
		return nil, 0, err
	}
	tbl, err := symbols.FromStrings(strs)
	if err != nil {
		return nil, 0, fmt.Errorf("snap: %w", err)
	}
	var a graph.Arrays
	a.NumEdges = int(numEdges)
	if a.Names, err = decodeIDs(payload[secNames]); err != nil {
		return nil, 0, err
	}
	if a.Labels, err = decodeRows(payload[secLabels], "labels", 4, nil, getID); err != nil {
		return nil, 0, err
	}
	if a.Out, err = decodeRows(payload[secOut], "adjacency", 8, nil, getHalf); err != nil {
		return nil, 0, err
	}
	if a.In, err = decodeRows(payload[secIn], "adjacency", 8, nil, getHalf); err != nil {
		return nil, 0, err
	}
	if a.Attrs, err = decodeAttrRows(payload[secAttrs]); err != nil {
		return nil, 0, err
	}
	g, err := graph.FromArrays(tbl, a)
	if err != nil {
		return nil, 0, fmt.Errorf("snap: %w", err)
	}
	return g, epoch, nil
}

func pageAlign(off uint64) uint64 {
	return (off + pageSize - 1) &^ uint64(pageSize-1)
}

// syncDir fsyncs a directory so a just-renamed file survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("snap: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("snap: sync dir: %w", err)
	}
	return nil
}

// --- section encodings ---
//
// Every variable-length collection is (count u32, cumulative offsets
// [count+1]u32, flat data): random access without decoding, and the flat
// data area is exactly the arena layout graph.Compacted produces.

// encodeStrings lays out the symbol strings: count, cumulative byte
// offsets, then the concatenated bytes.
func encodeStrings(strs []string) []byte {
	total := 0
	for _, s := range strs {
		total += len(s)
	}
	buf := make([]byte, 0, 4+4*(len(strs)+1)+total)
	buf = le.AppendUint32(buf, uint32(len(strs)))
	off := uint32(0)
	buf = le.AppendUint32(buf, off)
	for _, s := range strs {
		off += uint32(len(s))
		buf = le.AppendUint32(buf, off)
	}
	for _, s := range strs {
		buf = append(buf, s...)
	}
	return buf
}

func decodeStrings(data []byte) ([]string, error) {
	count, offsets, rest, err := decodeOffsets(data, "symbols")
	if err != nil {
		return nil, err
	}
	if uint64(offsets[count]) > uint64(len(rest)) {
		return nil, fmt.Errorf("snap: symbols section blob truncated")
	}
	blob := string(rest) // one allocation for every interned string
	out := make([]string, count)
	for i := range out {
		out[i] = blob[offsets[i]:offsets[i+1]]
	}
	return out, nil
}

func encodeIDs(ids []symbols.ID) []byte {
	buf := make([]byte, 0, 4+4*len(ids))
	buf = le.AppendUint32(buf, uint32(len(ids)))
	for _, id := range ids {
		buf = le.AppendUint32(buf, uint32(id))
	}
	return buf
}

func decodeIDs(data []byte) ([]symbols.ID, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("snap: names section truncated")
	}
	count := int(le.Uint32(data))
	if uint64(len(data)-4) < 4*uint64(count) {
		return nil, fmt.Errorf("snap: names section truncated")
	}
	out := make([]symbols.ID, count)
	for i := range out {
		out[i] = symbols.ID(le.Uint32(data[4+4*i:]))
	}
	return out, nil
}

// encodeRows lays out rows as CSR: the row count, count+1 cumulative
// element offsets, then every element as put appends it, size bytes
// each. extra is room to reserve past the elements.
func encodeRows[T any](rows [][]T, size, extra int, put func([]byte, T) []byte) []byte {
	total := 0
	for _, r := range rows {
		total += len(r)
	}
	buf := make([]byte, 0, 4+4*(len(rows)+1)+size*total+extra)
	buf = le.AppendUint32(buf, uint32(len(rows)))
	off := uint32(0)
	buf = le.AppendUint32(buf, off)
	for _, r := range rows {
		off += uint32(len(r))
		buf = le.AppendUint32(buf, off)
	}
	for _, r := range rows {
		for _, x := range r {
			buf = put(buf, x)
		}
	}
	return buf
}

// decodeRows reads a section encodeRows wrote back into rows that are
// full slices of one arena. get decodes one size-byte element; tail, when
// set, first reads the bytes after the elements.
func decodeRows[T any](data []byte, what string, size uint64, tail func([]byte) error, get func([]byte) (T, error)) ([][]T, error) {
	count, offsets, rest, err := decodeOffsets(data, what)
	if err != nil {
		return nil, err
	}
	total := uint64(offsets[count])
	if uint64(len(rest)) < size*total {
		return nil, fmt.Errorf("snap: %s section data truncated", what)
	}
	if tail != nil {
		if err := tail(rest[size*total:]); err != nil {
			return nil, err
		}
	}
	arena := make([]T, total)
	for i := range arena {
		if arena[i], err = get(rest[size*uint64(i):]); err != nil {
			return nil, err
		}
	}
	out := make([][]T, count)
	for i := range out {
		if lo, hi := offsets[i], offsets[i+1]; lo < hi {
			out[i] = arena[lo:hi:hi]
		}
	}
	return out, nil
}

func putID(buf []byte, id symbols.ID) []byte { return le.AppendUint32(buf, uint32(id)) }

func getID(rec []byte) (symbols.ID, error) { return symbols.ID(le.Uint32(rec)), nil }

// putHalf writes an 8-byte (label, to) element.
func putHalf(buf []byte, h graph.Half) []byte {
	return le.AppendUint32(le.AppendUint32(buf, uint32(h.Label)), uint32(h.To))
}

func getHalf(rec []byte) (graph.Half, error) {
	return graph.Half{Label: symbols.ID(le.Uint32(rec)), To: graph.VID(le.Uint32(rec[4:]))}, nil
}

// Attribute records are fixed 24-byte entries over a shared string blob
// that follows them (length u32, then the bytes): name u32, kind u8,
// 3 pad, value bits u64 (int64 or float64), string offset u32 into the
// blob, string length u32.
const attrRecSize = 24

func encodeAttrRows(rows [][]graph.Attr) []byte {
	blobLen := 0
	for _, r := range rows {
		for _, a := range r {
			if a.Value.Kind == graph.KindString {
				blobLen += len(a.Value.Str)
			}
		}
	}
	blob := make([]byte, 0, blobLen)
	buf := encodeRows(rows, attrRecSize, 4+blobLen, func(buf []byte, a graph.Attr) []byte {
		buf = le.AppendUint32(buf, uint32(a.Name))
		buf = append(buf, byte(a.Value.Kind), 0, 0, 0)
		var bits uint64
		var strOff, strLen uint32
		switch a.Value.Kind {
		case graph.KindInt:
			bits = uint64(a.Value.Int)
		case graph.KindFloat:
			bits = math.Float64bits(a.Value.Num)
		case graph.KindString:
			strOff = uint32(len(blob))
			strLen = uint32(len(a.Value.Str))
			blob = append(blob, a.Value.Str...)
		}
		buf = le.AppendUint64(buf, bits)
		buf = le.AppendUint32(buf, strOff)
		return le.AppendUint32(buf, strLen)
	})
	buf = le.AppendUint32(buf, uint32(len(blob)))
	return append(buf, blob...)
}

func decodeAttrRows(data []byte) ([][]graph.Attr, error) {
	var blob string // one allocation for every attribute string
	readBlob := func(rest []byte) error {
		if len(rest) < 4 {
			return fmt.Errorf("snap: attrs section data truncated")
		}
		n := uint64(le.Uint32(rest))
		if uint64(len(rest))-4 < n {
			return fmt.Errorf("snap: attrs section blob truncated")
		}
		blob = string(rest[4 : 4+n])
		return nil
	}
	return decodeRows(data, "attrs", attrRecSize, readBlob, func(rec []byte) (graph.Attr, error) {
		a := graph.Attr{Name: symbols.ID(le.Uint32(rec))}
		bits := le.Uint64(rec[8:])
		switch kind := graph.ValueKind(rec[4]); kind {
		case graph.KindInt:
			a.Value = graph.Int(int64(bits))
		case graph.KindFloat:
			a.Value = graph.Float(math.Float64frombits(bits))
		case graph.KindString:
			strOff, strLen := uint64(le.Uint32(rec[16:])), uint64(le.Uint32(rec[20:]))
			if strOff > uint64(len(blob)) || strLen > uint64(len(blob))-strOff {
				return a, fmt.Errorf("snap: attrs section string out of range")
			}
			a.Value = graph.String(blob[strOff : strOff+strLen])
		default:
			return a, fmt.Errorf("snap: attrs section has unknown value kind %d", kind)
		}
		return a, nil
	})
}

// decodeOffsets parses the common (count, offsets[count+1]) prefix of a
// section, checks that the offsets never decrease, and returns the
// remaining data area.
func decodeOffsets(data []byte, what string) (int, []uint32, []byte, error) {
	if len(data) < 4 {
		return 0, nil, nil, fmt.Errorf("snap: %s section truncated", what)
	}
	count := int(le.Uint32(data))
	need := 4 + 4*(uint64(count)+1)
	if uint64(len(data)) < need {
		return 0, nil, nil, fmt.Errorf("snap: %s section offset table truncated", what)
	}
	offsets := make([]uint32, count+1)
	for i := range offsets {
		offsets[i] = le.Uint32(data[4+4*i:])
		if i > 0 && offsets[i] < offsets[i-1] {
			return 0, nil, nil, fmt.Errorf("snap: %s section offsets not monotonic", what)
		}
	}
	return count, offsets, data[need:], nil
}
