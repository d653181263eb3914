package delta

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ogpa/internal/graph"
	"ogpa/internal/rdf"
	"ogpa/internal/snap"
)

// dumpGraph renders a graph's full content as a canonical string so two
// stores (or a store and its recovered twin) can be compared for exact
// equality.
func dumpGraph(g *graph.Graph) string {
	var lines []string
	for v := graph.VID(0); int(v) < g.NumVertices(); v++ {
		name := g.Name(v)
		for _, l := range g.Labels(v) {
			lines = append(lines, fmt.Sprintf("label %s %s", name, g.Symbols.Name(l)))
		}
		for _, h := range g.Out(v) {
			lines = append(lines, fmt.Sprintf("edge %s %s %s", name, g.Symbols.Name(h.Label), g.Name(h.To)))
		}
		for _, a := range g.Attributes(v) {
			lines = append(lines, fmt.Sprintf("attr %s %s %#v", name, g.Symbols.Name(a.Name), a.Value))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// openDurable builds a durable store over dir, seeding the snapshot from
// baseGraph() on first use and recovering on every later call — the same
// protocol ogpa.KB.EnableDurableLiveData follows.
func openDurable(t *testing.T, dir string, threshold int) *Store {
	t.Helper()
	snapPath := filepath.Join(dir, "base.snap")
	walPath := filepath.Join(dir, "delta.wal")
	var base *graph.Graph
	baseEpoch := uint64(1)
	if _, err := os.Stat(snapPath); err == nil {
		if base, baseEpoch, err = snap.LoadSnapshot(snapPath); err != nil {
			t.Fatalf("LoadSnapshot: %v", err)
		}
	} else {
		base = baseGraph()
		if err := snap.SaveSnapshot(snapPath, base, baseEpoch); err != nil {
			t.Fatalf("seed SaveSnapshot: %v", err)
		}
	}
	wal, records, err := snap.OpenWAL(walPath)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	s, err := NewStoreRecovered(base, baseEpoch, records, Config{
		CompactThreshold: threshold,
		WAL:              wal,
		SnapshotPath:     snapPath,
	})
	if err != nil {
		t.Fatalf("NewStoreRecovered: %v", err)
	}
	return s
}

// TestDurableRecoveryMatchesInMemory drives a durable store and a plain
// in-memory store through the same batches, then recovers the durable
// one from disk and requires all three to hold identical content at the
// identical epoch.
func TestDurableRecoveryMatchesInMemory(t *testing.T) {
	dir := t.TempDir()
	durable := openDurable(t, dir, -1)
	mem := NewStore(baseGraph(), Config{CompactThreshold: -1})

	batches := []struct {
		nt  string
		del bool
	}{
		{"carl a Student .\ncarl takesCourse course1 .", false},
		{"bob advisorOf ann .", true},
		{"dana a Professor .\ndana advisorOf carl .", false},
		{"carl age 23 .", false},
	}
	for _, b := range batches {
		for _, s := range []*Store{durable, mem} {
			var err error
			if b.del {
				_, err = s.DeleteTriples(strings.NewReader(b.nt))
			} else {
				_, err = s.InsertTriples(strings.NewReader(b.nt))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if durable.Epoch() != mem.Epoch() {
		t.Fatalf("durable epoch %d != in-memory epoch %d", durable.Epoch(), mem.Epoch())
	}
	want := dumpGraph(mem.Snapshot().Graph())
	if got := dumpGraph(durable.Snapshot().Graph()); got != want {
		t.Fatalf("durable store diverged from in-memory before recovery:\n%s\nvs\n%s", got, want)
	}
	wantEpoch := durable.Epoch()
	if err := durable.Close(); err != nil {
		t.Fatal(err)
	}

	recovered := openDurable(t, dir, -1)
	defer recovered.Close()
	if recovered.Epoch() != wantEpoch {
		t.Fatalf("recovered epoch %d, want %d", recovered.Epoch(), wantEpoch)
	}
	if got := dumpGraph(recovered.Snapshot().Graph()); got != want {
		t.Fatalf("recovery changed content:\n%s\nvs\n%s", got, want)
	}
}

// TestTornBatchDiscardedOnRecovery simulates the two crash windows of
// the commit protocol. (1) Crash between WAL append and the state swap:
// the record is complete on disk, so recovery MUST apply it — the WAL is
// the commit point, and a fully-written record is indistinguishable from
// an acknowledged one. (2) Crash mid-append: the torn record was never
// acknowledged (Append had not returned), so recovery MUST discard it
// and land on the previous epoch, with the tail truncated so later
// appends cannot interleave with garbage.
func TestTornBatchDiscardedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir, -1)
	if _, err := s.InsertTriples(strings.NewReader("carl a Student .")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Window 1: a complete record the store never swapped in (epoch 3
	// would have been published next). Write it straight to the WAL.
	walPath := filepath.Join(dir, "delta.wal")
	w, _, err := snap.OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(snap.Record{Epoch: 3, Triples: []rdf.Triple{
		{Subject: "dana", Predicate: rdf.TypePredicate, Kind: rdf.ObjectIRI, Object: "Professor"},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openDurable(t, dir, -1)
	if s2.Epoch() != 3 {
		t.Fatalf("complete-but-unswapped batch: recovered epoch %d, want 3 (the record is committed)", s2.Epoch())
	}
	if s2.Snapshot().Graph().VertexByName("dana") == graph.NoVID {
		t.Fatal("complete-but-unswapped batch not applied on recovery")
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// Window 2: shear bytes off the last record mid-payload.
	buf, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, buf[:len(buf)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	s3 := openDurable(t, dir, -1)
	defer s3.Close()
	if s3.Epoch() != 2 {
		t.Fatalf("torn batch: recovered epoch %d, want 2 (the tail was never acknowledged)", s3.Epoch())
	}
	if s3.Snapshot().Graph().VertexByName("dana") != graph.NoVID {
		t.Fatal("torn batch partially applied on recovery")
	}
	if s3.Snapshot().Graph().VertexByName("carl") == graph.NoVID {
		t.Fatal("recovery lost a committed batch while discarding the torn tail")
	}
}

// TestApplyAllOrNothingAcrossWAL forces a WAL append failure (closed
// file handle) and requires the batch to vanish without trace: no epoch
// bump, no content change, and the store poisoned so later mutations
// fail fast instead of writing behind a possibly-torn record.
func TestApplyAllOrNothingAcrossWAL(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "base.snap")
	base := baseGraph()
	if err := snap.SaveSnapshot(snapPath, base, 1); err != nil {
		t.Fatal(err)
	}
	wal, _, err := snap.OpenWAL(filepath.Join(dir, "delta.wal"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStoreRecovered(base, 1, nil, Config{CompactThreshold: -1, WAL: wal, SnapshotPath: snapPath})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.InsertTriples(strings.NewReader("carl a Student .")); err != nil {
		t.Fatal(err)
	}
	before := dumpGraph(s.Snapshot().Graph())
	beforeEpoch := s.Epoch()

	wal.Close() // the "disk" fails out from under the store

	if _, err := s.InsertTriples(strings.NewReader("dana a Professor .")); err == nil {
		t.Fatal("insert with a dead WAL succeeded")
	}
	if s.Epoch() != beforeEpoch {
		t.Fatalf("failed batch bumped epoch %d -> %d", beforeEpoch, s.Epoch())
	}
	if got := dumpGraph(s.Snapshot().Graph()); got != before {
		t.Fatal("failed batch changed content")
	}
	// Poisoned: even a batch that would now succeed is refused.
	if _, err := s.InsertTriples(strings.NewReader("erin a Student .")); err == nil {
		t.Fatal("store accepted a mutation after losing durability")
	}
	if _, err := s.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded on a poisoned store")
	}
}

// TestCheckpointFoldsAndTruncates checks the checkpoint protocol:
// content and epoch unchanged, WAL back to bare header, snapshot on disk
// at the store's epoch, and recovery from the checkpointed directory
// reproduces the store exactly.
func TestCheckpointFoldsAndTruncates(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir, -1)
	if _, err := s.InsertTriples(strings.NewReader("carl a Student .\ncarl takesCourse course1 .")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeleteTriples(strings.NewReader("bob advisorOf ann .")); err != nil {
		t.Fatal(err)
	}
	want := dumpGraph(s.Snapshot().Graph())
	wantEpoch := s.Epoch()
	walBefore := s.WALSize()

	epoch, err := s.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if epoch != wantEpoch || s.Epoch() != wantEpoch {
		t.Fatalf("checkpoint moved the epoch: checkpoint=%d store=%d want=%d", epoch, s.Epoch(), wantEpoch)
	}
	if s.WALSize() >= walBefore {
		t.Fatalf("WAL not truncated: %d -> %d bytes", walBefore, s.WALSize())
	}
	if s.OverlaySize() != 0 {
		t.Fatalf("overlay not folded: %d ops", s.OverlaySize())
	}
	if got := dumpGraph(s.Snapshot().Graph()); got != want {
		t.Fatal("checkpoint changed content")
	}
	if s.LastCheckpointEpoch() != wantEpoch {
		t.Fatalf("LastCheckpointEpoch = %d, want %d", s.LastCheckpointEpoch(), wantEpoch)
	}
	if _, ep, err := snap.LoadSnapshot(filepath.Join(dir, "base.snap")); err != nil || ep != wantEpoch {
		t.Fatalf("on-disk snapshot epoch = %d, %v; want %d", ep, err, wantEpoch)
	}
	// Mutations after the checkpoint land in the (now empty) WAL.
	if _, err := s.InsertTriples(strings.NewReader("erin a Student .")); err != nil {
		t.Fatal(err)
	}
	afterEpoch := s.Epoch()
	after := dumpGraph(s.Snapshot().Graph())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openDurable(t, dir, -1)
	defer r.Close()
	if r.Epoch() != afterEpoch {
		t.Fatalf("recovered epoch %d, want %d", r.Epoch(), afterEpoch)
	}
	if got := dumpGraph(r.Snapshot().Graph()); got != after {
		t.Fatal("recovery after checkpoint+append diverged")
	}
}

// TestBackgroundCheckpointer crosses the compaction threshold on a
// durable store and waits for the background goroutine: it must
// checkpoint (truncate the WAL, advance the recovery floor), not just
// compact in memory.
func TestBackgroundCheckpointer(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir, 4)
	defer s.Close()
	for i := 0; i < 6; i++ {
		nt := fmt.Sprintf("ind%d a Student .", i)
		if _, err := s.InsertTriples(strings.NewReader(nt)); err != nil {
			t.Fatal(err)
		}
	}
	s.WaitIdle()
	if s.LastCheckpointEpoch() <= 1 {
		t.Fatalf("background checkpointer never ran: recovery floor still %d", s.LastCheckpointEpoch())
	}
	if err := s.CheckpointErr(); err != nil {
		t.Fatalf("background checkpoint error: %v", err)
	}
	if s.Compactions() == 0 {
		t.Fatal("no compaction recorded")
	}
}

// TestCloseStopsStore checks Close semantics: idempotent, mutations fail
// with ErrClosed afterwards, and existing snapshots stay readable.
func TestCloseStopsStore(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir, 2)
	for i := 0; i < 5; i++ {
		nt := fmt.Sprintf("ind%d a Student .", i)
		if _, err := s.InsertTriples(strings.NewReader(nt)); err != nil {
			t.Fatal(err)
		}
	}
	sn := s.Snapshot()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := s.InsertTriples(strings.NewReader("late a Student .")); !errors.Is(err, ErrClosed) {
		t.Fatalf("insert after Close: err = %v, want ErrClosed", err)
	}
	if _, err := s.DeleteTriples(strings.NewReader("ind0 a Student .")); !errors.Is(err, ErrClosed) {
		t.Fatalf("delete after Close: err = %v, want ErrClosed", err)
	}
	if _, err := s.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Fatalf("checkpoint after Close: err = %v, want ErrClosed", err)
	}
	// The snapshot taken before Close is immutable and still serves.
	if sn.Graph().VertexByName("ind4") == graph.NoVID {
		t.Fatal("pre-Close snapshot lost content")
	}
}

// TestWALEpochGapRejected corrupts the recovery chain (a record whose
// epoch skips ahead) and requires NewStoreRecovered to refuse rather
// than silently renumber history.
func TestWALEpochGapRejected(t *testing.T) {
	base := baseGraph()
	records := []snap.Record{
		{Epoch: 2, Triples: []rdf.Triple{{Subject: "a", Predicate: "p", Kind: rdf.ObjectIRI, Object: "b"}}},
		{Epoch: 4, Triples: []rdf.Triple{{Subject: "c", Predicate: "p", Kind: rdf.ObjectIRI, Object: "d"}}},
	}
	if _, err := NewStoreRecovered(base, 1, records, Config{}); err == nil {
		t.Fatal("epoch gap accepted")
	}
}

// TestRecoverySkipsFoldedRecords covers the crash window inside
// Checkpoint: snapshot renamed at epoch N, crash before the WAL
// truncate. Records at or below N are already folded into the snapshot
// and must be skipped, not double-applied.
func TestRecoverySkipsFoldedRecords(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir, -1)
	if _, err := s.InsertTriples(strings.NewReader("carl a Student .")); err != nil {
		t.Fatal(err)
	}
	want := dumpGraph(s.Snapshot().Graph())
	wantEpoch := s.Epoch()
	// Simulate the torn checkpoint: write the folded snapshot at the
	// current epoch but leave the WAL untruncated.
	if _, err := s.SaveTo(filepath.Join(dir, "base.snap")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openDurable(t, dir, -1)
	defer r.Close()
	if r.Epoch() != wantEpoch {
		t.Fatalf("recovered epoch %d, want %d", r.Epoch(), wantEpoch)
	}
	if r.OverlaySize() != 0 {
		t.Fatalf("folded records replayed anyway: overlay %d ops", r.OverlaySize())
	}
	if got := dumpGraph(r.Snapshot().Graph()); got != want {
		t.Fatal("torn-checkpoint recovery diverged")
	}
}
