package delta

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"ogpa/internal/graph"
)

func baseGraph() *graph.Graph {
	b := graph.NewBuilder(nil)
	b.AddLabel("ann", "Student")
	b.AddLabel("bob", "Professor")
	b.AddEdge("bob", "advisorOf", "ann")
	b.AddEdge("ann", "takesCourse", "course1")
	b.AddLabel("course1", "Course")
	return b.Freeze()
}

func insert(t *testing.T, s *Store, nt string) int {
	t.Helper()
	n, err := s.InsertTriples(strings.NewReader(nt))
	if err != nil {
		t.Fatalf("InsertTriples: %v", err)
	}
	return n
}

func remove(t *testing.T, s *Store, nt string) int {
	t.Helper()
	n, err := s.DeleteTriples(strings.NewReader(nt))
	if err != nil {
		t.Fatalf("DeleteTriples: %v", err)
	}
	return n
}

func TestStoreEpochsAndVisibility(t *testing.T) {
	s := NewStore(baseGraph(), Config{CompactThreshold: -1})
	if s.Epoch() != 1 {
		t.Fatalf("fresh store epoch = %d, want 1", s.Epoch())
	}
	before := s.Snapshot()

	if n := insert(t, s, "carl a Student .\ncarl takesCourse course1 ."); n != 2 {
		t.Fatalf("applied %d, want 2", n)
	}
	if s.Epoch() != 2 {
		t.Fatalf("epoch after one batch = %d, want 2", s.Epoch())
	}
	after := s.Snapshot()

	// The old snapshot must not see the write; the new one must.
	if before.Graph().VertexByName("carl") != graph.NoVID {
		t.Fatal("pre-write snapshot sees carl")
	}
	g := after.Graph()
	carl := g.VertexByName("carl")
	if carl == graph.NoVID {
		t.Fatal("post-write snapshot misses carl")
	}
	student := g.Symbols.Lookup("Student")
	if !g.HasLabel(carl, student) {
		t.Fatal("carl not a Student")
	}

	// Deletion under a third epoch.
	remove(t, s, "ann takesCourse course1 .")
	if s.Epoch() != 3 {
		t.Fatalf("epoch = %d, want 3", s.Epoch())
	}
	g3 := s.Snapshot().Graph()
	ann := g3.VertexByName("ann")
	takes := g3.Symbols.Lookup("takesCourse")
	if len(g3.OutByLabel(ann, takes)) != 0 {
		t.Fatal("deleted edge still visible")
	}
	// ... while the middle snapshot still has it (immutability).
	g2 := after.Graph()
	if len(g2.OutByLabel(g2.VertexByName("ann"), takes)) != 1 {
		t.Fatal("middle snapshot lost its edge")
	}
	// course1 is untouched: ann's deletion must not remove vertices.
	if g3.VertexByName("course1") == graph.NoVID {
		t.Fatal("vertex vanished on triple deletion")
	}
}

func TestStoreParseErrorAppliesNothing(t *testing.T) {
	s := NewStore(baseGraph(), Config{CompactThreshold: -1})
	epoch := s.Epoch()
	n, err := s.InsertTriples(strings.NewReader("dave a Student .\nthis is not a triple at all ."))
	if err == nil {
		t.Fatal("expected a parse error")
	}
	if n != 0 {
		t.Fatalf("applied %d triples from a bad batch", n)
	}
	if s.Epoch() != epoch {
		t.Fatal("epoch moved on a rejected batch")
	}
	if s.Snapshot().Graph().VertexByName("dave") != graph.NoVID {
		t.Fatal("half of a rejected batch is visible")
	}
}

func TestStoreDeleteUnknownNamesIsNoOp(t *testing.T) {
	s := NewStore(baseGraph(), Config{CompactThreshold: -1})
	symsBefore := s.Snapshot().Graph().Symbols.Len()
	remove(t, s, "ghost a Phantom .\nghost hauntedBy nobody .")
	g := s.Snapshot().Graph()
	if g.Symbols.Len() != symsBefore {
		t.Fatal("deleting unknown names grew the symbol table")
	}
	if g.VertexByName("ghost") != graph.NoVID {
		t.Fatal("deletion created a vertex")
	}
}

func TestStoreCompactPreservesContentAndEpoch(t *testing.T) {
	s := NewStore(baseGraph(), Config{CompactThreshold: -1})
	for i := 0; i < 20; i++ {
		insert(t, s, fmt.Sprintf("s%d a Student .\ns%d takesCourse course1 .", i, i))
	}
	epoch := s.Epoch()
	gBefore := s.Snapshot().Graph()
	if s.OverlaySize() != 40 {
		t.Fatalf("overlay = %d ops, want 40", s.OverlaySize())
	}

	s.Compact()

	if s.Epoch() != epoch {
		t.Fatalf("compaction changed the epoch: %d -> %d", epoch, s.Epoch())
	}
	if s.OverlaySize() != 0 {
		t.Fatalf("overlay = %d after compaction, want 0", s.OverlaySize())
	}
	if s.Compactions() != 1 {
		t.Fatalf("compactions = %d, want 1", s.Compactions())
	}
	gAfter := s.Snapshot().Graph()
	if gAfter.NumVertices() != gBefore.NumVertices() || gAfter.NumEdges() != gBefore.NumEdges() {
		t.Fatalf("compaction changed content: |V| %d->%d |E| %d->%d",
			gBefore.NumVertices(), gAfter.NumVertices(), gBefore.NumEdges(), gAfter.NumEdges())
	}
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("s%d", i)
		va, vb := gAfter.VertexByName(name), gBefore.VertexByName(name)
		if va != vb {
			t.Fatalf("VID of %s changed across compaction: %d -> %d", name, vb, va)
		}
	}
	// Compacting an empty overlay is a no-op.
	s.Compact()
	if s.Compactions() != 1 {
		t.Fatal("empty compaction counted")
	}
}

func TestStoreBackgroundCompaction(t *testing.T) {
	s := NewStore(baseGraph(), Config{CompactThreshold: 8})
	for i := 0; i < 10; i++ {
		insert(t, s, fmt.Sprintf("t%d a Student .", i))
	}
	s.WaitIdle()
	if s.Compactions() == 0 {
		t.Fatal("threshold crossing never compacted")
	}
	if s.OverlaySize() >= 8 {
		t.Fatalf("overlay = %d, still over threshold after WaitIdle", s.OverlaySize())
	}
	g := s.Snapshot().Graph()
	for i := 0; i < 10; i++ {
		if g.VertexByName(fmt.Sprintf("t%d", i)) == graph.NoVID {
			t.Fatalf("t%d lost across background compaction", i)
		}
	}
}

// TestStoreConcurrentWritersAndReaders is the -race stress: writers
// mutate while readers snapshot and materialize, with background
// compaction enabled. Correctness assertions are minimal — the point is
// that the race detector stays quiet and snapshots are internally
// consistent (a batch's two triples are visible atomically).
func TestStoreConcurrentWritersAndReaders(t *testing.T) {
	s := NewStore(baseGraph(), Config{CompactThreshold: 16})
	const writers = 4
	const batches = 25
	var writeWG, readWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 0; i < batches; i++ {
				name := fmt.Sprintf("w%dv%d", w, i)
				// Two triples per batch: visible together or not at all.
				if _, err := s.InsertTriples(strings.NewReader(
					name + " a Student .\n" + name + " takesCourse course1 .")); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if i%3 == 0 {
					if _, err := s.DeleteTriples(strings.NewReader(name + " a Student .")); err != nil {
						t.Errorf("delete: %v", err)
						return
					}
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := s.Snapshot()
				g := sn.Graph()
				takes := g.Symbols.Lookup("takesCourse")
				for w := 0; w < writers; w++ {
					for i := 0; i < batches; i++ {
						v := g.VertexByName(fmt.Sprintf("w%dv%d", w, i))
						if v == graph.NoVID {
							continue
						}
						// The edge arrived in the same batch as the vertex.
						if len(g.OutByLabel(v, takes)) != 1 {
							t.Errorf("torn batch: w%dv%d exists without its edge", w, i)
							return
						}
					}
				}
			}
		}()
	}
	writeWG.Wait() // readers keep hammering until every write has landed
	close(stop)
	readWG.Wait()
	s.WaitIdle()

	g := s.Snapshot().Graph()
	for w := 0; w < writers; w++ {
		for i := 0; i < batches; i++ {
			if g.VertexByName(fmt.Sprintf("w%dv%d", w, i)) == graph.NoVID {
				t.Fatalf("w%dv%d missing after all writers finished", w, i)
			}
		}
	}
}

// TestSnapshotOpsSurviveLaterCommits: commits append to the op log in
// place, so every published view must keep exactly the ops it had while
// later commits and compactions land. Readers copy the ops of the
// snapshots they take and check them again after thousands more
// commits; run under -race, a write into a slot a published view reads
// is also reported.
func TestSnapshotOpsSurviveLaterCommits(t *testing.T) {
	s := NewStore(baseGraph(), Config{CompactThreshold: 64})
	defer s.Close()
	type held struct {
		sn  Snapshot
		ops []op
	}
	var mu sync.Mutex
	var kept []held
	stop := make(chan struct{})
	var readWG sync.WaitGroup
	for r := 0; r < 2; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := s.Snapshot()
				h := held{sn: sn, ops: slices.Clone(sn.st.ops)}
				mu.Lock()
				kept = append(kept, h)
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < 3000; i++ {
		name := fmt.Sprintf("v%d", i%50)
		body := strings.NewReader(name + " a Student .\n" + name + " takesCourse c" + fmt.Sprint(i%7) + " .")
		var err error
		if i%3 == 2 {
			_, err = s.DeleteTriples(body)
		} else {
			_, err = s.InsertTriples(body)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readWG.Wait()
	s.WaitIdle()
	if s.Compactions() == 0 {
		t.Fatal("no compaction ran")
	}
	for _, h := range kept {
		if !slices.Equal(h.sn.st.ops, h.ops) {
			t.Fatalf("epoch %d: ops changed after publication", h.sn.Epoch())
		}
	}
	t.Logf("%d snapshots checked across %d compactions", len(kept), s.Compactions())
}
