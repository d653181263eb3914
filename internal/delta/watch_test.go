package delta

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ogpa/internal/graph"
)

// TestWatchOrderingConcurrent hammers one store with concurrent writers
// while a watcher drains: every committed batch must be observed exactly
// once, with consecutive epochs starting right after the registration
// snapshot — publish order, no gaps, no duplicates. Run under -race.
func TestWatchOrderingConcurrent(t *testing.T) {
	s := NewStore(baseGraph(), Config{CompactThreshold: -1})
	defer s.Close()

	w, sn := s.Watch()
	defer w.Close()

	const writers = 8
	const perWriter = 25
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				insert(t, s, fmt.Sprintf("w%d_%d a Student .", i, j))
			}
		}(i)
	}

	want := writers * perWriter
	deadline := time.Now().Add(30 * time.Second)
	epoch := sn.Epoch()
	got := 0
	for got < want {
		if time.Now().After(deadline) {
			t.Fatalf("drained %d of %d batches", got, want)
		}
		runtime.Gosched()
		for _, b := range w.Poll() {
			if b.Epoch != epoch+1 {
				t.Fatalf("epoch gap: got %d after %d", b.Epoch, epoch)
			}
			epoch = b.Epoch
			if b.Snap.Epoch() != b.Epoch {
				t.Fatalf("batch %d carries snapshot at epoch %d", b.Epoch, b.Snap.Epoch())
			}
			if len(b.Triples) != 1 || b.Del {
				t.Fatalf("batch %d: del=%v triples=%v, want one insertion", b.Epoch, b.Del, b.Triples)
			}
			got++
		}
	}
	wg.Wait()
	if s.Epoch() != epoch {
		t.Fatalf("store at epoch %d but watcher drained up to %d", s.Epoch(), epoch)
	}
}

// TestWatchNoTornReads checks that a batch's pinned snapshot contains
// exactly the writes up to its epoch: the batch's own triple is visible,
// and triples committed in later batches are not.
func TestWatchNoTornReads(t *testing.T) {
	s := NewStore(baseGraph(), Config{CompactThreshold: -1})
	defer s.Close()

	w, sn := s.Watch()
	defer w.Close()

	const n = 20
	for i := 0; i < n; i++ {
		insert(t, s, fmt.Sprintf("ind%d a Student .", i))
	}

	batches := w.Poll()
	if len(batches) != n {
		t.Fatalf("drained %d batches, want %d", len(batches), n)
	}
	for i, b := range batches {
		if b.Epoch != sn.Epoch()+uint64(i)+1 {
			t.Fatalf("batch %d at epoch %d, want %d", i, b.Epoch, sn.Epoch()+uint64(i)+1)
		}
		g := b.Snap.Graph()
		// Everything committed at or before this epoch is visible…
		for j := 0; j <= i; j++ {
			if g.VertexByName(fmt.Sprintf("ind%d", j)) == graph.NoVID {
				t.Fatalf("epoch %d view is missing ind%d", b.Epoch, j)
			}
		}
		// …and nothing committed after it is.
		for j := i + 1; j < n; j++ {
			if g.VertexByName(fmt.Sprintf("ind%d", j)) != graph.NoVID {
				t.Fatalf("epoch %d view leaks future write ind%d", b.Epoch, j)
			}
		}
	}
}

// TestWatchDeletionBatches checks Del marking and that deletions are
// reflected in the pinned view.
func TestWatchDeletionBatches(t *testing.T) {
	s := NewStore(baseGraph(), Config{CompactThreshold: -1})
	defer s.Close()

	w, _ := s.Watch()
	defer w.Close()

	insert(t, s, "carl a Student .")
	remove(t, s, "carl a Student .")

	bs := w.Poll()
	if len(bs) != 2 {
		t.Fatalf("drained %d batches, want 2", len(bs))
	}
	if bs[0].Del || !bs[1].Del {
		t.Fatalf("polarity: got del=%v,%v want false,true", bs[0].Del, bs[1].Del)
	}
	hasStudent := func(sn Snapshot) bool {
		g := sn.Graph()
		v := g.VertexByName("carl")
		if v == graph.NoVID {
			return false
		}
		l := g.Symbols.Lookup("Student")
		return g.HasLabel(v, l)
	}
	if !hasStudent(bs[0].Snap) {
		t.Fatal("insert batch view does not show carl as Student")
	}
	if hasStudent(bs[1].Snap) {
		t.Fatal("delete batch view still shows carl as Student")
	}
}

// TestWatchCloseSemantics: batches committed before the store closed
// stay queued and drain once through Poll after close; nothing commits
// after close. A watcher registered on a closed store receives nothing.
func TestWatchCloseSemantics(t *testing.T) {
	s := NewStore(baseGraph(), Config{CompactThreshold: -1})
	w, _ := s.Watch()
	if bs := w.Poll(); len(bs) != 0 {
		t.Fatalf("Poll with nothing committed drained %d batches", len(bs))
	}
	insert(t, s, "carl a Student .")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := s.InsertTriples(strings.NewReader("dana a Student .")); err != ErrClosed {
		t.Fatalf("insert after close: %v, want ErrClosed", err)
	}
	if bs := w.Poll(); len(bs) != 1 || bs[0].Epoch != s.Epoch() {
		t.Fatalf("Poll after close drained %d batches, want the one at epoch %d", len(bs), s.Epoch())
	}
	if bs := w.Poll(); len(bs) != 0 {
		t.Fatalf("second Poll after close drained %d batches, want 0", len(bs))
	}

	w2, sn := s.Watch()
	if bs := w2.Poll(); len(bs) != 0 || sn.Epoch() != s.Epoch() {
		t.Fatalf("watcher of a closed store: %d batches, snapshot at epoch %d of %d", len(bs), sn.Epoch(), s.Epoch())
	}
	w2.Close()
}

// TestWatchUnsubscribe: a closed watcher stops receiving without
// affecting its sibling.
func TestWatchUnsubscribe(t *testing.T) {
	s := NewStore(baseGraph(), Config{CompactThreshold: -1})
	defer s.Close()

	w1, _ := s.Watch()
	w2, _ := s.Watch()
	insert(t, s, "a1 a Student .")
	w1.Close()
	insert(t, s, "a2 a Student .")

	if bs := w1.Poll(); len(bs) != 0 {
		t.Fatalf("closed watcher drained %d batches, want 0", len(bs))
	}
	if bs := w2.Poll(); len(bs) != 2 {
		t.Fatalf("live watcher drained %d batches, want 2", len(bs))
	}
}
