package delta

import (
	"context"
	"fmt"
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
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	epoch := sn.Epoch()
	got := 0
	for got < want {
		if err := w.Await(ctx); err != nil {
			t.Fatalf("Await after %d batches: %v", got, err)
		}
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

// TestWatchCloseSemantics: Await returns ctx's error while nothing is
// pending, leaves pending batches queued, and they stay drainable after
// store close; Await then reports ErrClosed.
// A watcher registered on a closed store is born closed.
func TestWatchCloseSemantics(t *testing.T) {
	s := NewStore(baseGraph(), Config{CompactThreshold: -1})
	w, _ := s.Watch()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := w.Await(cancelled); err != context.Canceled {
		t.Fatalf("Await with nothing pending and ctx done: %v, want context.Canceled", err)
	}
	insert(t, s, "carl a Student .")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if err := w.Await(ctx); err != nil {
			t.Fatalf("Await %d after close: %v, want nil", i, err)
		}
	}
	if bs := w.Poll(); len(bs) != 1 {
		t.Fatalf("Poll after close drained %d batches, want 1", len(bs))
	}
	if err := w.Await(ctx); err != ErrClosed {
		t.Fatalf("Await after the drain: %v, want ErrClosed", err)
	}

	w2, _ := s.Watch()
	if err := w2.Await(ctx); err != ErrClosed {
		t.Fatalf("Await on watcher of closed store: %v, want ErrClosed", err)
	}
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
