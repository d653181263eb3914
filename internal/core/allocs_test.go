//go:build !race

// The race detector changes allocation counts, so these guards build only
// without it; run them with go test -run Allocs ./internal/core.

package core

import (
	"testing"

	"ogpa/internal/graph"
)

// TestAnswerSetAddDuplicateAllocs: adding an answer the set already holds
// only probes the index; it allocates nothing.
func TestAnswerSetAddDuplicateAllocs(t *testing.T) {
	s := NewAnswerSet()
	for i := 0; i < 1000; i++ {
		s.Add(Answer{graph.VID(i), Omitted})
	}
	a := Answer{500, Omitted}
	if n := testing.AllocsPerRun(100, func() {
		if s.Add(a) {
			t.Fatal("a duplicate was added")
		}
	}); n != 0 {
		t.Fatalf("Add of a duplicate allocates %v times, want 0", n)
	}
}
