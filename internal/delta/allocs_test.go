//go:build !race

// The race detector changes allocation counts, so this guard builds only
// without it; run it with go test -run Allocs ./internal/delta.

package delta

import (
	"runtime"
	"testing"
)

// TestMaterializeAllocs: the first Graph() after a 64-triple commit
// builds on the previous epoch's graph, so its bytes do not grow with the
// overlay. At about 4,000 ops it may allocate at most 1.25× what it does
// at 64; replaying the whole overlay from the base, as each epoch did
// before, allocated about 2.1×. At 64 ops it may allocate at most
// maxMaterializeObjects objects: writing through cloned rows allocates
// about 150, where logging the batch in per-vertex patch maps and merging
// them at Freeze allocated 472.
func TestMaterializeAllocs(t *testing.T) {
	const maxMaterializeObjects = 180
	base := lubmBase()
	allocsAt := func(ops int) (bytes, objects uint64) {
		s, prev, cur := afterCommits(t, base, ops)
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			firstRead(s, prev, cur)
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < bytes {
				bytes = n
			}
			if n := after.Mallocs - before.Mallocs; i == 0 || n < objects {
				objects = n
			}
		}
		return bytes, objects
	}
	small, objects := allocsAt(64)
	large, _ := allocsAt(4032)
	t.Logf("first read after a commit: %d KB and %d objects at 64 ops, %d KB at 4,032 (%.2f×)",
		small>>10, objects, large>>10, float64(large)/float64(small))
	if float64(large) > 1.25*float64(small) {
		t.Errorf("first read at 4,032 ops allocates %d KB, over 1.25× the %d KB at 64", large>>10, small>>10)
	}
	if objects > maxMaterializeObjects {
		t.Errorf("first read at 64 ops allocates %d objects, over %d", objects, maxMaterializeObjects)
	}
}
