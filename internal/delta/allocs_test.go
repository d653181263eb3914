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
// before, allocated about 2.1×.
func TestMaterializeAllocs(t *testing.T) {
	base := lubmBase()
	bytesAt := func(ops int) uint64 {
		s, prev, cur := afterCommits(t, base, ops)
		var least uint64
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			firstRead(s, prev, cur)
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < least {
				least = n
			}
		}
		return least
	}
	small, large := bytesAt(64), bytesAt(4032)
	t.Logf("first read after a commit: %d KB at 64 ops, %d KB at 4,032 (%.2f×)", small>>10, large>>10, float64(large)/float64(small))
	if float64(large) > 1.25*float64(small) {
		t.Errorf("first read at 4,032 ops allocates %d KB, over 1.25× the %d KB at 64", large>>10, small>>10)
	}
}
