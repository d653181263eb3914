//go:build !race

// The race detector changes allocation counts, so this guard builds only
// without it; run it with go test -run Allocs .

package ogpa

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// statsSink keeps TestStatsAllocs' result live.
var statsSink string

// TestStatsAllocs: Stats counts |D| on the snapshot graph, so its first
// call after a commit to a live KB allocates the same few objects, and
// bytes, at 300 assertions as at 12,000. A Stats that rebuilt the
// epoch's ABox for the count would allocate O(|D|) bytes.
func TestStatsAllocs(t *testing.T) {
	type cost struct{ objects, bytes uint64 }
	costAt := func(n int) cost {
		var data strings.Builder
		for i := range n {
			fmt.Fprintf(&data, "PhD(p%d)\nStudent(p%d)\nadvisorOf(f%d, p%d)\n", i, i, i%10, i)
		}
		kb, err := NewKB(strings.NewReader(exampleOntology), strings.NewReader(data.String()))
		if err != nil {
			t.Fatal(err)
		}
		defer enableLive(t, kb).Close()
		var least cost
		for i := range 5 {
			if _, err := kb.InsertTriples(strings.NewReader(fmt.Sprintf("x%d a PhD .", i))); err != nil {
				t.Fatal(err)
			}
			kb.Graph() // the epoch's graph is built outside the measurement
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			statsSink = kb.Stats()
			runtime.ReadMemStats(&after)
			c := cost{after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc}
			if i == 0 || c.objects < least.objects {
				least = c
			}
		}
		return least
	}
	// Formatting boxes each figure over 255 into an interface, so the
	// larger KB may take a few more, equally small, objects.
	small, large := costAt(100), costAt(4000)
	t.Logf("first Stats after a commit: %d objects (%d B) at |D|=300, %d (%d B) at |D|=12,000", small.objects, small.bytes, large.objects, large.bytes)
	if large.objects > small.objects+4 || large.bytes > small.bytes+256 {
		t.Errorf("first Stats after a commit allocates %d objects (%d B) at |D|=12,000 and %d (%d B) at |D|=300; want a small constant", large.objects, large.bytes, small.objects, small.bytes)
	}
}
