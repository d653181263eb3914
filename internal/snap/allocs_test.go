//go:build !race

// The race detector changes allocation counts, so this guard builds only
// without it; run it with go test -run Allocs ./internal/snap.

package snap

import (
	"path/filepath"
	"testing"

	"ogpa/internal/gen"
)

// TestLoadSnapshotAllocs: loading a LUBM(6) snapshot allocates 146
// objects, because each row section decodes into one arena and the
// indexes are built in one pass. The bound allows 5 % over that; an
// allocation per row or per element breaks it.
func TestLoadSnapshotAllocs(t *testing.T) {
	const maxLoadAllocs = 153
	g := gen.LUBM(gen.LUBMConfig{Universities: 6, Seed: 1}).Graph()
	path := filepath.Join(t.TempDir(), "lubm6.snap")
	if err := SaveSnapshot(path, g, 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := LoadSnapshot(path); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("LoadSnapshot of LUBM(6) (|V|=%d, |E|=%d): %.0f allocs", g.NumVertices(), g.NumEdges(), allocs)
	if allocs > maxLoadAllocs {
		t.Errorf("LoadSnapshot allocates %.0f objects, over %d", allocs, maxLoadAllocs)
	}
}
