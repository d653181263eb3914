package match

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"ogpa/internal/daf"
	"ogpa/internal/perfectref"
	"ogpa/internal/rewrite"
	"ogpa/internal/snap"
)

// TestSnapshotReloadEquivalence is the persistence-layer end of the
// equivalence property: for 100 randomKB seeds, answering on a graph
// that took a save/load round trip through the binary snapshot format
// must be byte-identical to answering on the in-memory original — on
// BOTH pipelines (GenOGP+OMatch and the PerfectRef UCQ baseline). This
// is what pins symbol-ID and VID stability across the format: any
// remapping would surface as renamed or reordered answer rows.
func TestSnapshotReloadEquivalence(t *testing.T) {
	dir := t.TempDir()
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb, abox, q := randomKB(rng)
		g := abox.Graph(nil)

		path := filepath.Join(dir, "kb.snap")
		if err := snap.SaveSnapshot(path, g, uint64(seed)+1); err != nil {
			t.Fatalf("seed %d: SaveSnapshot: %v", seed, err)
		}
		rg, epoch, err := snap.LoadSnapshot(path)
		if err != nil {
			t.Fatalf("seed %d: LoadSnapshot: %v", seed, err)
		}
		if epoch != uint64(seed)+1 {
			t.Fatalf("seed %d: epoch %d survived as %d", seed, seed+1, epoch)
		}

		res, err := rewrite.Generate(q, tb)
		if err != nil {
			t.Fatalf("seed %d: Generate: %v", seed, err)
		}
		ogpMem, _, err := Match(res.Pattern, g, Options{})
		if err != nil {
			t.Fatalf("seed %d: Match (mem): %v", seed, err)
		}
		ogpSnap, _, err := Match(res.Pattern, rg, Options{})
		if err != nil {
			t.Fatalf("seed %d: Match (snap): %v", seed, err)
		}
		if !reflect.DeepEqual(ogpMem.Names2D(g), ogpSnap.Names2D(rg)) {
			t.Fatalf("seed %d: OMatch diverged across snapshot reload: %v vs %v (query %s)",
				seed, ogpMem.Names2D(g), ogpSnap.Names2D(rg), q)
		}

		u, err := perfectref.Rewrite(q, tb, perfectref.Limits{MaxQueries: 5000})
		if err != nil {
			t.Fatalf("seed %d: PerfectRef: %v", seed, err)
		}
		ucqMem, _, err := daf.EvalUCQ(u.Queries, g, daf.Options{})
		if err != nil {
			t.Fatalf("seed %d: EvalUCQ (mem): %v", seed, err)
		}
		ucqSnap, _, err := daf.EvalUCQ(u.Queries, rg, daf.Options{})
		if err != nil {
			t.Fatalf("seed %d: EvalUCQ (snap): %v", seed, err)
		}
		if !reflect.DeepEqual(ucqMem.Names2D(g), ucqSnap.Names2D(rg)) {
			t.Fatalf("seed %d: UCQ baseline diverged across snapshot reload: %v vs %v (query %s)",
				seed, ucqMem.Names2D(g), ucqSnap.Names2D(rg), q)
		}
	}
}
