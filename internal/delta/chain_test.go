package delta

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ogpa/internal/graph"
	"ogpa/internal/rdf"
	"ogpa/internal/snap"
)

// The random scripts' vocabulary: vertices c0–c4 start in the base,
// c5–c9 are new; attribute values come from small sets, so deletions
// often name a value the vertex does not hold.
var (
	chainLabels = []string{"A", "B", "C"}
	chainRoles  = []string{"p", "q"}
)

func chainVertex(i int) string { return fmt.Sprintf("c%d", i) }

func chainBase() *graph.Graph {
	b := graph.NewBuilder(nil)
	for i := 0; i < 5; i++ {
		v := chainVertex(i)
		b.AddLabel(v, chainLabels[i%len(chainLabels)])
		b.AddEdge(v, chainRoles[i%len(chainRoles)], chainVertex((i+1)%5))
		if i%2 == 0 {
			b.SetAttr(v, "age", graph.Int(int64(20+i)))
		}
	}
	return b.Freeze()
}

// randomTriple draws a label, edge or attribute triple over the chain
// vocabulary.
func randomTriple(rng *rand.Rand) rdf.Triple {
	s := chainVertex(rng.Intn(10))
	switch rng.Intn(4) {
	case 0:
		return rdf.Triple{Subject: s, Predicate: rdf.TypePredicate, Object: chainLabels[rng.Intn(len(chainLabels))]}
	case 1:
		return rdf.Triple{Subject: s, Predicate: "age", Kind: rdf.ObjectInt, Int: int64(20 + rng.Intn(4))}
	case 2:
		return rdf.Triple{Subject: s, Predicate: "tag", Kind: rdf.ObjectString, Object: []string{"x", "y"}[rng.Intn(2)]}
	default:
		return rdf.Triple{Subject: s, Predicate: chainRoles[rng.Intn(len(chainRoles))], Object: chainVertex(rng.Intn(10))}
	}
}

// randomBatch draws one batch: an insertion of fresh random triples, or
// a deletion mixing triples inserted earlier (often in the batch just
// before) with random ones, which may be absent.
func randomBatch(rng *rand.Rand, inserted []rdf.Triple) (bool, []rdf.Triple) {
	del := rng.Intn(3) == 0
	n := 1 + rng.Intn(6)
	ts := make([]rdf.Triple, n)
	for i := range ts {
		if del && len(inserted) > 0 && rng.Intn(2) == 0 {
			back := min(len(inserted), 1+rng.Intn(8))
			ts[i] = inserted[len(inserted)-back]
		} else {
			ts[i] = randomTriple(rng)
		}
	}
	return del, ts
}

func nTriples(t *testing.T, ts []rdf.Triple) *bytes.Buffer {
	t.Helper()
	var b bytes.Buffer
	for _, tr := range ts {
		if err := rdf.WriteTriple(&b, tr); err != nil {
			t.Fatal(err)
		}
	}
	return &b
}

// replay applies every op in one overlay over base: the materialization
// every epoch had before graphs were built from the newest built one.
func replay(base *graph.Graph, ops []op) *graph.Graph {
	ov := graph.NewOverlay(base)
	for _, o := range ops {
		rdf.ApplyTriple(ov, o.t, o.del, nil)
	}
	return ov.Freeze()
}

// sameGraph fails unless got and want hold the same content under the
// same VIDs and agree on every index the engine reads.
func sameGraph(t *testing.T, epoch uint64, got, want *graph.Graph) {
	t.Helper()
	if !reflect.DeepEqual(got.Compacted().Arrays(), want.Compacted().Arrays()) {
		t.Fatalf("epoch %d: arrays differ:\n got %s\nwant %s", epoch, dumpGraph(got), dumpGraph(want))
	}
	for i := 0; i < 10; i++ {
		if g, w := got.VertexByName(chainVertex(i)), want.VertexByName(chainVertex(i)); g != w {
			t.Fatalf("epoch %d: VertexByName(%s) = %d, replay %d", epoch, chainVertex(i), g, w)
		}
	}
	for _, name := range chainLabels {
		l := got.Symbols.Lookup(name)
		if g, w := got.VerticesByLabel(l), want.VerticesByLabel(l); !slices.Equal(g, w) {
			t.Fatalf("epoch %d: bucket %s = %v, replay %v", epoch, name, g, w)
		}
	}
	if got.NumEdges() != want.NumEdges() || got.DistinctEdgeLabels() != want.DistinctEdgeLabels() ||
		got.DistinctVertexLabels() != want.DistinctVertexLabels() {
		t.Fatalf("epoch %d: |E| %d, %d edge labels, %d vertex labels; replay %d, %d, %d", epoch,
			got.NumEdges(), got.DistinctEdgeLabels(), got.DistinctVertexLabels(),
			want.NumEdges(), want.DistinctEdgeLabels(), want.DistinctVertexLabels())
	}
	for _, name := range chainRoles {
		l := got.Symbols.Lookup(name)
		if g, w := got.EdgeLabelFrequency(l), want.EdgeLabelFrequency(l); g != w {
			t.Fatalf("epoch %d: %d %s edges, replay %d", epoch, g, name, w)
		}
	}
}

// TestChainedMaterializeMatchesReplay: a graph built from the newest
// built epoch must equal a replay of the whole log over the first base,
// at every epoch. Random scripts commit label, edge and attribute
// inserts and deletes (new vertices, absent triples, a triple inserted
// then deleted, attribute deletions naming another value) on a durable
// store with a small compaction threshold, with explicit compactions and
// checkpoints between commits, while two readers build random epochs,
// older ones included.
func TestChainedMaterializeMatchesReplay(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			base := chainBase()
			dir := t.TempDir()
			snapPath := filepath.Join(dir, "base.snap")
			if err := snap.SaveSnapshot(snapPath, base, 1); err != nil {
				t.Fatal(err)
			}
			wal, _, err := snap.OpenWAL(filepath.Join(dir, "delta.wal"))
			if err != nil {
				t.Fatal(err)
			}
			s := NewStore(base, Config{CompactThreshold: 24, WAL: wal, SnapshotPath: snapPath})
			defer s.Close()

			// epochs lists every view with how many ops of log it holds;
			// the readers see about half of them (shared), so the rest
			// are first built at the end, late and after compactions.
			type epoch struct {
				sn  Snapshot
				ops int
			}
			epochs := []epoch{{sn: s.Snapshot()}}
			var (
				mu     sync.Mutex
				shared = []Snapshot{s.Snapshot()}
				done   = make(chan struct{})
				wg     sync.WaitGroup
			)
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func(rng *rand.Rand) {
					defer wg.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						mu.Lock()
						sn := shared[len(shared)-1]
						if rng.Intn(2) == 0 {
							sn = shared[rng.Intn(len(shared))]
						}
						mu.Unlock()
						sn.Graph()
					}
				}(rand.New(rand.NewSource(seed*100 + int64(r))))
			}

			var log []op // every committed op, in commit order
			var inserted []rdf.Triple
			for i := 0; i < 80; i++ {
				switch rng.Intn(10) {
				case 0:
					s.Compact()
				case 1:
					if _, err := s.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				del, ts := randomBatch(rng, inserted)
				var err error
				if del {
					_, err = s.DeleteTriples(nTriples(t, ts))
				} else {
					_, err = s.InsertTriples(nTriples(t, ts))
					inserted = append(inserted, ts...)
				}
				if err != nil {
					t.Fatal(err)
				}
				for _, tr := range ts {
					log = append(log, op{del: del, t: tr})
				}
				sn := s.Snapshot()
				epochs = append(epochs, epoch{sn: sn, ops: len(log)})
				switch rng.Intn(3) {
				case 0:
					sn.Graph()
				case 1:
					mu.Lock()
					shared = append(shared, sn)
					mu.Unlock()
				}
			}
			close(done)
			wg.Wait()

			for _, i := range rng.Perm(len(epochs)) {
				e := epochs[i]
				sameGraph(t, e.sn.Epoch(), e.sn.Graph(), replay(base, log[:e.ops]))
			}
		})
	}
}

// TestBuiltFollowsBase: the newest built state moves forward with reads
// and to the new base on compaction; a late read of an epoch over the
// old base builds from that base and leaves the pointer where it is, so
// no graph over the old base stays reachable from the store.
func TestBuiltFollowsBase(t *testing.T) {
	s := NewStore(baseGraph(), Config{CompactThreshold: -1})
	insert(t, s, "carl a Student .")
	old := s.Snapshot() // never read before the compaction
	insert(t, s, "dana a Student .")
	s.Snapshot().Graph()
	if s.built.Load() != s.cur.Load() {
		t.Fatal("a read of the newest epoch left the built pointer behind")
	}

	s.Compact()
	if b := s.built.Load(); b.base != s.cur.Load().base || len(b.ops) != 0 {
		t.Fatal("compaction left the built pointer on the old base")
	}
	if g := old.Graph(); g.VertexByName("carl") == graph.NoVID || g.VertexByName("dana") != graph.NoVID {
		t.Fatal("late read of an old-base epoch has the wrong content")
	}
	if s.built.Load().base != s.cur.Load().base {
		t.Fatal("a late read of an old-base epoch moved the built pointer back")
	}

	insert(t, s, "erin a Student .")
	if g := s.Snapshot().Graph(); g.VertexByName("erin") == graph.NoVID || g.VertexByName("dana") == graph.NoVID {
		t.Fatal("first read after the compaction lost content")
	}
	if s.built.Load() != s.cur.Load() {
		t.Fatal("the built pointer did not follow reads over the new base")
	}
}
