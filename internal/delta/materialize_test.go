package delta

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ogpa/internal/gen"
	"ogpa/internal/graph"
)

// lubmBase is LUBM(48) (|V| = 9,383), the size of the benchmark's KB.
func lubmBase() *graph.Graph {
	return gen.LUBM(gen.LUBMConfig{Universities: 48, Seed: 1}).ABox.Graph(nil)
}

// lubmBatch renders 64 triples the way the benchmark's mutation batches
// do: 16 new graduate students, each with a type, a department, a course
// and an advisor drawn from base.
func lubmBatch(base *graph.Graph, k int) string {
	pick := func(rng *rand.Rand, label string) string {
		vs := base.VerticesByLabel(base.Symbols.Lookup(label))
		return base.Name(vs[rng.Intn(len(vs))])
	}
	rng := rand.New(rand.NewSource(int64(k)))
	var b strings.Builder
	for i := 0; i < 16; i++ {
		s := fmt.Sprintf("bench.b%d.s%d", k, i)
		fmt.Fprintf(&b, "%s a GraduateStudent .\n", s)
		fmt.Fprintf(&b, "%s memberOf %s .\n", s, pick(rng, "Department"))
		fmt.Fprintf(&b, "%s takesCourse %s .\n", s, pick(rng, "GraduateCourse"))
		fmt.Fprintf(&b, "%s advisor %s .\n", s, pick(rng, "FullProfessor"))
	}
	return b.String()
}

// afterCommits returns a store over base holding ops overlay ops (a
// multiple of 64), with the epoch before the last commit built — what
// the first read after a commit finds — and the states of both epochs.
func afterCommits(tb testing.TB, base *graph.Graph, ops int) (s *Store, prev, cur *state) {
	s = NewStore(base, Config{CompactThreshold: -1})
	for k := 0; k < ops/64; k++ {
		if k == ops/64-1 {
			s.Snapshot().Graph()
			prev = s.built.Load()
		}
		if _, err := s.InsertTriples(strings.NewReader(lubmBatch(base, k))); err != nil {
			tb.Fatal(err)
		}
	}
	return s, prev, s.cur.Load()
}

// firstRead materializes cur afresh as its first read after the commit
// does, with prev the newest built state.
func firstRead(s *Store, prev, cur *state) *graph.Graph {
	s.built.Store(prev)
	return s.newState(cur.epoch, cur.base, cur.ops).graphNow()
}

var sinkGraph *graph.Graph

// BenchmarkMaterialize times the first Graph() after a 64-triple commit
// on LUBM(48), at three overlay lengths: built from the previous epoch's
// graph, its cost is one batch's whatever the length.
func BenchmarkMaterialize(b *testing.B) {
	base := lubmBase()
	for _, ops := range []int{64, 1024, 4032} {
		b.Run(fmt.Sprintf("ops=%d", ops), func(b *testing.B) {
			s, prev, cur := afterCommits(b, base, ops)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkGraph = firstRead(s, prev, cur)
			}
		})
	}
}
