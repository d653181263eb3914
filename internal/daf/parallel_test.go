package daf

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ogpa/internal/cq"
	"ogpa/internal/graph"
)

// randomUCQInstance builds a random graph plus a handful of random CQ
// disjuncts over its vocabulary — enough overlap that disjuncts share
// answers and the cross-disjunct deduplication actually fires.
func randomUCQInstance(rng *rand.Rand) (*graph.Graph, []*cq.Query) {
	labels := []string{"A", "B", "C"}
	roles := []string{"p", "q", "r"}
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	b := graph.NewBuilder(nil)
	n := 6 + rng.Intn(6)
	name := func(i int) string { return fmt.Sprintf("v%d", i) }
	for i := 0; i < n; i++ {
		b.AddLabel(name(i), pick(labels))
	}
	for i := 0; i < 2*n; i++ {
		b.AddEdge(name(rng.Intn(n)), pick(roles), name(rng.Intn(n)))
	}
	g := b.Freeze()

	var qs []*cq.Query
	for d := 0; d < 2+rng.Intn(5); d++ {
		vars := []string{"x", "y", "z"}
		var atoms []string
		for i := 0; i < 1+rng.Intn(2); i++ {
			a, b := vars[rng.Intn(i+1)], vars[i+1]
			atoms = append(atoms, fmt.Sprintf("%s(%s, %s)", pick(roles), a, b))
		}
		if rng.Intn(2) == 0 {
			atoms = append(atoms, fmt.Sprintf("%s(x)", pick(labels)))
		}
		src := "q(x) :- " + atoms[0]
		for _, a := range atoms[1:] {
			src += ", " + a
		}
		qs = append(qs, cq.MustParse(src))
	}
	return g, qs
}

// TestEvalUCQParallelEquivalence: the disjunct-level worker pool in
// EvalUCQ must agree with the sequential path — identical answers in
// identical order, same Truncated flag — and under MaxResults both must
// stop at exactly the limit with answers drawn from the full set.
func TestEvalUCQParallelEquivalence(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, qs := randomUCQInstance(rng)

		seqRes, seqSt, err := EvalUCQ(qs, g, Limits{Workers: 1})
		if err != nil {
			t.Fatalf("seed %d: sequential: %v", seed, err)
		}
		full := make(map[string]bool, seqRes.Len())
		for _, a := range seqRes.Answers() {
			full[fmt.Sprint(a)] = true
		}
		for _, workers := range []int{0, 2, 4} {
			parRes, parSt, err := EvalUCQ(qs, g, Limits{Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if seqSt.Truncated != parSt.Truncated {
				t.Fatalf("seed %d workers %d: Truncated %v vs %v",
					seed, workers, parSt.Truncated, seqSt.Truncated)
			}
			if fmt.Sprint(parRes.Names(g)) != fmt.Sprint(seqRes.Names(g)) {
				t.Fatalf("seed %d workers %d:\nsequential %v\nparallel   %v",
					seed, workers, seqRes.Names(g), parRes.Names(g))
			}
			if !reflect.DeepEqual(parRes.Answers(), seqRes.Answers()) {
				t.Fatalf("seed %d workers %d: insertion order differs:\nsequential %v\nparallel   %v",
					seed, workers, seqRes.Answers(), parRes.Answers())
			}
		}

		if seqRes.Len() < 2 {
			continue
		}
		limit := 1 + int(seed)%seqRes.Len()
		for _, workers := range []int{1, 4} {
			res, st, err := EvalUCQ(qs, g, Limits{MaxResults: limit, Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers %d limit %d: %v", seed, workers, limit, err)
			}
			if res.Len() != limit || !st.Truncated {
				t.Fatalf("seed %d workers %d limit %d: len=%d truncated=%v",
					seed, workers, limit, res.Len(), st.Truncated)
			}
			for _, a := range res.Answers() {
				if !full[fmt.Sprint(a)] {
					t.Fatalf("seed %d workers %d limit %d: answer %v outside full set",
						seed, workers, limit, a)
				}
			}
		}
	}
}
