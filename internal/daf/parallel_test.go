package daf

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"ogpa/internal/core"
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

// TestEvalUCQParallelEquivalence: the disjunct fan-out of EvalUCQ
// through the engine's worker pool must agree with the sequential path — identical answers in
// identical order, same Truncated flag — and under MaxResults both must
// stop at exactly the limit with answers drawn from the full set.
func TestEvalUCQParallelEquivalence(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, qs := randomUCQInstance(rng)

		seqRes, seqSt, err := EvalUCQ(qs, g, Options{Workers: 1})
		if err != nil {
			t.Fatalf("seed %d: sequential: %v", seed, err)
		}
		full := make(map[string]bool, seqRes.Len())
		for _, a := range seqRes.Answers() {
			full[fmt.Sprint(a)] = true
		}
		for _, workers := range []int{0, 2, 4} {
			parRes, parSt, err := EvalUCQ(qs, g, Options{Workers: workers})
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
			res, st, err := EvalUCQ(qs, g, Options{Limits: Limits{MaxResults: limit}, Workers: workers})
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

// bipartiteUnion is a union of eight copies of q(x) :- p(x, y) over a
// complete 30×30 bipartite p-graph: every disjunct finds the same 30
// answers, so the union's work is eight times one disjunct's. A disjunct
// takes fewer steps than a runtime accumulates before it flushes them to
// the shared budget.
func bipartiteUnion() (*graph.Graph, []*cq.Query) {
	b := graph.NewBuilder(nil)
	for i := 0; i < 30; i++ {
		for j := 0; j < 30; j++ {
			b.AddEdge(fmt.Sprintf("l%d", i), "p", fmt.Sprintf("r%d", j))
		}
	}
	var qs []*cq.Query
	for d := 0; d < 8; d++ {
		qs = append(qs, cq.MustParse(`q(x) :- p(x, y)`))
	}
	return b.Freeze(), qs
}

// TestEvalUCQSharedBudget pins the budget a union shares across its
// disjuncts, through EvalUCQ and a prepared union, at workers 1 and 4.
// MaxSteps bounds the whole union: a budget that lets any one disjunct
// finish stops the union with ErrLimit. A context canceled before the
// run gives an empty, truncated answer and no error.
func TestEvalUCQSharedBudget(t *testing.T) {
	g, qs := bipartiteUnion()
	one, st, err := EvalCQ(qs[0], g, Options{Workers: 1})
	if err != nil || one.Len() != 30 {
		t.Fatalf("one disjunct: %d answers, err %v", one.Len(), err)
	}
	maxSteps := st.Steps + 10
	if _, _, err := EvalCQ(qs[0], g, Options{Limits: Limits{MaxSteps: maxSteps}, Workers: 1}); err != nil {
		t.Fatalf("one disjunct under MaxSteps %d: %v", maxSteps, err)
	}
	pu, err := PrepareUCQ(qs, g)
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	runs := map[string]func(Options) (*core.AnswerSet, Stats, error){
		"EvalUCQ":  func(o Options) (*core.AnswerSet, Stats, error) { return EvalUCQ(qs, g, o) },
		"prepared": pu.Run,
	}
	for name, run := range runs {
		for _, workers := range []int{1, 4} {
			res, st, err := run(Options{Workers: workers})
			if err != nil || res.Len() != 30 || st.Truncated || st.Steps <= 4*maxSteps {
				t.Fatalf("%s workers %d, no limit: %d answers, %d steps, truncated %v, err %v",
					name, workers, res.Len(), st.Steps, st.Truncated, err)
			}
			_, st, err = run(Options{Limits: Limits{MaxSteps: maxSteps}, Workers: workers})
			if err != ErrLimit || !st.Truncated {
				t.Fatalf("%s workers %d, MaxSteps %d: err %v, truncated %v; want ErrLimit over the whole union",
					name, workers, maxSteps, err, st.Truncated)
			}
			res, st, err = run(Options{Limits: Limits{Ctx: canceled}, Workers: workers})
			if err != nil || res.Len() != 0 || !st.Truncated {
				t.Fatalf("%s workers %d, canceled context: %d answers, truncated %v, err %v",
					name, workers, res.Len(), st.Truncated, err)
			}
		}
	}
}

// cancelAfter is a context whose Err is nil for its first n calls and
// context.Canceled from then on.
type cancelAfter struct {
	context.Context
	n atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestEvalUCQCanceledMidUnion: a context canceled while a union runs
// keeps the disjuncts not yet started from running, however few steps
// each takes. The context's Err is nil for two calls, the check before
// the run and the one before the first disjunct; each disjunct here ends
// long before a running search polls the context, so exactly one
// disjunct runs, at workers 1 and 4, and the answer is a clean
// truncation.
func TestEvalUCQCanceledMidUnion(t *testing.T) {
	b := graph.NewBuilder(nil)
	var qs []*cq.Query
	for d := 0; d < 8; d++ {
		b.AddLabel(fmt.Sprintf("a%d", d), fmt.Sprintf("A%d", d))
		qs = append(qs, cq.MustParse(fmt.Sprintf("q(x) :- A%d(x)", d)))
	}
	g := b.Freeze()
	pu, err := PrepareUCQ(qs, g)
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]func(Options) (*core.AnswerSet, Stats, error){
		"EvalUCQ":  func(o Options) (*core.AnswerSet, Stats, error) { return EvalUCQ(qs, g, o) },
		"prepared": pu.Run,
	}
	for name, run := range runs {
		for _, workers := range []int{1, 4} {
			all, _, err := run(Options{Workers: workers})
			if err != nil || all.Len() != len(qs) {
				t.Fatalf("%s workers %d, no limit: %d answers, err %v", name, workers, all.Len(), err)
			}
			ctx := &cancelAfter{Context: context.Background()}
			ctx.n.Store(2)
			res, st, err := run(Options{Limits: Limits{Ctx: ctx}, Workers: workers})
			if err != nil || res.Len() != 1 || !st.Truncated {
				t.Fatalf("%s workers %d, canceled after one disjunct: answers %v, truncated %v, err %v",
					name, workers, res.Names(g), st.Truncated, err)
			}
			if got := fmt.Sprint(res.Names(g)); workers == 1 && got != "[a0]" {
				t.Fatalf("%s workers 1, canceled after one disjunct: answers %s, want [a0]", name, got)
			}
		}
	}
}

// TestConcurrentMatchPreparedUCQ: the server shares a cached union plan
// between requests, so concurrent Runs of one prepared union, at mixed
// worker counts, must each return exactly the sequential rows (run it
// under -race).
func TestConcurrentMatchPreparedUCQ(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, qs := randomUCQInstance(rng)
		pu, err := PrepareUCQ(qs, g)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, _, err := pu.Run(Options{Workers: 1})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var wg sync.WaitGroup
		errs := make([]error, 8)
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, _, err := pu.Run(Options{Workers: 1 + i%4})
				if err == nil && !reflect.DeepEqual(got.Answers(), want.Answers()) {
					err = fmt.Errorf("rows %v, want %v", got.Names(g), want.Names(g))
				}
				errs[i] = err
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("seed %d run %d: %v", seed, i, err)
			}
		}
	}
}
