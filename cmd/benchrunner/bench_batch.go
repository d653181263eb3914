package main

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"ogpa"
	"ogpa/internal/testkb"
)

// The batch suite prices the admission/MQO tier on the workload it was
// built for: a burst of shape-sharing conjunctive queries against one
// knowledge base. The workload's 4 distinct LUBM random-walk queries ×
// 8 copies = 32 members, the default -batch-max; sequential answers
// each alone, batched compiles one run per shape group and replays. The
// wall-clock win is enforced — if batching ever loses to 32 sequential
// runs on its home workload, the run fails.

// batchFixture is the KB + query strings shared by the batch rows.
type batchFixture struct {
	kb      *ogpa.KB
	queries []string
}

func buildBatchFixture(w *benchWorkload) (*batchFixture, error) {
	onto, data := testkb.Render(w.tbox, w.abox)
	kb, err := ogpa.NewKB(strings.NewReader(onto), strings.NewReader(data))
	if err != nil {
		return nil, err
	}
	base := make([]string, 0, len(w.queries))
	for _, q := range w.queries {
		base = append(base, q.String())
	}
	// Copies of each distinct query, interleaved the way concurrent
	// clients would arrive, up to the default -batch-max of 32.
	var queries []string
	for len(queries) < 32 {
		queries = append(queries, base[len(queries)%len(base)])
	}
	return &batchFixture{kb: kb, queries: queries}, nil
}

// benchBatchSequential: one op = 32 queries through the sequential
// answer path, each rewriting and matching alone.
func (f *batchFixture) benchBatchSequential() func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, src := range f.queries {
				if _, err := f.kb.AnswerWithOptions(src, ogpa.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// benchBatchShared: one op = the same 32 queries through AnswerBatch —
// one snapshot pin, one engine run per shape group, per-member replay.
// No cache: this row isolates MQO sharing from memoization.
func (f *batchFixture) benchBatchShared() func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			results, st := f.kb.AnswerBatchCached(f.queries, ogpa.Options{}, nil)
			for _, r := range results {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
			if st.Groups >= len(f.queries) {
				b.Fatalf("no sharing: %d groups for %d queries", st.Groups, len(f.queries))
			}
		}
	}
}

// benchBatchMemoized: one op = the 32 queries against a warmed answer
// memo — the steady state of a server replaying a dashboard's refresh.
// Every member must hit (the fixture is read-only, so the epoch never
// moves); the hit rate is enforced at 100%.
func (f *batchFixture) benchBatchMemoized() func(*testing.B) {
	cache := newBenchBatchCache()
	if results, _ := f.kb.AnswerBatchCached(f.queries, ogpa.Options{}, cache); results != nil {
		for _, r := range results {
			if r.Err != nil {
				return func(b *testing.B) { b.Fatal(r.Err) }
			}
		}
	}
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, st := f.kb.AnswerBatchCached(f.queries, ogpa.Options{}, cache)
			if st.MemoHits != len(f.queries) {
				b.Fatalf("memo hit rate %d/%d, want 100%%", st.MemoHits, len(f.queries))
			}
		}
	}
}

// benchBatchCache is the benchmark's BatchCache: plain maps, no
// eviction, no locking (the benchmark is single-goroutine).
type benchBatchCache struct {
	plans   map[string]any
	answers map[string][][]string
}

func newBenchBatchCache() *benchBatchCache {
	return &benchBatchCache{plans: map[string]any{}, answers: map[string][][]string{}}
}

func (c *benchBatchCache) GetPlan(key string) any       { return c.plans[key] }
func (c *benchBatchCache) PutPlan(key string, plan any) { c.plans[key] = plan }
func (c *benchBatchCache) GetAnswers(key string) ([][]string, bool) {
	rows, ok := c.answers[key]
	return rows, ok
}
func (c *benchBatchCache) PutAnswers(key string, rows [][]string) { c.answers[key] = rows }

// batchSuite returns the batching rows.
func batchSuite(f *batchFixture) []namedBench {
	return []namedBench{
		{"BenchmarkBatch32/sequential", f.benchBatchSequential()},
		{"BenchmarkBatch32/batched", f.benchBatchShared()},
		{"BenchmarkBatch32/memoized", f.benchBatchMemoized()},
	}
}

// checkBatchRows enforces the tier's reason to exist: batching 32
// shape-sharing queries must strictly beat answering them one by one,
// and the warm memo must strictly beat both.
func checkBatchRows(results []benchResult) error {
	var sequential, batched, memoized float64
	for _, r := range results {
		switch r.Name {
		case "BenchmarkBatch32/sequential":
			sequential = r.NsPerOp
		case "BenchmarkBatch32/batched":
			batched = r.NsPerOp
		case "BenchmarkBatch32/memoized":
			memoized = r.NsPerOp
		}
	}
	if sequential == 0 || batched == 0 || memoized == 0 {
		return fmt.Errorf("batch rows missing from benchmark results")
	}
	if batched >= sequential {
		return fmt.Errorf("batched 32-query workload (%.0f ns/op) not faster than sequential (%.0f ns/op)", batched, sequential)
	}
	if memoized >= batched {
		return fmt.Errorf("memoized pass (%.0f ns/op) not faster than cold batch (%.0f ns/op)", memoized, batched)
	}
	fmt.Fprintf(os.Stderr, "batch32: batched %.1fx faster than sequential, warm memo %.1fx faster still\n",
		sequential/batched, batched/memoized)
	return nil
}
