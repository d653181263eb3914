package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"ogpa/internal/core"
	"ogpa/internal/cq"
	"ogpa/internal/daf"
	"ogpa/internal/dllite"
	"ogpa/internal/gen"
	"ogpa/internal/graph"
	"ogpa/internal/match"
	"ogpa/internal/perfectref"
	"ogpa/internal/qgen"
	"ogpa/internal/rewrite"
)

// benchResult is one row of the machine-readable benchmark report
// (-bench-out; the reports of earlier PRs are kept in history/): the same
// three numbers `go test -bench -benchmem` prints, in a form CI and
// plotting scripts can diff across commits.
type benchResult struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
}

// benchWorkload is the shared fixture for the JSON benchmark suite: a
// LUBM-scale graph plus rewritten patterns, mirroring the repo-root
// Fig. 4 benchmarks (bench_test.go) at the same laptop scale. The raw
// (pre-rewrite) queries are kept so the DAF front-end of the shared
// engine is measured on the same workload.
type benchWorkload struct {
	g        *graph.Graph
	abox     *dllite.ABox
	tbox     *dllite.TBox
	queries  []*cq.Query
	patterns []*core.Pattern
}

func buildBenchWorkload(seed int64) (*benchWorkload, error) {
	d := gen.LUBM(gen.LUBMConfig{Universities: 6, Seed: seed})
	g := d.Graph()
	cfg := qgen.DefaultConfig(8, 8*101+1) // same query seeds as bench_test.go
	cfg.Count = 4
	qs := qgen.RandomWalk(g, d.TBox, cfg)
	w := &benchWorkload{g: g, abox: d.ABox, tbox: d.TBox, queries: qs}
	for _, q := range qs {
		res, err := rewrite.Generate(q, d.TBox)
		if err != nil {
			return nil, err
		}
		w.patterns = append(w.patterns, res.Pattern)
	}
	return w, nil
}

func (w *benchWorkload) runOpts() match.Options {
	return match.Options{Limits: match.Limits{
		Deadline:   time.Now().Add(5 * time.Second),
		MaxResults: 100000,
	}}
}

// benchDAFEval measures the DAF front-end of the shared engine on the
// perfectref+daf baseline workload: PrepareUCQ + Run over each query's
// optimized UCQ rewriting, so the report shows both front-ends compiling
// into the same runtime (the raw pre-rewrite CQs have empty candidate
// spaces on the data graph — only the rewritten disjuncts match).
func (w *benchWorkload) benchDAFEval(legacy bool) func(*testing.B) {
	ucqs := make([][]*cq.Query, 0, len(w.queries))
	for _, q := range w.queries {
		u, err := perfectref.RewriteOptimized(q, w.tbox, perfectref.Limits{})
		if err != nil {
			return func(b *testing.B) { b.Fatal(err) }
		}
		ucqs = append(ucqs, u.Queries)
	}
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, qs := range ucqs {
				pu, err := daf.PrepareUCQ(qs, w.g, daf.Options{UseLegacyCS: legacy})
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := pu.Run(daf.Limits{MaxResults: 100000}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// namedBench is one entry of the JSON benchmark suite.
type namedBench struct {
	name string
	fn   func(*testing.B)
}

// runBenchJSON runs the benchmark suite via testing.Benchmark and writes
// the results to outPath: the rows a check*Rows gate consumes plus
// DAFEval (csr and its /map twin on the legacy candidate-space build),
// which bench/ has no layer metric for. The rows bench/README.md maps
// onto layer metrics (BuildOMCS, Adjacency, Fig4cd_Eval, Delta*,
// WALAppend, RecoverReplay) are measured there, not here. The
// persistence rows end with the cold-start vs snapshot-load comparison,
// which must come out in the snapshot's favor or the run fails, and the
// incremental rows likewise fail the run unless maintaining a standing
// query through a batch beats recomputing it from scratch.
func runBenchJSON(outPath string, seed int64) error {
	w, err := buildBenchWorkload(seed)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "ogpa-bench-persist-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	suite := []namedBench{
		{"BenchmarkDAFEval/csr", w.benchDAFEval(false)},
		{"BenchmarkDAFEval/map", w.benchDAFEval(true)},
	}
	suite = append(suite, persistSuite(w, dir)...)
	inf, err := buildIncFixture(w)
	if err != nil {
		return err
	}
	suite = append(suite, incSuite(inf, w)...)
	results := make([]benchResult, 0, len(suite))
	for _, bb := range suite {
		r := testing.Benchmark(bb.fn)
		if r.N == 0 {
			return fmt.Errorf("benchmark %s failed", bb.name)
		}
		row := benchResult{
			Name:        bb.name,
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		results = append(results, row)
		fmt.Fprintf(os.Stderr, "%-28s %12.0f ns/op %12d B/op %9d allocs/op\n",
			row.Name, row.NsPerOp, row.BytesPerOp, row.AllocsPerOp)
	}
	if err := checkStartupRows(results); err != nil {
		return err
	}
	if err := checkIncRows(results); err != nil {
		return err
	}
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(data, '\n'), 0o644)
}
