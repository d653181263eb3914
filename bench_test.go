// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section VI), one benchmark family per artifact. Each measures the
// corresponding pipeline stage on scaled workloads; cmd/benchrunner prints
// the full paper-style tables from the same harness.
//
// Run with: go test -bench=. -benchmem
package ogpa

import (
	"sync"
	"testing"
	"time"

	"ogpa/internal/core"
	"ogpa/internal/cq"
	"ogpa/internal/gen"
	"ogpa/internal/harness"
	"ogpa/internal/match"
	"ogpa/internal/qgen"
	"ogpa/internal/rewrite"
)

type benchEnv struct {
	suite   *harness.Suite
	lubm    *gen.Dataset
	dbp     *gen.Dataset
	queries map[int][]*cq.Query // per |Q|, on LUBM
	dbpQ12  []*cq.Query
}

var (
	envOnce sync.Once
	env     *benchEnv
)

func benchSetup() *benchEnv {
	envOnce.Do(func() {
		// Keep single-iteration cost low so `go test -bench=.` finishes
		// within the default package timeout even when baselines burn
		// their limits (which is the phenomenon being measured).
		s := harness.NewSuite()
		s.QueriesPerSet = 4
		s.Runner.RewriteTimeout = 200 * time.Millisecond
		s.Runner.EvalTimeout = time.Second
		lubm := gen.LUBM(gen.LUBMConfig{Universities: 6, Seed: 1})
		dbp := gen.DBpedia(gen.DBpediaConfig{Scale: 0.4, Seed: 1})
		env = &benchEnv{
			suite:   s,
			lubm:    lubm,
			dbp:     dbp,
			queries: map[int][]*cq.Query{},
		}
		for _, size := range []int{4, 8, 12, 16} {
			cfg := qgen.DefaultConfig(size, int64(size)*101+1)
			cfg.Count = s.QueriesPerSet
			env.queries[size] = qgen.RandomWalk(lubm.Graph(), lubm.TBox, cfg)
		}
		cfg := qgen.DefaultConfig(12, 7)
		cfg.Count = s.QueriesPerSet
		env.dbpQ12 = qgen.RandomWalk(dbp.Graph(), dbp.TBox, cfg)
	})
	return env
}

// BenchmarkTableIV regenerates the dataset-statistics table.
func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := gen.LUBM(gen.LUBMConfig{Universities: 1, Seed: int64(i)})
		if d.Stats().Triples == 0 {
			b.Fatal("empty dataset")
		}
	}
}

// benchRewrite measures one rewriting method over one query set.
func benchRewrite(b *testing.B, m harness.Method, size int) {
	e := benchSetup()
	qs := e.queries[size]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			e.suite.Runner.RewriteOnly(m, q, e.lubm)
		}
	}
}

// benchAnswer measures one full pipeline over one query set.
func benchAnswer(b *testing.B, m harness.Method, d *gen.Dataset, qs []*cq.Query) {
	e := benchSetup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			e.suite.Runner.Answer(m, q, d)
		}
	}
}

// BenchmarkFig4ab_Rewrite covers Fig 4(a)/(b): rewriting time varying |Q|.
func BenchmarkFig4ab_Rewrite(b *testing.B) {
	for _, size := range []int{4, 8, 12, 16} {
		for _, m := range harness.RewriteMethods {
			b.Run(string(m)+"/Q"+itoa(size), func(b *testing.B) {
				benchRewrite(b, m, size)
			})
		}
	}
}

// BenchmarkFig4cd_Eval covers Fig 4(c)/(d): evaluation varying |Q| = 8.
func BenchmarkFig4cd_Eval(b *testing.B) {
	e := benchSetup()
	for _, m := range harness.AllMethods {
		b.Run(string(m), func(b *testing.B) {
			benchAnswer(b, m, e.lubm, e.queries[8])
		})
	}
}

// BenchmarkFig4ef_RewriteVaryO covers Fig 4(e)/(f): rewriting with scaled
// ontologies.
func BenchmarkFig4ef_RewriteVaryO(b *testing.B) {
	e := benchSetup()
	for _, frac := range []float64{0.25, 1.0} {
		scaled := &gen.Dataset{Name: e.lubm.Name, TBox: e.lubm.TBox.Scale(frac), ABox: e.lubm.ABox}
		b.Run("GenOGP/O"+itoa(int(frac*100)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, q := range e.queries[12] {
					e.suite.Runner.RewriteOnly(harness.MethodOMatch, q, scaled)
				}
			}
		})
	}
}

// BenchmarkFig4gh_EvalVaryO covers Fig 4(g)/(h): evaluation with scaled
// ontologies (our method).
func BenchmarkFig4gh_EvalVaryO(b *testing.B) {
	e := benchSetup()
	for _, frac := range []float64{0.25, 1.0} {
		scaled := &gen.Dataset{Name: e.lubm.Name + "@" + itoa(int(frac*100)), TBox: e.lubm.TBox.Scale(frac), ABox: e.lubm.ABox}
		b.Run("GenOGP+OMatch/O"+itoa(int(frac*100)), func(b *testing.B) {
			benchAnswer(b, harness.MethodOMatch, scaled, e.queries[12])
		})
	}
}

// BenchmarkFig4ij_Sensitivity covers Fig 4(i)/(j): per-query OMatch runs
// including answer counting and #COND accounting.
func BenchmarkFig4ij_Sensitivity(b *testing.B) {
	e := benchSetup()
	for i := 0; i < b.N; i++ {
		for _, q := range e.queries[12] {
			r := e.suite.Runner.Answer(harness.MethodOMatch, q, e.lubm)
			rw := e.suite.Runner.RewriteOnly(harness.MethodOMatch, q, e.lubm)
			_ = r.Answers + rw.RewriteSize
		}
	}
}

// BenchmarkFig4kl_Scalability covers Fig 4(k)/(l): our pipeline as |G|
// grows.
func BenchmarkFig4kl_Scalability(b *testing.B) {
	e := benchSetup()
	for _, unis := range []int{2, 4, 8} {
		d := gen.LUBM(gen.LUBMConfig{Universities: unis, Seed: 1})
		cfg := qgen.DefaultConfig(12, 11)
		cfg.Count = 3
		qs := qgen.RandomWalk(d.Graph(), d.TBox, cfg)
		b.Run("GenOGP+OMatch/U"+itoa(unis), func(b *testing.B) {
			benchAnswer(b, harness.MethodOMatch, d, qs)
		})
		_ = e
	}
}

// BenchmarkFig4mn_CDF covers Fig 4(m)/(n): the evaluation-time
// distribution workload for our method (percentiles are computed by the
// harness; the bench measures the underlying runs).
func BenchmarkFig4mn_CDF(b *testing.B) {
	e := benchSetup()
	benchAnswer(b, harness.MethodOMatch, e.lubm, e.queries[12])
}

// BenchmarkFig4o_EndToEnd covers Fig 4(o): preprocessing + rewriting +
// evaluation.
func BenchmarkFig4o_EndToEnd(b *testing.B) {
	e := benchSetup()
	for i := 0; i < b.N; i++ {
		kb := FromParts(e.lubm.TBox, e.lubm.ABox) // preprocessing: graph build
		for _, q := range e.queries[8][:2] {
			if _, err := kb.AnswerWithOptions(q.String(), Options{Timeout: time.Second, MaxResults: 100000}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig4p_Memory covers Fig 4(p): allocation profile of the
// pipeline (run with -benchmem; bytes/op is the figure's metric).
func BenchmarkFig4p_Memory(b *testing.B) {
	e := benchSetup()
	b.ReportAllocs()
	benchAnswer(b, harness.MethodOMatch, e.lubm, e.queries[8])
}

// BenchmarkExp2_RewriteSize covers the Exp-2 rewriting-size comparison.
func BenchmarkExp2_RewriteSize(b *testing.B) {
	e := benchSetup()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, q := range e.queries[12] {
			total += e.suite.Runner.RewriteOnly(harness.MethodOMatch, q, e.lubm).RewriteSize
		}
		if total == 0 {
			b.Fatal("no conditions generated")
		}
	}
}

// BenchmarkExp2_RealLife covers the Exp-2 real-life query comparison on
// the LUBM 14 queries.
func BenchmarkExp2_RealLife(b *testing.B) {
	e := benchSetup()
	qs := qgen.LUBMQueries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			e.suite.Runner.Answer(harness.MethodOMatch, q, e.lubm)
		}
	}
}

// BenchmarkFig4cd_DBpedia complements Fig 4(c): evaluation on the
// DBpedia-like dataset.
func BenchmarkFig4cd_DBpedia(b *testing.B) {
	e := benchSetup()
	benchAnswer(b, harness.MethodOMatch, e.dbp, e.dbpQ12)
}

// BenchmarkAblations quantifies the adaptive matching order against
// static BFS (the paper's OMatch_BFS).
func BenchmarkAblations(b *testing.B) {
	e := benchSetup()
	qs := e.queries[8]
	variants := []struct {
		name string
		run  func(q *cq.Query)
	}{
		{"full", func(q *cq.Query) {
			e.suite.Runner.Answer(harness.MethodOMatch, q, e.lubm)
		}},
		{"staticBFS", func(q *cq.Query) {
			e.suite.Runner.Answer(harness.MethodOMatchBFS, q, e.lubm)
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, q := range qs {
					v.run(q)
				}
			}
		})
	}
}

// BenchmarkPrepare isolates the build phase a plan-cache miss pays
// (condition compilation, seeding, OMDAG, OMCS refinement, CSR
// adjacency): one op prepares the sixteen Fig. 4 random-walk OGPs,
// |Q| = 4 to 16, over LUBM(6).
func BenchmarkPrepare(b *testing.B) {
	e := benchSetup()
	g := e.lubm.Graph()
	var patterns []*core.Pattern
	for _, size := range []int{4, 8, 12, 16} {
		for _, q := range e.queries[size] {
			res, err := rewrite.Generate(q, e.lubm.TBox)
			if err != nil {
				b.Fatal(err)
			}
			patterns = append(patterns, res.Pattern)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range patterns {
			pr, err := match.Prepare(p, g, match.Options{})
			if err != nil {
				b.Fatal(err)
			}
			preparedSink = pr
		}
	}
}

// preparedSink keeps BenchmarkPrepare's result live.
var preparedSink *match.Prepared

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
