package harness

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"ogpa/internal/cq"
	"ogpa/internal/gen"
	"ogpa/internal/qgen"
)

// Suite bundles the configuration of one full experimental run.
type Suite struct {
	Runner        *Runner
	QueriesPerSet int // paper: 100; scaled default 20
	Seed          int64
}

// NewSuite returns a Suite with scaled defaults.
func NewSuite() *Suite {
	return &Suite{Runner: NewRunner(), QueriesPerSet: 20, Seed: 1}
}

// Datasets builds the four evaluation datasets at their default scales.
func (s *Suite) Datasets() []*gen.Dataset {
	return []*gen.Dataset{
		gen.DBpedia(gen.DBpediaConfig{Scale: 1, Seed: s.Seed}),
		gen.NPD(gen.NPDConfig{Scale: 4, Seed: s.Seed}),
		gen.LUBM(gen.LUBMConfig{Universities: 12, Seed: s.Seed}),
		gen.OWL2Bench(gen.OWL2BenchConfig{Universities: 12, Seed: s.Seed}),
	}
}

// queries generates one workload set for a dataset.
func (s *Suite) queries(d *gen.Dataset, size int) []*cq.Query {
	cfg := qgen.DefaultConfig(size, s.Seed+int64(size)*101)
	cfg.Count = s.QueriesPerSet
	return qgen.RandomWalk(d.Graph(), d.TBox, cfg)
}

// scaled returns a copy of the dataset with the TBox truncated to the
// given fraction (the paper's "varying |O|" experiments).
func scaled(d *gen.Dataset, fraction float64) *gen.Dataset {
	return &gen.Dataset{Name: d.Name, TBox: d.TBox.Scale(fraction), ABox: d.ABox}
}

// TableIV reproduces the dataset statistics table.
func (s *Suite) TableIV(datasets []*gen.Dataset) *Table {
	t := &Table{
		Title:  "Table IV: statistics of datasets and ontologies (scaled)",
		Header: []string{"Name", "|D|", "|V|", "|E|", "|O|", "|Σv|", "|Σe|"},
		Notes:  []string{"instance sizes are scaled to laptop budgets; ontology dimensions match the paper"},
	}
	for _, d := range datasets {
		st := d.Stats()
		t.AddRow(st.Name,
			fmt.Sprint(st.Triples), fmt.Sprint(st.Vertices), fmt.Sprint(st.Edges),
			fmt.Sprint(st.Axioms), fmt.Sprint(st.Concepts), fmt.Sprint(st.Roles))
	}
	return t
}

// aggregate runs one method over a query set and averages.
type aggregate struct {
	rewrite  time.Duration
	eval     time.Duration
	size     int
	answers  int
	unsolved int
	n        int
}

func (s *Suite) runSet(m Method, qs []*cq.Query, d *gen.Dataset, evalToo bool) aggregate {
	var a aggregate
	for _, q := range qs {
		var r Result
		if evalToo {
			r = s.Runner.Answer(m, q, d)
		} else {
			r = s.Runner.RewriteOnly(m, q, d)
		}
		a.rewrite += r.RewriteTime
		a.eval += r.EvalTime
		a.size += r.RewriteSize
		a.answers += r.Answers
		if r.Unsolved {
			a.unsolved++
		}
		a.n++
	}
	return a
}

func (a aggregate) avgRewrite() time.Duration {
	if a.n == 0 {
		return 0
	}
	return a.rewrite / time.Duration(a.n)
}

func (a aggregate) avgEval() time.Duration {
	if a.n == 0 {
		return 0
	}
	return a.eval / time.Duration(a.n)
}

// RewriteVaryQ is Fig 4(a)/(b): rewriting time as |Q| grows.
func (s *Suite) RewriteVaryQ(d *gen.Dataset) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Fig 4(a/b): rewriting time varying |Q| on %s", d.Name),
		Header: append([]string{"|Q|"}, methodNames(RewriteMethods)...),
	}
	for _, size := range []int{4, 8, 12, 16} {
		qs := s.queries(d, size)
		row := []string{fmt.Sprint(size)}
		for _, m := range RewriteMethods {
			a := s.runSet(m, qs, d, false)
			cell := fmtDur(a.avgRewrite())
			if a.unsolved > 0 {
				cell += fmt.Sprintf(" (%d uns.)", a.unsolved)
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return t
}

// EvalVaryQ is Fig 4(c)/(d): evaluation time as |Q| grows.
func (s *Suite) EvalVaryQ(d *gen.Dataset) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Fig 4(c/d): evaluation time varying |Q| on %s", d.Name),
		Header: append([]string{"|Q|"}, methodNames(AllMethods)...),
	}
	for _, size := range []int{4, 8, 12, 16} {
		qs := s.queries(d, size)
		row := []string{fmt.Sprint(size)}
		for _, m := range AllMethods {
			a := s.runSet(m, qs, d, true)
			cell := fmtDur(a.avgEval())
			if a.unsolved > 0 {
				cell += fmt.Sprintf(" (%d uns.)", a.unsolved)
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return t
}

// RewriteVaryO is Fig 4(e)/(f): rewriting time as |O| grows.
func (s *Suite) RewriteVaryO(d *gen.Dataset) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Fig 4(e/f): rewriting time varying |O| on %s (|Q|=12)", d.Name),
		Header: append([]string{"|O|"}, methodNames(RewriteMethods)...),
	}
	qs := s.queries(d, 12)
	for _, frac := range []float64{0.25, 0.5, 0.75, 1.0} {
		sd := scaled(d, frac)
		row := []string{fmt.Sprintf("%.0f%%", frac*100)}
		for _, m := range RewriteMethods {
			a := s.runSet(m, qs, sd, false)
			cell := fmtDur(a.avgRewrite())
			if a.unsolved > 0 {
				cell += fmt.Sprintf(" (%d uns.)", a.unsolved)
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return t
}

// EvalVaryO is Fig 4(g)/(h): evaluation time as |O| grows.
func (s *Suite) EvalVaryO(d *gen.Dataset) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Fig 4(g/h): evaluation time varying |O| on %s (|Q|=12)", d.Name),
		Header: append([]string{"|O|"}, methodNames(AllMethods)...),
	}
	qs := s.queries(d, 12)
	for _, frac := range []float64{0.25, 0.5, 0.75, 1.0} {
		sd := scaled(d, frac)
		sd.Name = fmt.Sprintf("%s@%.0f%%", d.Name, frac*100) // distinct saturation cache
		row := []string{fmt.Sprintf("%.0f%%", frac*100)}
		for _, m := range AllMethods {
			a := s.runSet(m, qs, sd, true)
			cell := fmtDur(a.avgEval())
			if a.unsolved > 0 {
				cell += fmt.Sprintf(" (%d uns.)", a.unsolved)
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return t
}

// Sensitivity is Fig 4(i)/(j): per-query evaluation time against #ANS and
// #COND, with queries relabeled in ascending time order.
func (s *Suite) Sensitivity(d *gen.Dataset) *Table {
	qs := s.queries(d, 12)
	type rec struct {
		eval    time.Duration
		answers int
		conds   int
	}
	recs := make([]rec, 0, len(qs))
	for _, q := range qs {
		r := s.Runner.Answer(MethodOMatch, q, d)
		recs = append(recs, rec{eval: r.EvalTime, answers: r.Answers, conds: r.RewriteSize})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].eval < recs[j].eval })
	t := &Table{
		Title:  fmt.Sprintf("Fig 4(i/j): sensitivity on %s (queries sorted by OMatch time)", d.Name),
		Header: []string{"query#", "OMatch eval", "#ANS", "#COND"},
	}
	for i, r := range recs {
		t.AddRow(fmt.Sprint(i+1), fmtDur(r.eval), fmt.Sprint(r.answers), fmt.Sprint(r.conds))
	}
	return t
}

// Scalability is Fig 4(k)/(l): evaluation time as |G| grows.
func (s *Suite) Scalability(mk func(scale int) *gen.Dataset, scales []int) *Table {
	var t *Table
	for _, sc := range scales {
		d := mk(sc)
		if t == nil {
			t = &Table{
				Title:  fmt.Sprintf("Fig 4(k/l): scalability varying |G| on %s family (|Q|=12)", d.Name),
				Header: append([]string{"|G|"}, methodNames(AllMethods)...),
			}
		}
		qs := s.queries(d, 12)
		st := d.Stats()
		row := []string{fmt.Sprint(st.Vertices + st.Edges)}
		for _, m := range AllMethods {
			a := s.runSet(m, qs, d, true)
			cell := fmtDur(a.avgEval())
			if a.unsolved > 0 {
				cell += fmt.Sprintf(" (%d uns.)", a.unsolved)
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return t
}

// CDF is Fig 4(m)/(n): the cumulative distribution of evaluation time plus
// the number of unsolved queries per method.
func (s *Suite) CDF(d *gen.Dataset) *Table {
	qs := s.queries(d, 12)
	t := &Table{
		Title:  fmt.Sprintf("Fig 4(m/n): evaluation-time CDF on %s (|Q|=12)", d.Name),
		Header: []string{"method", "p50", "p90", "p95", "max", "unsolved"},
	}
	for _, m := range AllMethods {
		times := make([]time.Duration, 0, len(qs))
		unsolved := 0
		for _, q := range qs {
			r := s.Runner.Answer(m, q, d)
			times = append(times, r.EvalTime)
			if r.Unsolved {
				unsolved++
			}
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		pct := func(p float64) time.Duration {
			if len(times) == 0 {
				return 0
			}
			i := int(p * float64(len(times)-1))
			return times[i]
		}
		t.AddRow(string(m), fmtDur(pct(0.5)), fmtDur(pct(0.9)), fmtDur(pct(0.95)),
			fmtDur(times[len(times)-1]), fmt.Sprint(unsolved))
	}
	return t
}

// EndToEnd is Fig 4(o): preprocessing + rewriting + evaluation per method.
func (s *Suite) EndToEnd(datasets []*gen.Dataset) *Table {
	t := &Table{
		Title:  "Fig 4(o): end-to-end time breakdown (|Q|=12 workload)",
		Header: []string{"dataset", "method", "preprocess", "rewrite(total)", "eval(total)", "end-to-end"},
	}
	for _, d := range datasets {
		qs := s.queries(d, 12)
		for _, m := range AllMethods {
			pre := s.Runner.PreprocessTime(m, d)
			a := s.runSet(m, qs, d, true)
			t.AddRow(d.Name, string(m), fmtDur(pre), fmtDur(a.rewrite), fmtDur(a.eval),
				fmtDur(pre+a.rewrite+a.eval))
		}
	}
	return t
}

// Memory is Fig 4(p): peak heap while answering the workload.
func (s *Suite) Memory(datasets []*gen.Dataset) *Table {
	t := &Table{
		Title:  "Fig 4(p): peak memory while answering the |Q|=12 workload",
		Header: []string{"dataset", "method", "peak heap"},
		Notes:  []string{"peak sampled at 5ms; includes the dataset graph/EDB"},
	}
	for _, d := range datasets {
		qs := s.queries(d, 12)
		for _, m := range AllMethods {
			peak := measurePeak(func() {
				for _, q := range qs {
					s.Runner.Answer(m, q, d)
				}
			})
			t.AddRow(d.Name, string(m), fmtBytes(peak))
		}
	}
	return t
}

// measurePeak samples HeapAlloc while fn runs and returns the maximum.
func measurePeak(fn func()) uint64 {
	runtime.GC()
	var peak atomic.Uint64
	done := make(chan struct{})
	go func() {
		ticker := time.NewTicker(5 * time.Millisecond)
		defer ticker.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak.Load() {
					peak.Store(ms.HeapAlloc)
				}
			}
		}
	}()
	fn()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > peak.Load() {
		peak.Store(ms.HeapAlloc)
	}
	close(done)
	return peak.Load()
}

// RewriteSize is the Exp-2 rewriting-size comparison.
func (s *Suite) RewriteSize(d *gen.Dataset) *Table {
	qs := s.queries(d, 12)
	t := &Table{
		Title:  fmt.Sprintf("Exp-2: rewriting sizes on %s (|Q|=12, total atoms/conditions)", d.Name),
		Header: []string{"method", "total size", "avg size", "unsolved"},
	}
	for _, m := range RewriteMethods {
		a := s.runSet(m, qs, d, false)
		avg := 0
		if a.n > 0 {
			avg = a.size / a.n
		}
		t.AddRow(string(m), fmt.Sprint(a.size), fmt.Sprint(avg), fmt.Sprint(a.unsolved))
	}
	return t
}

// RealLife is the Exp-2 real-life query comparison.
func (s *Suite) RealLife() *Table {
	t := &Table{
		Title:  "Exp-2: real-life queries (LUBM 14, OWL2Bench 10, DBpedia/LSQ 10)",
		Header: []string{"dataset", "method", "avg rewrite", "avg eval", "unsolved"},
	}
	sets := []struct {
		d  *gen.Dataset
		qs []*cq.Query
	}{
		{gen.LUBM(gen.LUBMConfig{Universities: 2, Seed: s.Seed}), qgen.LUBMQueries()},
		{gen.OWL2Bench(gen.OWL2BenchConfig{Universities: 2, Seed: s.Seed}), qgen.OWL2BenchQueries()},
		{gen.DBpedia(gen.DBpediaConfig{Scale: 0.5, Seed: s.Seed}), qgen.DBpediaQueries()},
	}
	for _, set := range sets {
		for _, m := range AllMethods {
			a := s.runSet(m, set.qs, set.d, true)
			t.AddRow(set.d.Name, string(m), fmtDur(a.avgRewrite()), fmtDur(a.avgEval()), fmt.Sprint(a.unsolved))
		}
	}
	return t
}

func methodNames(ms []Method) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = string(m)
	}
	return out
}
