package main

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"ogpa/internal/datalog"
	"ogpa/internal/delta"
	"ogpa/internal/inc"
	"ogpa/internal/perfectref"
)

// deltaBatch renders n bare-word N-Triples insertions with fresh
// individuals starting at id; each individual gets one label and one
// edge into the base graph's ID space via a shared hub vertex.
func deltaBatch(id, n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "dx%d a GraduateStudent .\n", id+i)
		fmt.Fprintf(&sb, "dx%d memberOf dhub .\n", id+i)
	}
	return sb.String()
}

// incFixture is the incremental-maintenance suite's workload: a live
// store over the LUBM graph plus the datalog program of one workload
// query, so both contenders answer the same standing query after the
// same mutation stream.
type incFixture struct {
	prog *datalog.Program
}

func buildIncFixture(w *benchWorkload) (*incFixture, error) {
	for _, q := range w.queries {
		prog, err := datalog.Rewrite(q, w.tbox, perfectref.Limits{})
		if err != nil {
			continue
		}
		return &incFixture{prog: prog}, nil
	}
	return nil, fmt.Errorf("no workload query rewrites to a datalog program")
}

// benchIncrementalMaintain measures the maintained path: one op = one
// 8-triple batch landing plus a chain answer, which advances the
// maintained fixpoint by exactly that batch (semi-naive continuation)
// instead of re-deriving the whole model.
func (f *incFixture) benchIncrementalMaintain(w *benchWorkload) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		s := delta.NewStore(w.g, delta.Config{CompactThreshold: -1})
		defer s.Close()
		m := inc.NewManager(s, nil)
		defer m.Close()
		c, err := m.RegisterDatalog(f.prog, datalog.Limits{})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := c.Answer(); err != nil {
			b.Fatal(err)
		}
		id := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.InsertTriples(strings.NewReader(deltaBatch(id, 8))); err != nil {
				b.Fatal(err)
			}
			id += 8
			if _, _, err := c.Answer(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchFullRecompute is the cold contender on the identical workload:
// one op = the same 8-triple batch plus a from-scratch answer — ABox
// extraction from the new snapshot, database load, full fixpoint. This
// is what a one-shot datalog answer pays after every mutation, and what
// a datalog subscription would pay per batch without its maintained
// chain.
func (f *incFixture) benchFullRecompute(w *benchWorkload) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		s := delta.NewStore(w.g, delta.Config{CompactThreshold: -1})
		defer s.Close()
		id := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.InsertTriples(strings.NewReader(deltaBatch(id, 8))); err != nil {
				b.Fatal(err)
			}
			id += 8
			db := datalog.LoadGraph(s.Snapshot().Graph())
			if _, err := datalog.Answer(f.prog, db, datalog.Limits{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func incSuite(f *incFixture, w *benchWorkload) []namedBench {
	return []namedBench{
		{"BenchmarkIncrementalMaintain", f.benchIncrementalMaintain(w)},
		{"BenchmarkFullRecompute", f.benchFullRecompute(w)},
	}
}

// checkIncRows gates the report on the subsystem's reason to exist:
// maintaining the fixpoint through a batch must beat recomputing it.
func checkIncRows(results []benchResult) error {
	var maintain, recompute float64
	for _, r := range results {
		switch r.Name {
		case "BenchmarkIncrementalMaintain":
			maintain = r.NsPerOp
		case "BenchmarkFullRecompute":
			recompute = r.NsPerOp
		}
	}
	if maintain == 0 || recompute == 0 {
		return fmt.Errorf("incremental rows missing from benchmark results")
	}
	if maintain >= recompute {
		return fmt.Errorf("incremental maintain (%.0f ns/op) not faster than full recompute (%.0f ns/op)", maintain, recompute)
	}
	fmt.Fprintf(os.Stderr, "incremental: maintain %.1fx faster than full recompute\n", recompute/maintain)
	return nil
}
