package datalog

import (
	"fmt"
	"testing"

	"ogpa/internal/cq"
	"ogpa/internal/gen"
	"ogpa/internal/perfectref"
)

// benchProgram builds a hierarchy-closure style workload: a 12-level
// concept chain plus two role levels over n individuals, the shape
// Evaluate runs for every datalog-baseline query. It exercises the
// Relation.Add dedup path (the fixpoint hot loop the hash-key change
// targets): every fact is re-derived once per chain level and rejected
// as a duplicate on all but the first.
func benchProgram(n int) ([]Rule, func() *Database) {
	const levels = 12
	var rules []Rule
	rules = append(rules, Rule{
		Head: Atom{Pred: "c·L0", Args: []Term{V("x")}},
		Body: []Atom{{Pred: "L0", Args: []Term{V("x")}}},
	})
	for i := 1; i < levels; i++ {
		rules = append(rules, Rule{
			Head: Atom{Pred: fmt.Sprintf("c·L%d", i), Args: []Term{V("x")}},
			Body: []Atom{{Pred: fmt.Sprintf("c·L%d", i-1), Args: []Term{V("x")}}},
		})
	}
	rules = append(rules,
		Rule{
			Head: Atom{Pred: "r·p", Args: []Term{V("x"), V("y")}},
			Body: []Atom{{Pred: "p", Args: []Term{V("x"), V("y")}}},
		},
		Rule{
			Head: Atom{Pred: "r·q", Args: []Term{V("x"), V("y")}},
			Body: []Atom{{Pred: "r·p", Args: []Term{V("y"), V("x")}}},
		},
		Rule{
			Head: Atom{Pred: "c·L0", Args: []Term{V("x")}},
			Body: []Atom{{Pred: "r·q", Args: []Term{V("x"), V("y")}}},
		},
	)
	build := func() *Database {
		db := NewDatabase()
		for i := 0; i < n; i++ {
			db.AddFact("L0", fmt.Sprintf("ind%d", i))
			db.AddFact("p", fmt.Sprintf("ind%d", i), fmt.Sprintf("ind%d", (i+1)%n))
		}
		return db
	}
	return rules, build
}

// BenchmarkFixpoint measures the semi-naive fixpoint (Evaluate) end to
// end, dominated by Relation.Add dedup — the loop the "\x00"-join key
// used to allocate one string per derived fact in.
func BenchmarkFixpoint(b *testing.B) {
	rules, build := benchProgram(2000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db := build()
		if err := Evaluate(rules, db, Limits{}); err != nil {
			b.Fatal(err)
		}
		if db.Size() == 0 {
			b.Fatal("empty fixpoint")
		}
	}
}

// standingQueries are the four standing queries of the benchmark's
// standing workload (bench/workloads.go).
var standingQueries = []string{
	`q(x, y) :- Student(x), advisor(x, y)`,
	`q(x) :- GraduateStudent(x), takesCourse(x, y), GraduateCourse(y)`,
	`q(x, y) :- Professor(x), worksFor(x, y), Department(y)`,
	`q(x) :- Person(x), memberOf(x, y), Department(y)`,
}

// standingLUBM is the benchmarks' KB: LUBM over a few universities.
const standingLUBM = 8

// standingFixture rewrites the standing queries over a LUBM KB and
// returns the programs with the KB's assertions as EDB facts.
func standingFixture(tb testing.TB, universities int) ([]*Program, []Fact) {
	tb.Helper()
	d := gen.LUBM(gen.LUBMConfig{Universities: universities, Seed: 1})
	var progs []*Program
	for _, q := range standingQueries {
		prog, err := Rewrite(cq.MustParse(q), d.TBox, perfectref.Limits{})
		if err != nil {
			tb.Fatal(err)
		}
		progs = append(progs, prog)
	}
	var facts []Fact
	for _, c := range d.ABox.Concepts {
		facts = append(facts, Fact{Pred: c.Concept, Args: Tuple{c.Ind}})
	}
	for _, r := range d.ABox.Roles {
		facts = append(facts, Fact{Pred: r.Role, Args: Tuple{r.Sub, r.Obj}})
	}
	return progs, facts
}

// standingState materializes every standing program with its answer
// rules over facts in one shared State, the work of registering the
// four standing queries on one manager, and returns it with each
// program's answer predicate.
func standingState(tb testing.TB, progs []*Program, facts []Fact) (*State, []string) {
	tb.Helper()
	var rules []Rule
	preds := make([]string, len(progs))
	for i, prog := range progs {
		preds[i] = fmt.Sprintf("%s%d", AnswerPrefix, i)
		r, err := prog.AnswerRules(preds[i])
		if err != nil {
			tb.Fatal(err)
		}
		rules = append(rules, r...)
	}
	st, err := NewState(rules, facts, Limits{})
	if err != nil {
		tb.Fatal(err)
	}
	return st, preds
}

// BenchmarkNewState measures registering the four standing queries: one
// semi-naive fixpoint of the union of their programs over the whole KB.
func BenchmarkNewState(b *testing.B) {
	progs, facts := standingFixture(b, standingLUBM)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		standingState(b, progs, facts)
	}
}

// BenchmarkAnswerMaintained measures one evaluation of the four standing
// queries' residual UCQs over their shared maintained fixpoint: the
// one-shot join the maintained answers are tested against.
func BenchmarkAnswerMaintained(b *testing.B) {
	progs, facts := standingFixture(b, standingLUBM)
	st, _ := standingState(b, progs, facts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, prog := range progs {
			if _, err := AnswerMaintained(prog, st.DB()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStateApply measures maintaining the shared fixpoint under a
// 64-fact batch: each op deletes the batch (DRed) and inserts it back.
func BenchmarkStateApply(b *testing.B) {
	progs, facts := standingFixture(b, standingLUBM)
	st, _ := standingState(b, progs, facts)
	batch := facts[len(facts)/2 : len(facts)/2+64]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Apply(nil, batch, Limits{}); err != nil {
			b.Fatal(err)
		}
		if _, err := st.Apply(batch, nil, Limits{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStandingRefresh measures what one committed batch costs the
// four standing queries in process: each op applies one 64-fact batch
// (deleting it on even ops, putting it back on odd ones) to the shared
// fixpoint and reads each query's sorted answers.
func BenchmarkStandingRefresh(b *testing.B) {
	progs, facts := standingFixture(b, standingLUBM)
	st, preds := standingState(b, progs, facts)
	batch := facts[len(facts)/2 : len(facts)/2+64]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ins, del := batch, []Fact(nil)
		if i%2 == 0 {
			ins, del = nil, batch
		}
		if _, err := st.Apply(ins, del, Limits{}); err != nil {
			b.Fatal(err)
		}
		for _, pred := range preds {
			if st.Answers(pred) == nil {
				b.Fatal("no answers")
			}
		}
	}
}
