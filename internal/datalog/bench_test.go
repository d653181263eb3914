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

// standingStates materializes every standing program with its answer
// rules over facts, the work of registering the four standing queries.
func standingStates(tb testing.TB, progs []*Program, facts []Fact) []*State {
	tb.Helper()
	states := make([]*State, len(progs))
	for i, prog := range progs {
		rules, err := prog.AnswerRules()
		if err != nil {
			tb.Fatal(err)
		}
		st, err := NewState(rules, facts, Limits{})
		if err != nil {
			tb.Fatal(err)
		}
		states[i] = st
	}
	return states
}

// BenchmarkNewState measures registering the four standing queries: one
// semi-naive fixpoint per program over the whole KB.
func BenchmarkNewState(b *testing.B) {
	progs, facts := standingFixture(b, standingLUBM)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		standingStates(b, progs, facts)
	}
}

// BenchmarkAnswerMaintained measures one evaluation of the four standing
// queries' residual UCQs over their maintained fixpoints: the in-process
// work behind every standing-query refresh.
func BenchmarkAnswerMaintained(b *testing.B) {
	progs, facts := standingFixture(b, standingLUBM)
	states := standingStates(b, progs, facts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, prog := range progs {
			if _, err := AnswerMaintained(prog, states[j].DB()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStateApply measures maintaining the four fixpoints under a
// 64-fact batch: each op deletes the batch (DRed) and inserts it back.
func BenchmarkStateApply(b *testing.B) {
	progs, facts := standingFixture(b, standingLUBM)
	states := standingStates(b, progs, facts)
	batch := facts[len(facts)/2 : len(facts)/2+64]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, st := range states {
			if _, err := st.Apply(nil, batch, Limits{}); err != nil {
				b.Fatal(err)
			}
			if _, err := st.Apply(batch, nil, Limits{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStandingRefresh measures what one committed batch costs the
// four standing queries in process: each op applies one 64-fact batch
// (deleting it on even ops, putting it back on odd ones) to every
// fixpoint and reads each query's sorted answers.
func BenchmarkStandingRefresh(b *testing.B) {
	progs, facts := standingFixture(b, standingLUBM)
	states := standingStates(b, progs, facts)
	batch := facts[len(facts)/2 : len(facts)/2+64]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ins, del := batch, []Fact(nil)
		if i%2 == 0 {
			ins, del = nil, batch
		}
		for _, st := range states {
			if _, err := st.Apply(ins, del, Limits{}); err != nil {
				b.Fatal(err)
			}
			if st.Answers() == nil {
				b.Fatal("no answers")
			}
		}
	}
}
