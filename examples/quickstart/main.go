// Quickstart: load a tiny knowledge base, ask an ontology-mediated query,
// and inspect the generated ontological graph pattern.
//
// This is the paper's running example (Examples 2, 3 and 10): Ann is only
// asserted to be a PhD, yet she answers a query demanding an advisor and a
// course, because the ontology entails both.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"strings"

	"ogpa"
)

const ontology = `
# DL-Lite_R ontology (paper Example 2)
Student SubClassOf some takesCourse
PhD SubClassOf Student
PhD SubClassOf some advisorOf-
`

const data = `
# dataset (paper Example 2 plus a directly-asserted student)
PhD(Ann)
Student(Bob)
advisorOf(Prof, Bob)
takesCourse(Bob, DB101)
`

func main() {
	kb, err := ogpa.NewKB(strings.NewReader(ontology), strings.NewReader(data))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("knowledge base:", kb.Stats())

	// The paper's Example 3 query: students with an advisor and a course.
	// Its advisorOf star is redundant (y2 and y3 may be x), so the KB
	// answers the query's core, q(x) :- advisorOf(y1, x), takesCourse(x, z).
	query := `q(x) :- advisorOf(y1, x), advisorOf(y1, y2), advisorOf(y1, y3), takesCourse(x, z)`

	// Step 1 — GenOGP: one polynomial-size OGP of the core replaces the
	// whole UCQ.
	rw, err := kb.Rewrite(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ngenerated OGP (#COND = %d):\n%s\n", rw.CondCount(), rw.Explain())

	// Step 2 — OMatch: evaluate the OGP on the data graph.
	ans, err := kb.Answer(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("certain answers:")
	for _, row := range ans.Rows {
		fmt.Println(" ", strings.Join(row, ", "))
	}
	// Ann answers through the ontology (PhD ⊑ Student ⊑ ∃takesCourse,
	// PhD ⊑ ∃advisorOf⁻); Bob answers directly.

	// Cross-check with a classic baseline: PerfectRef UCQ rewriting + DAF.
	base, err := kb.AnswerBaseline(ogpa.BaselineUCQ, query, ogpa.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPerfectRef+DAF agrees: %d answers\n", base.Len())
}
