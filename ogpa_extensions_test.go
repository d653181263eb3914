package ogpa

import (
	"strings"
	"testing"
)

func TestAnswerSPARQL(t *testing.T) {
	kb := exampleKB(t)
	ans, err := kb.AnswerSPARQL(`
PREFIX ex: <http://ex.org/>
SELECT ?x WHERE {
    ?x a ex:Student .
    ?x ex:takesCourse ?c .
}`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Ann (PhD ⊑ Student ⊑ ∃takesCourse) and Bob.
	if ans.Len() != 2 || ans.Rows[0][0] != "Ann" || ans.Rows[1][0] != "Bob" {
		t.Fatalf("answers = %v", ans.Rows)
	}
	if _, err := kb.AnswerSPARQL("SELECT nope", Options{}); err == nil {
		t.Fatal("bad SPARQL accepted")
	}
}

func TestCheckConsistency(t *testing.T) {
	kb, err := NewKB(strings.NewReader(`
PhD SubClassOf Student
Student DisjointWith Course
`), strings.NewReader(`
PhD(Ann)
Course(Ann)
`))
	if err != nil {
		t.Fatal(err)
	}
	vs, err := kb.CheckConsistency()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || !strings.Contains(vs[0], "Ann") {
		t.Fatalf("violations = %v", vs)
	}

	ok := exampleKB(t)
	vs, err = ok.CheckConsistency()
	if err != nil || len(vs) != 0 {
		t.Fatalf("vs=%v err=%v", vs, err)
	}
}

// TestRewriteAnswersCore: Rewrite compiles the query's core, with the
// text's head: the advisorOf star of the paper's Example 3 folds to one
// edge, and the text and its core compile to one OGP.
func TestRewriteAnswersCore(t *testing.T) {
	kb := exampleKB(t)
	rw, err := kb.Rewrite(`q(x) :- advisorOf(y1, x), advisorOf(y1, y2), advisorOf(y1, y3), takesCourse(x, z)`)
	if err != nil {
		t.Fatal(err)
	}
	if core := rw.Query.String(); strings.Count(core, "advisorOf") != 1 || !strings.HasPrefix(core, "q(x) :- ") {
		t.Fatalf("core = %s", core)
	}
	again, err := kb.Rewrite(rw.Query.String())
	if err != nil {
		t.Fatal(err)
	}
	if again.Explain() != rw.Explain() {
		t.Fatalf("the core's own text compiles to\n%s\nnot\n%s", again.Explain(), rw.Explain())
	}
	if _, err := kb.Rewrite("bad"); err == nil {
		t.Fatal("bad query accepted")
	}
}

func TestExplainProvenanceFacade(t *testing.T) {
	kb := exampleKB(t)
	rw, err := kb.Rewrite(`q(x) :- Student(x)`)
	if err != nil {
		t.Fatal(err)
	}
	out := rw.ExplainProvenance()
	if !strings.Contains(out, "PhD(x)   [PhD SubClassOf Student]") {
		t.Fatalf("provenance:\n%s", out)
	}
}
