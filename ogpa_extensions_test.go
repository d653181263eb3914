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

func TestMinimizeQuery(t *testing.T) {
	min, err := MinimizeQuery(`q(x) :- advisorOf(y1, x), advisorOf(y1, y2), advisorOf(y1, y3), takesCourse(x, z)`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(min, "advisorOf") != 1 {
		t.Fatalf("minimized = %s", min)
	}
	if _, err := MinimizeQuery("bad"); err == nil {
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
