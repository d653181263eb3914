package ogpa

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"ogpa/internal/core"
)

const exampleOntology = `
# paper Example 2
Student SubClassOf some takesCourse
PhD SubClassOf Student
PhD SubClassOf some advisorOf-
`

const exampleData = `
PhD(Ann)
Student(Bob)
advisorOf(Prof, Bob)
takesCourse(Bob, DB101)
`

func exampleKB(t testing.TB) *KB {
	t.Helper()
	kb, err := NewKB(strings.NewReader(exampleOntology), strings.NewReader(exampleData))
	if err != nil {
		t.Fatal(err)
	}
	return kb
}

func TestKBStats(t *testing.T) {
	kb := exampleKB(t)
	s := kb.Stats()
	if !strings.Contains(s, "|D|=4") || !strings.Contains(s, "|O|=3") {
		t.Fatalf("Stats = %q", s)
	}
	if kb.TBox().Size() != 3 || kb.ABox().Size() != 4 || kb.Graph().NumVertices() == 0 {
		t.Fatal("accessors broken")
	}
}

func TestAnswerRunningExample(t *testing.T) {
	kb := exampleKB(t)
	ans, err := kb.Answer(`q(x) :- advisorOf(y1, x), advisorOf(y1, y2), advisorOf(y1, y3), takesCourse(x, z)`)
	if err != nil {
		t.Fatal(err)
	}
	// Ann (via the ontology) and Bob (directly) are both answers.
	if ans.Len() != 2 || ans.Rows[0][0] != "Ann" || ans.Rows[1][0] != "Bob" {
		t.Fatalf("answers = %v", ans.Rows)
	}
	if len(ans.Vars) != 1 || ans.Vars[0] != "x" {
		t.Fatalf("vars = %v", ans.Vars)
	}
}

func TestAllBaselinesAgree(t *testing.T) {
	kb := exampleKB(t)
	query := `q(x) :- advisorOf(y1, x), takesCourse(x, z)`
	want, err := kb.Answer(query)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []Baseline{BaselineUCQ, BaselineUCQOpt, BaselineDatalog, BaselineSaturate} {
		got, err := kb.AnswerBaseline(b, query, Options{})
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("%s: %v vs %v", b, got.Rows, want.Rows)
		}
		for i := range got.Rows {
			if strings.Join(got.Rows[i], ",") != strings.Join(want.Rows[i], ",") {
				t.Fatalf("%s: %v vs %v", b, got.Rows, want.Rows)
			}
		}
		// Student(x) has two answers (Ann, Bob); MaxResults must cap every
		// baseline, not only the matcher-backed ones.
		capped, err := kb.AnswerBaseline(b, `q(x) :- Student(x)`, Options{MaxResults: 1})
		if err != nil {
			t.Fatalf("%s with MaxResults: %v", b, err)
		}
		if capped.Len() > 1 {
			t.Fatalf("%s ignores MaxResults: 1: %v", b, capped.Rows)
		}
	}
	if _, err := kb.AnswerBaseline("nope", query, Options{}); err == nil {
		t.Fatal("unknown baseline should error")
	}

	// A data predicate named like one of the datalog rewriting's own (c·A
	// holds A's closure under the TBox) is data like any other: every
	// pipeline, and a subscription, answer it from its own facts only,
	// and its facts stay out of Student's closure.
	clash, err := NewKB(strings.NewReader(exampleOntology), strings.NewReader("PhD(ann)\nc·Student(x4)\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer enableLive(t, clash).Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, tc := range []struct{ query, want string }{
		{"q(x) :- c·Student(x)", "[[x4]]"},
		{"q(x) :- Student(x)", "[[ann]]"},
	} {
		if ans, err := clash.Answer(tc.query); err != nil || fmt.Sprint(ans.Rows) != tc.want {
			t.Fatalf("GenOGP+OMatch: %s answers %v, %v; want %s", tc.query, ans, err, tc.want)
		}
		for _, b := range []Baseline{BaselineUCQ, BaselineUCQOpt, BaselineDatalog, BaselineSaturate} {
			if ans, err := clash.AnswerBaseline(b, tc.query, Options{}); err != nil || fmt.Sprint(ans.Rows) != tc.want {
				t.Fatalf("%s: %s answers %v, %v; want %s", b, tc.query, ans, err, tc.want)
			}
		}
		sub, err := clash.Subscribe(tc.query, SubscribeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if d, err := sub.Next(ctx); err != nil || fmt.Sprint(d.Added) != tc.want || len(d.Removed) != 0 {
			t.Fatalf("subscription: %s delivers %+v, %v; want %s added", tc.query, d, err, tc.want)
		}
	}
}

// TestDatalogBaselineNameClash: a concept and a role with the same
// name are two predicates, as a vertex label and an edge label are in
// the graph, so the datalog baseline answers a query over the role as
// GenOGP+OMatch does instead of failing on the concept's arity.
func TestDatalogBaselineNameClash(t *testing.T) {
	kb, err := NewKB(strings.NewReader(exampleOntology), strings.NewReader("PhD(ann)\nStudent(bob)\nStudent(ann, bob)\n"))
	if err != nil {
		t.Fatal(err)
	}
	for _, query := range []string{"q(x, y) :- Student(x, y)", "q(x) :- Student(x)"} {
		want, err := kb.Answer(query)
		if err != nil {
			t.Fatal(err)
		}
		got, err := kb.AnswerBaseline(BaselineDatalog, query, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
			t.Errorf("%s: datalog %v, GenOGP+OMatch %v", query, got.Rows, want.Rows)
		}
	}
	if ans, err := kb.AnswerBaseline(BaselineDatalog, "q(x, y) :- Student(x, y)", Options{}); err != nil || fmt.Sprint(ans.Rows) != "[[ann bob]]" {
		t.Errorf("datalog baseline over the role: %v, %v; want [[ann bob]]", ans, err)
	}
}

func TestRewriteExplain(t *testing.T) {
	kb := exampleKB(t)
	rw, err := kb.Rewrite(`q(x) :- takesCourse(x, z)`)
	if err != nil {
		t.Fatal(err)
	}
	if rw.CondCount() == 0 {
		t.Fatal("no conditions generated")
	}
	out := rw.Explain()
	// The omission condition for z must mention Student and PhD.
	if !strings.Contains(out, "Student") || !strings.Contains(out, "PhD") {
		t.Fatalf("Explain:\n%s", out)
	}
}

func TestOptionsLimits(t *testing.T) {
	kb := exampleKB(t)
	ans, err := kb.AnswerWithOptions(`q(x, y) :- advisorOf(x, y)`, Options{MaxResults: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 1 {
		t.Fatalf("MaxResults ignored: %d", ans.Len())
	}
	_, err = kb.AnswerWithOptions(`q(x) :- Student(x)`, Options{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMatchOGP(t *testing.T) {
	kb := exampleKB(t)
	// Hand-written OGP: students, optionally with an advisor.
	p := &core.Pattern{
		Vertices: []core.Vertex{
			{Name: "x", Label: "Student", Distinguished: true},
			{Name: "a", Label: core.Wildcard, Distinguished: true,
				Omit: core.LabelIs{X: 0, Label: "Student"}},
		},
		Edges: []core.Edge{{From: 1, To: 0, Label: "advisorOf"}},
	}
	ans, err := kb.MatchOGP(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() == 0 {
		t.Fatal("no matches")
	}
	foundReal, foundOmitted := false, false
	for _, row := range ans.Rows {
		if row[0] == "Bob" && row[1] == "Prof" {
			foundReal = true
		}
		if row[1] == "⊥" {
			foundOmitted = true
		}
	}
	if !foundReal || !foundOmitted {
		t.Fatalf("rows = %v", ans.Rows)
	}
}

func TestNewKBFromTriples(t *testing.T) {
	triples := `<http://ex.org/Ann> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex.org/onto#PhD> .
<http://ex.org/Prof> <http://ex.org/onto#advisorOf> <http://ex.org/Ann> .
<http://ex.org/Ann> <http://ex.org/onto#age> "30"^^xsd:integer .
`
	kb, err := NewKBFromTriples(strings.NewReader(exampleOntology), strings.NewReader(triples))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := kb.Answer(`q(x) :- PhD(x)`)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 1 || ans.Rows[0][0] != "Ann" {
		t.Fatalf("answers = %v", ans.Rows)
	}
}

func TestParseErrorsSurface(t *testing.T) {
	if _, err := NewKB(strings.NewReader("garbage"), strings.NewReader("")); err == nil {
		t.Fatal("bad ontology accepted")
	}
	if _, err := NewKB(strings.NewReader(""), strings.NewReader("garbage")); err == nil {
		t.Fatal("bad data accepted")
	}
	kb := exampleKB(t)
	if _, err := kb.Answer("not a query"); err == nil {
		t.Fatal("bad query accepted")
	}
	if _, err := kb.AnswerBaseline(BaselineUCQ, "not a query", Options{}); err == nil {
		t.Fatal("bad baseline query accepted")
	}
}
