package ogpa

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"ogpa/internal/core"
	"ogpa/internal/dllite"
	"ogpa/internal/graph"
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

// TestKBModesAgree: the data graph is a KB's one copy of its data, so a
// read-only KB and a live one, before and after a commit, report the
// same |D| and the same ABox — distinct assertions, one value per
// attribute, though the data repeats a triple and sets an attribute
// twice — and the datalog and saturation baselines and the consistency
// check, which read the ABox or EDB rebuilt from the graph, agree with
// GenOGP+OMatch on each of them.
func TestKBModesAgree(t *testing.T) {
	const ontology = exampleOntology + "Student DisjointWith Course\n"
	const data = `Ann a PhD .
Ann a PhD .
Eve a Student .
Eve a Course .
Prof advisorOf Bob .
Bob takesCourse DB101 .
Bob takesCourse DB101 .
Ann age "30" .
Ann age "31" .
`
	const batch = `Cy a PhD .
Cy a Course .
Prof advisorOf Bob .
Ann age "32" .
`
	load := func(data string) *KB {
		t.Helper()
		kb, err := NewKBFromTriples(strings.NewReader(ontology), strings.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return kb
	}
	live := enableLive(t, load(data))
	defer live.Close()
	check := func(step string, ro *KB, wantD int) {
		t.Helper()
		roStats, liveStats := ro.Stats(), live.Stats()
		if want := fmt.Sprintf("|D|=%d assertions", wantD); !strings.HasPrefix(roStats, want) {
			t.Fatalf("%s: read-only Stats = %q, want %s", step, roStats, want)
		}
		if !strings.HasPrefix(liveStats, roStats+", live") {
			t.Fatalf("%s: live Stats = %q, read-only %q", step, liveStats, roStats)
		}
		roABox, liveABox := aboxLines(ro.ABox()), aboxLines(live.ABox())
		if len(roABox) != wantD || fmt.Sprint(roABox) != fmt.Sprint(liveABox) {
			t.Fatalf("%s: ABox read-only %v, live %v; want %d assertions", step, roABox, liveABox, wantD)
		}
		for _, kb := range []*KB{ro, live} {
			for _, query := range []string{
				`q(x) :- Student(x)`,
				`q(x, y) :- takesCourse(x, y)`,
				`q(x) :- advisorOf(y, x), takesCourse(x, z)`,
			} {
				want, err := kb.Answer(query)
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range []Baseline{BaselineDatalog, BaselineSaturate} {
					got, err := kb.AnswerBaseline(b, query, Options{})
					if err != nil || fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
						t.Fatalf("%s: %s on %s: %v, %v; GenOGP+OMatch %v", step, b, query, got, err, want.Rows)
					}
				}
			}
			// Student and Course are disjoint: the check's witnesses are
			// the individuals that are both.
			both, err := kb.Answer(`q(x) :- Student(x), Course(x)`)
			if err != nil || both.Len() == 0 {
				t.Fatalf("%s: Student and Course: %v, %v; want a violation", step, both, err)
			}
			vs, err := kb.CheckConsistency()
			if err != nil {
				t.Fatal(err)
			}
			var witnesses [][]string
			for _, v := range vs {
				_, w, _ := strings.Cut(v, " violated by ")
				witnesses = append(witnesses, []string{w})
			}
			core.SortRows(witnesses)
			if fmt.Sprint(witnesses) != fmt.Sprint(both.Rows) {
				t.Fatalf("%s: CheckConsistency %v, GenOGP+OMatch %v", step, vs, both.Rows)
			}
		}
	}
	check("loaded", load(data), 6)
	if _, err := live.InsertTriples(strings.NewReader(batch)); err != nil {
		t.Fatal(err)
	}
	check("committed", load(data+batch), 8)
}

// aboxLines renders an ABox's assertions, sorted.
func aboxLines(a *dllite.ABox) []string {
	var ls []string
	for _, c := range a.Concepts {
		ls = append(ls, c.Concept+"("+c.Ind+")")
	}
	for _, r := range a.Roles {
		ls = append(ls, r.Role+"("+r.Sub+", "+r.Obj+")")
	}
	for _, at := range a.Attrs {
		ls = append(ls, at.Ind+"."+at.Name+"="+at.Value.String2())
	}
	slices.Sort(ls)
	return ls
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
<http://ex.org/Ann> <http://ex.org/onto#gpa> "3.5"^^xsd:decimal .
<http://ex.org/Ann> <http://ex.org/onto#name> "Ann Lee" .
<http://ex.org/Ann> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex.org/onto#PhD> .
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
	// The repeated triple is one assertion; each literal is an attribute
	// of its kind under the predicate's local name.
	if s := kb.Stats(); !strings.HasPrefix(s, "|D|=5 assertions, |V|=2, |E|=1") {
		t.Fatalf("Stats = %q", s)
	}
	g := kb.Graph()
	ann := g.VertexByName("Ann")
	for attr, want := range map[string]graph.Value{
		"age":  graph.Int(30),
		"gpa":  graph.Float(3.5),
		"name": graph.String("Ann Lee"),
	} {
		if got, ok := g.Attribute(ann, g.Symbols.Lookup(attr)); !ok || got != want {
			t.Errorf("Ann.%s = %v (%t), want %v", attr, got, ok, want)
		}
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
