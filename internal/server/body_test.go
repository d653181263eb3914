package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"ogpa"
	"ogpa/internal/core"
	"ogpa/internal/dllite"
	"ogpa/internal/graph"
)

// encoded is what json.NewEncoder(w).Encode writes for r: the bytes the
// /query writer must produce.
func encoded(t testing.TB, r QueryResponse) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(r); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// written is the /query writer's encoding of r.
func written(r QueryResponse) []byte {
	b := appendQueryHead(nil, r.Vars)
	for _, row := range r.Rows {
		b = appendRow(b, row)
	}
	return appendQueryTail(b, &r)
}

// escapeCases are strings encoding/json escapes, or nearly does.
var escapeCases = []string{
	"", "plain", "<a>&b", "q\"uote", `back\slash`, "\x00\x01\x07\x08\t\n\x0b\x0c\r\x1f", "\x7f",
	"bad\xff", "cut\xc3", "\xe2\x80", "ls\u2028ps\u2029", "\u2027\u202a", "é⊥", "\xed\xa0\x80", "𝔸", "a,b", "#1",
}

func TestQueryWriterMatchesEncoder(t *testing.T) {
	var cases []QueryResponse
	for _, s := range escapeCases {
		cases = append(cases, QueryResponse{Vars: []string{s}, Rows: [][]string{{s}, {"x"}}, Count: 2, Method: s, Rewrote: s})
	}
	for _, took := range []float64{0, 0.001, 1.5, 123.456, 1e-7, 1.5e-7, 1e-6, 1e20, 1e21, 3.2e22, 1e-10} {
		cases = append(cases, QueryResponse{Vars: []string{"x"}, Rows: [][]string{{"a"}}, Count: 1, TookMs: took, Method: "m"})
	}
	cases = append(cases,
		QueryResponse{Method: "nil vars, zero rows", Rows: [][]string{}},
		QueryResponse{Vars: []string{}, Rows: [][]string{}, Method: "empty vars"},
		QueryResponse{Vars: []string{"x", "y"}, Rows: [][]string{{"a", "b"}, {"c", "⊥"}}, Count: 2, Method: "genogp+omatch", Truncated: true},
		QueryResponse{Vars: []string{"x"}, Rows: [][]string{{}, nil, {"a"}}, Count: 3, Method: "empty and nil rows", Rewrote: "q(x) :- A(x)"},
	)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		row := make([]string, 1+rng.Intn(3))
		for j := range row {
			// Mostly printable ASCII, so that runs of plain bytes sit
			// between the bytes to escape.
			b := make([]byte, rng.Intn(30))
			for k := range b {
				b[k] = byte(' ' + rng.Intn(95))
				if rng.Intn(10) == 0 {
					b[k] = byte(rng.Intn(256))
				}
			}
			row[j] = string(b)
		}
		cases = append(cases, QueryResponse{Vars: row, Rows: [][]string{row, row}, Count: 2, TookMs: rng.Float64() * 10, Method: row[0], Truncated: i%2 == 0})
	}
	for _, r := range cases {
		if got, want := written(r), encoded(t, r); !bytes.Equal(got, want) {
			t.Fatalf("writer and encoding/json differ on %+v:\ngot  %s\nwant %s", r, got, want)
		}
	}
}

// exoticKB holds individuals whose names need JSON escaping, and ones
// whose names hold ',', ' ' or '#', which the ABox text format cannot
// spell: among them "a,b" taking "c" and "a" taking "b,c", two answer
// rows with one comma-joined key.
func exoticKB(t testing.TB) *ogpa.KB {
	t.Helper()
	var data strings.Builder
	for _, name := range []string{"a<b>", "x&y", `q"uote`, `back\slash`, "ctl\x01", "bad\xff", "ls\u2028", "é⊥", "plain"} {
		fmt.Fprintf(&data, "PhD(%s)\nStudent(%s)\ntakesCourse(%s, DB101)\n", name, name, name)
	}
	data.WriteString("Student(hash#1)\nStudent(Bob)\ntakesCourse(Bob, DB101)\nCourse(DB101)\n")
	tbox, err := dllite.ParseTBox(strings.NewReader(`
Student SubClassOf some takesCourse
PhD SubClassOf Student
`))
	if err != nil {
		t.Fatal(err)
	}
	abox, err := dllite.ParseABox(strings.NewReader(data.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range [][2]string{{"a,b", "c"}, {"a", "b,c"}, {"two words", "DB101"}, {"frag#x", "a b"}, {"frag#x", "frag"}, {"frag", "#"}} {
		abox.AddConcept("PhD", c[0])
		abox.AddRole("takesCourse", c[0], c[1])
	}
	return ogpa.FromParts(tbox, abox)
}

// TestQueryBodyEveryPipeline: through the handler, every pipeline's
// /query body is the bytes encoding/json writes for the same answer built
// by the facade — byte for byte, with the measured tookMs — on names
// that need escaping or hold bytes at or below ',', truncated and
// minimized. Untruncated, every request kind returns the same rows, byte
// for byte.
func TestQueryBodyEveryPipeline(t *testing.T) {
	kb := exoticKB(t)
	h := Handler(kb)
	queries := []string{
		"q(x) :- PhD(x)",
		"q(x, y) :- Student(x), takesCourse(x, y)", // hash#1 takes an anonymous course
		"q(x) :- Course(x), PhD(x)",                // empty
	}
	rowsOf := map[string]string{} // query → the first kind's untruncated rows
	for _, baseline := range []string{"", "sparql", "perfectref+daf", "perfectrefopt+daf", "datalog", "saturate"} {
		for _, query := range queries {
			for _, maxResults := range []int{0, 2} {
				if baseline == "saturate" && maxResults > 0 {
					continue // which rows a truncated chase keeps follows its map order
				}
				// One worker: which rows a truncated parallel run keeps varies.
				req := QueryRequest{Query: query, Baseline: baseline, MaxResults: maxResults, Minimize: maxResults > 0, Workers: 1}
				method := "genogp+omatch"
				switch baseline {
				case "":
				case "sparql":
					req.Baseline, req.SPARQL, req.Minimize, method = "", true, false, "genogp+omatch (sparql)"
					req.Query = sparqlOf(query)
				default:
					method = baseline
				}
				body, _ := json.Marshal(req)
				rec := do(t, h, "POST", "/query", string(body))
				if rec.Code != http.StatusOK {
					t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body)
				}
				var got QueryResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
					t.Fatal(err)
				}
				text, rewrote := req.Query, ""
				if req.Minimize {
					min, err := ogpa.MinimizeQuery(text)
					if err != nil {
						t.Fatal(err)
					}
					if min != text {
						text, rewrote = min, min
					}
				}
				opt := ogpa.Options{MaxResults: maxResults, Workers: 1}
				var ans *ogpa.Answers
				var err error
				switch {
				case req.SPARQL:
					ans, err = kb.AnswerSPARQL(text, opt)
				case baseline == "":
					ans, err = kb.AnswerWithOptions(text, opt)
				default:
					ans, err = kb.AnswerBaseline(ogpa.Baseline(baseline), text, opt)
				}
				if err != nil {
					t.Fatal(err)
				}
				want := encoded(t, QueryResponse{
					Vars: ans.Vars, Rows: ans.Rows, Count: ans.Len(), TookMs: got.TookMs,
					Method: method, Rewrote: rewrote, Truncated: maxResults > 0 && ans.Len() >= maxResults,
				})
				if !bytes.Equal(rec.Body.Bytes(), want) {
					t.Fatalf("%s: body differs from encoding/json of the facade's answer:\ngot  %s\nwant %s", body, rec.Body, want)
				}
				if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(len(want)) {
					t.Fatalf("%s: Content-Length %s for %d bytes", body, cl, len(want))
				}
				if maxResults > 0 {
					continue // a truncated run keeps the answers it met first
				}
				var rows struct{ Rows json.RawMessage }
				if err := json.Unmarshal(rec.Body.Bytes(), &rows); err != nil {
					t.Fatal(err)
				}
				if first, ok := rowsOf[query]; !ok {
					rowsOf[query] = string(rows.Rows)
				} else if string(rows.Rows) != first {
					t.Fatalf("%s: rows differ from the first request kind's:\ngot  %s\nwant %s", body, rows.Rows, first)
				}
			}
		}
	}
}

// sparqlOf writes the test's CQs as SPARQL over the loader's IRIs.
func sparqlOf(query string) string {
	switch query {
	case "q(x) :- PhD(x)":
		return "SELECT ?x WHERE { ?x a <http://e/PhD> . }"
	case "q(x, y) :- Student(x), takesCourse(x, y)":
		return "SELECT ?x ?y WHERE { ?x a <http://e/Student> . ?x <http://e/takesCourse> ?y . }"
	default:
		return "SELECT ?x WHERE { ?x a <http://e/Course> . ?x a <http://e/PhD> . }"
	}
}

// TestEmptyAnswerRowsEveryPipeline: a query without answers encodes
// "rows":[] whichever pipeline answers it, over HTTP and from the facade's
// Answers, which the benchmark encodes for its oracle's byte check.
func TestEmptyAnswerRowsEveryPipeline(t *testing.T) {
	kb := testKB(t)
	h := Handler(kb)
	const query = "q(x) :- Course(x), takesCourse(x, y)"
	for _, baseline := range []string{"", "perfectref+daf", "perfectrefopt+daf", "datalog", "saturate"} {
		body := fmt.Sprintf(`{"query":%q,"baseline":%q}`, query, baseline)
		rec := do(t, h, "POST", "/query", body)
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"rows":[],"count":0,`) {
			t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body)
		}
		ans, err := kb.Answer(query)
		if baseline != "" {
			ans, err = kb.AnswerBaseline(ogpa.Baseline(baseline), query, ogpa.Options{})
		}
		if err != nil || ans.Rows == nil {
			t.Fatalf("%s: the facade's empty answer has nil rows (encoded as null), err %v", body, err)
		}
	}
}

// BenchmarkQueryResponse renders and encodes a /query body for an answer
// the size of LUBM Q8's on LUBM(48) (3,490 rows of two LUBM-style IRIs,
// as BenchmarkNames2D in internal/core): through the writer, straight from
// the packed answer, and through the route it replaced, Names2D's
// [][]string encoded by encoding/json.
func BenchmarkQueryResponse(b *testing.B) {
	gb := graph.NewBuilder(nil)
	s := core.NewAnswerSet()
	for i := 0; i < 3490; i++ {
		x := gb.Vertex(fmt.Sprintf("http://www.Department%d.University%d.edu/UndergraduateStudent%d", i%15, i%3, i))
		y := gb.Vertex(fmt.Sprintf("http://www.Department%d.University%d.edu", i%15, i%3))
		s.Add(core.Answer{x, y})
	}
	g := gb.Freeze()
	g.Symbols.Freeze()
	vars := []string{"x", "y"}
	b.Run("writer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf := getBody()
			*buf = appendQueryHead(*buf, vars)
			for row := range s.Rows(g) {
				*buf = appendRow(*buf, row)
			}
			*buf = appendQueryTail(*buf, &QueryResponse{Count: s.Len(), TookMs: 1.234, Method: "genogp+omatch"})
			b.SetBytes(int64(len(*buf)))
			putBody(buf)
		}
	})
	b.Run("names2d+json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows := s.Names2D(g)
			r := QueryResponse{Vars: vars, Rows: rows, Count: len(rows), TookMs: 1.234, Method: "genogp+omatch"}
			if err := json.NewEncoder(io.Discard).Encode(r); err != nil {
				b.Fatal(err)
			}
		}
	})
}
