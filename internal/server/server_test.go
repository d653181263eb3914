package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ogpa"
)

func testKB(t *testing.T) *ogpa.KB {
	t.Helper()
	kb, err := ogpa.NewKB(strings.NewReader(`
Student SubClassOf some takesCourse
PhD SubClassOf Student
PhD SubClassOf some advisorOf-
Student DisjointWith Course
`), strings.NewReader(`
PhD(Ann)
Student(Bob)
takesCourse(Bob, DB101)
Course(DB101)
`))
	if err != nil {
		t.Fatal(err)
	}
	return kb
}

func do(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestQueryEndpoint(t *testing.T) {
	h := Handler(testKB(t))
	rec := do(t, h, "POST", "/query", `{"query":"q(x) :- Student(x), takesCourse(x, y)"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 2 || resp.Rows[0][0] != "Ann" || resp.Rows[1][0] != "Bob" {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Method != "genogp+omatch" || resp.TookMs < 0 {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestQuerySPARQLAndBaseline(t *testing.T) {
	h := Handler(testKB(t))
	rec := do(t, h, "POST", "/query", `{"query":"SELECT ?x WHERE { ?x a <http://e/Student> . }","sparql":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("sparql status %d: %s", rec.Code, rec.Body)
	}
	var resp QueryResponse
	_ = json.Unmarshal(rec.Body.Bytes(), &resp)
	if resp.Count != 2 {
		t.Fatalf("sparql resp = %+v", resp)
	}

	rec = do(t, h, "POST", "/query", `{"query":"q(x) :- Student(x)","baseline":"datalog"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("baseline status %d: %s", rec.Code, rec.Body)
	}
	_ = json.Unmarshal(rec.Body.Bytes(), &resp)
	if resp.Count != 2 || resp.Method != "datalog" {
		t.Fatalf("baseline resp = %+v", resp)
	}
}

// TestQueryTruncatedEveryMethod: a request whose rows stop at maxResults
// says so in the response, whichever pipeline answered it, and one under
// its limit does not.
func TestQueryTruncatedEveryMethod(t *testing.T) {
	h := Handler(testKB(t))
	for _, baseline := range []string{"", "perfectref+daf", "datalog", "saturate"} {
		for _, tc := range []struct {
			maxResults, count int
			truncated         bool
		}{{1, 1, true}, {5, 2, false}} {
			body := fmt.Sprintf(`{"query":"q(x) :- Student(x)","baseline":%q,"maxResults":%d}`, baseline, tc.maxResults)
			rec := do(t, h, "POST", "/query", body)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body)
			}
			var resp QueryResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Count != tc.count || len(resp.Rows) != tc.count || resp.Truncated != tc.truncated {
				t.Fatalf("%s: count %d, truncated %v; want %d, %v: %s",
					body, resp.Count, resp.Truncated, tc.count, tc.truncated, rec.Body)
			}
		}
	}
}

// TestRewriteReportsCore: every query path answers the query's core, and
// /rewrite reports the core it rewrote: a padded text's core keeps one
// takesCourse, and the padded text and the core's own text rewrite to
// one pattern. No request field switches minimization, so a body that
// still sends "minimize" is refused like any unknown field.
func TestRewriteReportsCore(t *testing.T) {
	h := Handler(testKB(t))
	rewrite := func(query string) RewriteResponse {
		t.Helper()
		body, _ := json.Marshal(QueryRequest{Query: query})
		rec := do(t, h, "POST", "/rewrite", string(body))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body)
		}
		var resp RewriteResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	padded := rewrite("q(x) :- takesCourse(x, y), takesCourse(x, z)")
	if strings.Count(padded.Core, "takesCourse") != 1 || !strings.HasPrefix(padded.Core, "q(x) :- ") {
		t.Fatalf("padded rewrite = %+v", padded)
	}
	if core := rewrite(padded.Core); core.Core != padded.Core || core.Pattern != padded.Pattern || core.CondCount != padded.CondCount {
		t.Fatalf("the core's own text rewrites to %+v, the padded text to %+v", core, padded)
	}
	for _, path := range []string{"/query", "/rewrite"} {
		rec := do(t, h, "POST", path, `{"query":"q(x) :- takesCourse(x, y), takesCourse(x, z)","minimize":true}`)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "minimize") {
			t.Fatalf("%s with \"minimize\": status %d: %s", path, rec.Code, rec.Body)
		}
	}
}

func TestRewriteEndpoint(t *testing.T) {
	h := Handler(testKB(t))
	rec := do(t, h, "POST", "/rewrite", `{"query":"q(x) :- takesCourse(x, y)"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp RewriteResponse
	_ = json.Unmarshal(rec.Body.Bytes(), &resp)
	if resp.CondCount == 0 || !strings.Contains(resp.Pattern, "PhD") {
		t.Fatalf("resp = %+v", resp)
	}
}

// TestRewriteEndpointSPARQL: /rewrite honours "sparql": true like /query
// does, and the two surface syntaxes of one query rewrite to one OGP.
func TestRewriteEndpointSPARQL(t *testing.T) {
	h := Handler(testKB(t))
	rec := do(t, h, "POST", "/rewrite", `{"query":"SELECT ?x WHERE { ?x <http://e/takesCourse> ?y . }","sparql":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var sp, plain RewriteResponse
	_ = json.Unmarshal(rec.Body.Bytes(), &sp)
	rec = do(t, h, "POST", "/rewrite", `{"query":"q(x) :- takesCourse(x, y)"}`)
	_ = json.Unmarshal(rec.Body.Bytes(), &plain)
	if sp.CondCount == 0 || sp.CondCount != plain.CondCount || !strings.Contains(sp.Pattern, "PhD") {
		t.Fatalf("sparql rewrite = %+v, cq rewrite = %+v", sp, plain)
	}
}

// TestConsistencyFailureCounted: a failing consistency check is a 500
// that /stats.errors counts, like every other failed request.
func TestConsistencyFailureCounted(t *testing.T) {
	m := &metrics{}
	h := consistencyHandler(func() ([]string, error) { return nil, errors.New("boom") }, m)
	rec := do(t, h, "GET", "/consistency", "")
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "boom") {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if _, _, errs, _, _ := m.snapshot(); errs != 1 {
		t.Fatalf("errors = %d, want 1", errs)
	}
}

func TestStatsAndConsistency(t *testing.T) {
	h := Handler(testKB(t))
	rec := do(t, h, "GET", "/stats", "")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "|O|=3") {
		t.Fatalf("stats: %d %s", rec.Code, rec.Body)
	}
	rec = do(t, h, "GET", "/consistency", "")
	var resp ConsistencyResponse
	_ = json.Unmarshal(rec.Body.Bytes(), &resp)
	if !resp.Consistent {
		t.Fatalf("consistency = %+v", resp)
	}

	// Inconsistent KB.
	bad, err := ogpa.NewKB(strings.NewReader("Student DisjointWith Course"),
		strings.NewReader("Student(x1)\nCourse(x1)"))
	if err != nil {
		t.Fatal(err)
	}
	rec = do(t, Handler(bad), "GET", "/consistency", "")
	_ = json.Unmarshal(rec.Body.Bytes(), &resp)
	if resp.Consistent || len(resp.Violations) != 1 {
		t.Fatalf("consistency = %+v", resp)
	}
}

// TestOversizedBody: a JSON body over maxBodyBytes gets 413 on /query and
// POST /subscribe, an N-Triples body over maxMutationBytes gets 413 on
// /insert and /delete and leaves the epoch as it was, /stats counts each
// as an error, and the next /query is served.
func TestOversizedBody(t *testing.T) {
	kb, h := subKB(t, Config{})
	epoch := kb.Epoch()
	big := `{"query":"` + strings.Repeat("x", 2<<20) + `"}`
	// A triple the batch would commit, then comment lines past the cap;
	// and one line past the cap.
	bigTriples := "<carl> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <Student> .\n" +
		strings.Repeat("#"+strings.Repeat("x", 1023)+"\n", maxMutationBytes>>10)
	bigLine := "#" + strings.Repeat("x", maxMutationBytes)
	bodies := []struct{ path, body string }{
		{"/query", big}, {"/subscribe", big},
		{"/insert", bigTriples}, {"/delete", bigTriples}, {"/insert", bigLine},
	}
	for _, c := range bodies {
		if rec := do(t, h, "POST", c.path, c.body); rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s with a %d MiB body: status %d: %.200s", c.path, len(c.body)>>20, rec.Code, rec.Body)
		}
	}
	if got := kb.Epoch(); got != epoch {
		t.Fatalf("epoch %d after oversized mutations, want %d", got, epoch)
	}
	if rec := do(t, h, "POST", "/query", `{"query":"q(x) :- Student(x)"}`); rec.Code != http.StatusOK {
		t.Fatalf("/query after an oversized body: status %d: %s", rec.Code, rec.Body)
	}
	var st StatsResponse
	if err := json.Unmarshal(do(t, h, "GET", "/stats", "").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Errors != uint64(len(bodies)) {
		t.Fatalf("/stats errors = %d, want %d", st.Errors, len(bodies))
	}
}

func TestErrors(t *testing.T) {
	h := Handler(testKB(t))
	cases := []struct {
		method, path, body string
	}{
		{"POST", "/query", `{`},
		{"POST", "/query", `{}`},
		{"POST", "/query", `{"query":"not a query"}`},
		{"POST", "/query", `{"query":"q(x) :- Student(x)","unknown":1}`},
		{"POST", "/query", `{"query":"q(x) :- Student(x)","baseline":"nope"}`},
		{"POST", "/rewrite", `{"query":"broken"}`},
	}
	for _, c := range cases {
		rec := do(t, h, c.method, c.path, c.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s %s %q: status %d", c.method, c.path, c.body, rec.Code)
		}
	}
	// Wrong method hits the mux's 405.
	rec := do(t, h, "GET", "/query", "")
	if rec.Code == http.StatusOK {
		t.Error("GET /query should not succeed")
	}
}
