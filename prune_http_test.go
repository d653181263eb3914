package ogpa_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ogpa"
	"ogpa/internal/gen"
	"ogpa/internal/qgen"
	"ogpa/internal/server"
)

// TestAbsentRoleComesAlive is the epoch argument behind compile-time
// pruning, driven over HTTP. The rewriting of q(x, y) :- takesCourse(x, y)
// mentions enrolledIn, which no triple carries yet, so the plan built at
// the first epoch has that disjunct pruned away. A triple with the role
// makes a new epoch: the plan cache misses, the next Prepare sees the role
// and its row appears. A plan pinned at the old epoch keeps its answer.
func TestAbsentRoleComesAlive(t *testing.T) {
	kb, err := ogpa.NewKB(strings.NewReader("Student SubClassOf some takesCourse\nenrolledIn SubPropertyOf takesCourse\n"),
		strings.NewReader("Student(Bob)\ntakesCourse(Bob, DB101)\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := kb.EnableLiveData(-1); err != nil {
		t.Fatal(err)
	}
	const query = `q(x, y) :- takesCourse(x, y)`
	pinned, err := kb.Prepare(query)
	if err != nil {
		t.Fatal(err)
	}
	if st := pinned.Stats(); st.IndexedEdges != 1 || st.PatternEdges != 1 {
		t.Fatalf("indexed %d of %d edges; the enrolledIn disjunct should be pruned and the edge indexed", st.IndexedEdges, st.PatternEdges)
	}
	srv := httptest.NewServer(server.Handler(kb))
	defer srv.Close()
	post := func(path, body string, out any) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	ask := func() string {
		t.Helper()
		var qr server.QueryResponse
		post("/query", fmt.Sprintf(`{"query":%q}`, query), &qr)
		return fmt.Sprint(qr.Rows)
	}

	before := "[[Bob DB101]]"
	if got := ask(); got != before {
		t.Fatalf("first epoch: rows %s, want %s", got, before)
	}
	if got := ask(); got != before { // a plan-cache hit at the same epoch
		t.Fatalf("first epoch, cached plan: rows %s, want %s", got, before)
	}
	var mr server.MutationResponse
	post("/insert", "Carl enrolledIn DB102 .", &mr)
	if mr.Applied != 1 {
		t.Fatalf("insert: %+v", mr)
	}
	if got, want := ask(), "[[Bob DB101] [Carl DB102]]"; got != want {
		t.Fatalf("after inserting the first enrolledIn triple: rows %s, want %s", got, want)
	}
	var stats server.StatsResponse
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.PlanCacheHits != 1 || stats.PlanCacheMisses != 2 {
		t.Fatalf("plan cache hits %d, misses %d; want 1 and 2 (one miss per epoch)", stats.PlanCacheHits, stats.PlanCacheMisses)
	}

	old, err := pinned.Answer(ogpa.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(old.Rows); got != before {
		t.Fatalf("plan pinned at the first epoch: rows %s, want %s", got, before)
	}
}

// TestLUBMQueriesIndexEveryEdge: on LUBM(3), every edge of every LUBM
// query's OGP is enumerated from adjacency, and no query evaluates more
// than a few condition atoms per search step. Q2, Q5, Q8 and Q13 used to
// check their x–y edge per candidate, because one disjunct of it is over
// a role the data lacks, at up to 3,900 atoms per step on LUBM(48).
func TestLUBMQueriesIndexEveryEdge(t *testing.T) {
	d := gen.LUBM(gen.LUBMConfig{Universities: 3, Seed: 1})
	kb := ogpa.FromParts(d.TBox, d.ABox)
	for i, q := range qgen.LUBMQueries() {
		pq, err := kb.Prepare(q.String())
		if err != nil {
			t.Fatal(err)
		}
		ans, st, err := pq.AnswerWithStats(ogpa.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if st.IndexedEdges != st.PatternEdges || st.AtomEvals > 16*st.Steps+256 {
			t.Errorf("Q%d: %d of %d edges indexed, %d atom evaluations in %d steps", i+1, st.IndexedEdges, st.PatternEdges, st.AtomEvals, st.Steps)
		}
		want, err := kb.AnswerBaseline(ogpa.BaselineDatalog, q.String(), ogpa.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(ans.Rows) != fmt.Sprint(want.Rows) {
			t.Errorf("Q%d: %d rows, datalog %d", i+1, ans.Len(), want.Len())
		}
	}
}
