package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"ogpa"
)

// TestPlanCacheAlternatingQueries is the correctness + reuse contract of
// the plan cache: two distinct queries alternated across repeated
// requests keep returning their own (correct) answers — cached plans
// never leak across keys — and the hit counter shows that every request
// after each query's first skipped GenOGP.
func TestPlanCacheAlternatingQueries(t *testing.T) {
	h := Handler(testKB(t))
	queries := []struct {
		body      string
		wantCount int
		wantFirst string
	}{
		{`{"query":"q(x) :- Student(x), takesCourse(x, y)"}`, 2, "Ann"},
		{`{"query":"q(x) :- PhD(x)"}`, 1, "Ann"},
	}
	const rounds = 4
	for round := 0; round < rounds; round++ {
		for qi, q := range queries {
			rec := do(t, h, "POST", "/query", q.body)
			if rec.Code != http.StatusOK {
				t.Fatalf("round %d query %d: status %d: %s", round, qi, rec.Code, rec.Body)
			}
			var resp QueryResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Count != q.wantCount || resp.Rows[0][0] != q.wantFirst {
				t.Fatalf("round %d query %d: resp = %+v, want count %d first %q",
					round, qi, resp, q.wantCount, q.wantFirst)
			}
		}
	}

	rec := do(t, h, "POST", "/query", `{"query":"q(x) :- Student(x)","baseline":"datalog"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("baseline status %d: %s", rec.Code, rec.Body)
	}

	var stats StatsResponse
	rec = do(t, h, "GET", "/stats", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	// Each query misses once (its first request) and hits on every later
	// round; the baseline request bypasses the cache entirely.
	wantMisses := uint64(len(queries))
	wantHits := uint64(len(queries) * (rounds - 1))
	if stats.PlanCacheMisses != wantMisses || stats.PlanCacheHits != wantHits {
		t.Fatalf("plan cache hits=%d misses=%d, want hits=%d misses=%d",
			stats.PlanCacheHits, stats.PlanCacheMisses, wantHits, wantMisses)
	}
	if stats.PlanCacheSize != len(queries) {
		t.Fatalf("plan cache size = %d, want %d", stats.PlanCacheSize, len(queries))
	}
}

// TestPlanCacheBaselineKinds: UCQ-baseline requests are cached alongside
// OGP plans under their own kind. Alternating the same query through the
// primary pipeline and the perfectref+daf baseline must (a) answer
// identically, (b) hit the cache on every round after the first for BOTH
// kinds, and (c) surface the split per kind in /stats, with the datalog
// baseline still bypassing the cache.
func TestPlanCacheBaselineKinds(t *testing.T) {
	h := Handler(testKB(t))
	requests := []struct {
		kind string
		body string
	}{
		{"cq", `{"query":"q(x) :- Student(x), takesCourse(x, y)"}`},
		{"ucq:perfectref+daf", `{"query":"q(x) :- Student(x), takesCourse(x, y)","baseline":"perfectref+daf"}`},
	}
	const rounds = 3
	var want string
	for round := 0; round < rounds; round++ {
		for _, rq := range requests {
			rec := do(t, h, "POST", "/query", rq.body)
			if rec.Code != http.StatusOK {
				t.Fatalf("round %d kind %s: status %d: %s", round, rq.kind, rec.Code, rec.Body)
			}
			var resp QueryResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			rows := fmt.Sprint(resp.Rows)
			if want == "" {
				want = rows
			} else if rows != want {
				t.Fatalf("round %d kind %s: rows %s diverge from %s", round, rq.kind, rows, want)
			}
		}
	}
	// One datalog request: same answers, but no cache traffic.
	rec := do(t, h, "POST", "/query", `{"query":"q(x) :- Student(x), takesCourse(x, y)","baseline":"datalog"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("datalog status %d: %s", rec.Code, rec.Body)
	}

	var stats StatsResponse
	rec = do(t, h, "GET", "/stats", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	wantMisses := uint64(len(requests))
	wantHits := uint64(len(requests) * (rounds - 1))
	if stats.PlanCacheMisses != wantMisses || stats.PlanCacheHits != wantHits {
		t.Fatalf("plan cache hits=%d misses=%d, want hits=%d misses=%d",
			stats.PlanCacheHits, stats.PlanCacheMisses, wantHits, wantMisses)
	}
	if stats.PlanCacheSize != len(requests) {
		t.Fatalf("plan cache size = %d, want %d", stats.PlanCacheSize, len(requests))
	}
	for _, rq := range requests {
		ks, ok := stats.PlanCacheByKind[rq.kind]
		if !ok {
			t.Fatalf("kind %s missing from PlanCacheByKind %v", rq.kind, stats.PlanCacheByKind)
		}
		if ks.Hits != rounds-1 || ks.Misses != 1 || ks.Size != 1 {
			t.Fatalf("kind %s: hits=%d misses=%d size=%d, want %d/1/1",
				rq.kind, ks.Hits, ks.Misses, ks.Size, rounds-1)
		}
	}
	if len(stats.PlanCacheByKind) != len(requests) {
		t.Fatalf("PlanCacheByKind has %d kinds (%v), want %d — the datalog baseline must not touch the cache",
			len(stats.PlanCacheByKind), stats.PlanCacheByKind, len(requests))
	}
}

// TestPlanCacheDisabled pins the negative-capacity escape hatch: with
// caching off every request still answers correctly and the counters
// stay zero.
func TestPlanCacheDisabled(t *testing.T) {
	h := HandlerWithConfig(testKB(t), Config{PlanCacheSize: -1})
	for i := 0; i < 3; i++ {
		rec := do(t, h, "POST", "/query", `{"query":"q(x) :- PhD(x)"}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	var stats StatsResponse
	rec := do(t, h, "GET", "/stats", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.PlanCacheHits != 0 || stats.PlanCacheMisses != 0 || stats.PlanCacheSize != 0 {
		t.Fatalf("disabled cache reported hits=%d misses=%d size=%d",
			stats.PlanCacheHits, stats.PlanCacheMisses, stats.PlanCacheSize)
	}
}

// TestPlanCacheLRUEviction pins the eviction order: with capacity 2 and
// three distinct queries in rotation, the least recently used plan is
// evicted, so a fourth request for it misses again.
func TestPlanCacheLRUEviction(t *testing.T) {
	h := HandlerWithConfig(testKB(t), Config{PlanCacheSize: 2})
	q := func(name string) string {
		return fmt.Sprintf(`{"query":"q(x) :- %s(x)"}`, name)
	}
	// A, B fill the cache; C evicts A; A misses again and evicts B.
	for _, name := range []string{"Student", "PhD", "Course", "Student"} {
		rec := do(t, h, "POST", "/query", q(name))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, rec.Code, rec.Body)
		}
	}
	var stats StatsResponse
	rec := do(t, h, "GET", "/stats", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.PlanCacheMisses != 4 || stats.PlanCacheHits != 0 || stats.PlanCacheSize != 2 {
		t.Fatalf("hits=%d misses=%d size=%d, want 0/4/2",
			stats.PlanCacheHits, stats.PlanCacheMisses, stats.PlanCacheSize)
	}
}

// TestPlanCacheBaselineRewriteTimeout: timeoutMs bounds the PerfectRef
// rewriting of a UCQ-baseline request on the cached path exactly as it
// does with the cache disabled — the same request fails with the
// rewriter's limit error under both configurations — and the failed
// rewriting leaves nothing in the cache.
func TestPlanCacheBaselineRewriteTimeout(t *testing.T) {
	// A 12-deep class chain under a three-atom query: the UCQ has 13^3
	// disjuncts, far more than PerfectRef can produce in a millisecond.
	var onto strings.Builder
	for i := 1; i <= 12; i++ {
		fmt.Fprintf(&onto, "A%d SubClassOf A%d\n", i, i-1)
	}
	body := `{"query":"q(x) :- A0(x), r(x, y), A0(y), r(y, z), A0(z)","baseline":"perfectref+daf","timeoutMs":1}`
	for name, cfg := range map[string]Config{"cached": {}, "uncached": {PlanCacheSize: -1}} {
		kb, err := ogpa.NewKB(strings.NewReader(onto.String()), strings.NewReader("A12(a)\nr(a, a)\n"))
		if err != nil {
			t.Fatal(err)
		}
		h := HandlerWithConfig(kb, cfg)
		rec := do(t, h, "POST", "/query", body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "perfectref: rewriting limit exceeded") {
			t.Fatalf("%s: status %d body %s, want 400 with the perfectref limit error", name, rec.Code, rec.Body)
		}
		if st := statsOf(t, h); st.PlanCacheSize != 0 {
			t.Fatalf("%s: failed rewriting left %d plans in the cache", name, st.PlanCacheSize)
		}
	}
}
