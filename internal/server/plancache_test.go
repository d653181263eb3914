package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ogpa"
	"ogpa/internal/testkb"
)

func postQuery(t *testing.T, h http.Handler, query string) QueryResponse {
	t.Helper()
	rec := do(t, h, "POST", "/query", fmt.Sprintf(`{"query":%q}`, query))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func statsOf(t *testing.T, h http.Handler) StatsResponse {
	t.Helper()
	rec := do(t, h, "GET", "/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d: %s", rec.Code, rec.Body)
	}
	var resp StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

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

// planStep is one request of a plan-cache script and the counters /stats
// must report after it: planCacheMisses and planCacheHits.
type planStep struct {
	path, body string
	canceled   bool // sent under an already-canceled request context
	counts     [2]uint64
}

// triangleFreeKB is a four-layer cyclic graph (every r edge goes from
// layer l to layer l+1 mod 4), so a triangle query enumerates ~33k steps
// — well over a millisecond — and finds nothing.
func triangleFreeKB(t *testing.T) *ogpa.KB {
	t.Helper()
	const n = 128
	var data strings.Builder
	for l := 0; l < 4; l++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j += 2 {
				fmt.Fprintf(&data, "r(v%d_%d, v%d_%d)\n", l, i, (l+1)%4, (i+j)%n)
			}
		}
	}
	kb, err := ogpa.NewKB(strings.NewReader("A SubClassOf B"), strings.NewReader(data.String()))
	if err != nil {
		t.Fatal(err)
	}
	return kb
}

// stepResponse serves s and renders its status and JSON body with tookMs
// removed, the one field that differs between two runs of one request.
func stepResponse(t *testing.T, h http.Handler, s planStep) string {
	t.Helper()
	req := httptest.NewRequest("POST", s.path, strings.NewReader(s.body))
	if s.canceled {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		req = req.WithContext(ctx)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("%s %s: %v", s.path, rec.Body, err)
	}
	delete(body, "tookMs")
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%d %s", rec.Code, b)
}

// TestPlanCacheReuse counts what each request of a script reached — plan
// miss or plan hit — and requires every response to equal what a handler
// with the plan cache disabled answers over an identically built KB: a
// reused plan answers like a fresh one whatever the request's limits, and
// a run that fails or stops early leaves nothing behind in the entry.
func TestPlanCacheReuse(t *testing.T) {
	const (
		q        = `{"query":"q(x) :- Student(x), takesCourse(x, y)"}`
		capped   = `{"query":"q(x) :- Student(x), takesCourse(x, y)","maxResults":1}`
		tri      = `{"query":"q(x) :- r(x, y), r(y, z), r(z, x)"}`
		triTimed = `{"query":"q(x) :- r(x, y), r(y, z), r(z, x)","timeoutMs":1}`
		insert   = "Carl a Student .\nCarl takesCourse DB101 ."
	)
	live := func(t *testing.T) *ogpa.KB { return liveTestKB(t) }
	cases := []struct {
		name  string
		kb    func(*testing.T) *ogpa.KB
		steps []planStep
	}{
		{"read-only", testKB, []planStep{
			{"/query", q, false, [2]uint64{1, 0}},
			{"/query", q, false, [2]uint64{1, 1}},
			{"/query", q, false, [2]uint64{1, 2}},
		}},
		// An insert bumps the epoch: the next request misses and sees it.
		{"live", live, []planStep{
			{"/query", q, false, [2]uint64{1, 0}},
			{"/query", q, false, [2]uint64{1, 1}},
			{"/insert", insert, false, [2]uint64{1, 1}},
			{"/query", q, false, [2]uint64{2, 1}},
			{"/query", q, false, [2]uint64{2, 2}},
		}},
		// maxResults shares the plan of the uncapped request.
		{"maxResults", testKB, []planStep{
			{"/query", capped, false, [2]uint64{1, 0}},
			{"/query", capped, false, [2]uint64{1, 1}},
			{"/query", q, false, [2]uint64{1, 2}},
			{"/query", capped, false, [2]uint64{1, 3}},
			{"/query", q, false, [2]uint64{1, 4}},
		}},
		// A run cut short by timeoutMs fails; the plan stays cached.
		{"timeoutMs", triangleFreeKB, []planStep{
			{"/query", triTimed, false, [2]uint64{1, 0}},
			{"/query", triTimed, false, [2]uint64{1, 1}},
			{"/query", tri, false, [2]uint64{1, 2}},
		}},
		// A run truncated by a gone client likewise.
		{"canceled", testKB, []planStep{
			{"/query", q, true, [2]uint64{1, 0}},
			{"/query", q, true, [2]uint64{1, 1}},
			{"/query", q, false, [2]uint64{1, 2}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := Handler(tc.kb(t))
			ref := HandlerWithConfig(tc.kb(t), Config{PlanCacheSize: -1})
			for i, s := range tc.steps {
				got, want := stepResponse(t, h, s), stepResponse(t, ref, s)
				if got != want {
					t.Fatalf("step %d (%s %s): response\n%s\nwant, as with the plan cache off,\n%s", i, s.path, s.body, got, want)
				}
				st := statsOf(t, h)
				if c := [2]uint64{st.PlanCacheMisses, st.PlanCacheHits}; c != s.counts {
					t.Fatalf("step %d (%s %s): misses/hits = %v, want %v", i, s.path, s.body, c, s.counts)
				}
			}
		})
	}
}

// TestPlanCacheConcurrentOneKey races 16 goroutines on one plan-cache key
// of a read-only KB, so the entry is put and shared concurrently (CI runs
// it under -race). Every response carries the full answer.
func TestPlanCacheConcurrentOneKey(t *testing.T) {
	const (
		query   = `q(x) :- Student(x), takesCourse(x, y)`
		workers = 16
		rounds  = 8
	)
	body := fmt.Sprintf(`{"query":%q}`, query)
	want := fmt.Sprint(postQuery(t, HandlerWithConfig(testKB(t), Config{PlanCacheSize: -1}), query).Rows)
	h := Handler(testKB(t))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				rec := do(t, h, "POST", "/query", body)
				var resp QueryResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
					t.Errorf("status %d: %s (%v)", rec.Code, rec.Body, err)
					return
				}
				if got := fmt.Sprint(resp.Rows); got != want {
					t.Errorf("rows %s, want %s", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := statsOf(t, h)
	if st.PlanCacheHits+st.PlanCacheMisses != workers*rounds || st.PlanCacheSize != 1 {
		t.Fatalf("misses=%d hits=%d size=%d after %d requests", st.PlanCacheMisses, st.PlanCacheHits, st.PlanCacheSize, workers*rounds)
	}
}

// TestPlanCacheRandomKBs: over 100 random KBs, the third response to each
// query — the second one a cached plan answers — equals kb.Answer.
func TestPlanCacheRandomKBs(t *testing.T) {
	if testing.Short() {
		t.Skip("100-seed property test")
	}
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb, abox, q := testkb.RandomKB(rng)
		onto, data := testkb.Render(tb, abox)
		kb, err := ogpa.NewKB(strings.NewReader(onto), strings.NewReader(data))
		if err != nil {
			t.Fatalf("seed %d: NewKB: %v", seed, err)
		}
		h := Handler(kb)
		queries := []string{q.String()}
		for k := 0; k < 3; k++ {
			queries = append(queries, testkb.RandomQuery(rng).String())
		}
		for _, src := range queries {
			want, err := kb.Answer(src)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, src, err)
			}
			before := statsOf(t, h).PlanCacheHits
			var third QueryResponse
			for i := 0; i < 3; i++ {
				third = postQuery(t, h, src)
			}
			if statsOf(t, h).PlanCacheHits == before {
				t.Fatalf("seed %d %s: no cached plan answered any of three requests", seed, src)
			}
			if got, w := fmt.Sprint(third.Rows), fmt.Sprint(want.Rows); got != w {
				t.Fatalf("seed %d %s: cached plan answered %s, kb.Answer %s", seed, src, got, w)
			}
		}
	}
}
