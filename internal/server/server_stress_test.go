package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentRequests fires overlapping requests at every endpoint from
// many goroutines sharing one Handler (and therefore one KB and one frozen
// symbol table). Run under -race this is the repository's concurrency
// audit: it exercises the lock-free symbol-table reads, the metrics mutex,
// and the per-request matcher state all at once.
func TestConcurrentRequests(t *testing.T) {
	h := Handler(testKB(t))

	requests := []struct {
		method, path, body string
		wantCode           int
	}{
		{"POST", "/query", `{"query":"q(x) :- Student(x), takesCourse(x, y)"}`, http.StatusOK},
		{"POST", "/query", `{"query":"q(x) :- PhD(x)"}`, http.StatusOK},
		{"POST", "/query", `{"query":"SELECT ?x WHERE { ?x a <http://e/Student> . }","sparql":true}`, http.StatusOK},
		{"POST", "/query", `{"query":"q(x) :- Student(x)","baseline":"datalog"}`, http.StatusOK},
		{"POST", "/query", `{"query":"q(x) :- Student(x)","baseline":"saturate"}`, http.StatusOK},
		{"POST", "/query", `{"query":"q(x) :- Student(x)","baseline":"perfectref+daf"}`, http.StatusOK},
		{"POST", "/query", `{"query":"q(x) :- takesCourse(x, y), takesCourse(x, z)"}`, http.StatusOK},
		// Unknown labels must resolve through Lookup misses, never Intern.
		{"POST", "/query", `{"query":"q(x) :- NoSuchClass(x)"}`, http.StatusOK},
		{"POST", "/rewrite", `{"query":"q(x) :- takesCourse(x, y)"}`, http.StatusOK},
		{"GET", "/stats", "", http.StatusOK},
		{"GET", "/consistency", "", http.StatusOK},
		// Error paths share the metrics counters too.
		{"POST", "/query", `{"query":"not a query"}`, http.StatusBadRequest},
	}

	const workers = 16
	const rounds = 8

	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds*len(requests))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Stagger so goroutines overlap on different endpoints.
				for i := range requests {
					req := requests[(i+w)%len(requests)]
					var body *strings.Reader
					if req.body == "" {
						body = strings.NewReader("")
					} else {
						body = strings.NewReader(req.body)
					}
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(req.method, req.path, body))
					if rec.Code != req.wantCode {
						errs <- fmt.Errorf("%s %s %q: status %d, want %d: %s",
							req.method, req.path, req.body, rec.Code, req.wantCode, rec.Body)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The metrics counters must have seen every request exactly once.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	var stats StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	const perWorker = rounds * 9 // query endpoint hits per worker per round: 8 ok + 1 error
	if want := uint64(workers * perWorker); stats.Queries != want {
		t.Errorf("stats.Queries = %d, want %d", stats.Queries, want)
	}
	if want := uint64(workers * rounds); stats.Rewrites != want {
		t.Errorf("stats.Rewrites = %d, want %d", stats.Rewrites, want)
	}
	if want := uint64(workers * rounds); stats.Errors != want {
		t.Errorf("stats.Errors = %d, want %d", stats.Errors, want)
	}
}

// TestHandlerFreezesSymbols pins the serve-phase contract: after Handler
// wires up a KB, its symbol table is frozen and rejects new strings.
func TestHandlerFreezesSymbols(t *testing.T) {
	kb := testKB(t)
	Handler(kb)
	if !kb.Graph().Symbols.Frozen() {
		t.Fatal("Handler must freeze the KB's symbol table")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intern of a new string on a frozen table must panic")
		}
	}()
	kb.Graph().Symbols.Intern("brand-new-symbol")
}
