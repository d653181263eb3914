package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ogpa"
)

// subKB returns a live KB and a handler with subscriptions enabled.
func subKB(t *testing.T, cfg Config) (*ogpa.KB, http.Handler) {
	t.Helper()
	kb := testKB(t)
	if err := kb.EnableLiveData(-1); err != nil {
		t.Fatal(err)
	}
	cfg.Subscriptions = true
	h := HandlerWithConfig(kb, cfg)
	t.Cleanup(func() {
		//lint:ignore droppederr test teardown; Close failures surface as leaked-goroutine noise, not silent corruption
		_ = kb.Close()
	})
	return kb, h
}

// subscribe registers a standing query and returns its id.
func subscribe(t *testing.T, h http.Handler, body string) SubscribeResponse {
	t.Helper()
	rec := do(t, h, "POST", "/subscribe", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("subscribe status %d: %s", rec.Code, rec.Body)
	}
	var resp SubscribeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// stats reads GET /stats.
func stats(t *testing.T, h http.Handler) StatsResponse {
	t.Helper()
	rec := do(t, h, "GET", "/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d: %s", rec.Code, rec.Body)
	}
	var st StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// poll long-polls one delta; it fails the test on any status but 200.
func poll(t *testing.T, h http.Handler, id uint64) ogpa.AnswerDelta {
	t.Helper()
	rec := do(t, h, "GET", fmt.Sprintf("/subscribe/%d/poll?timeoutMs=10000", id), "")
	if rec.Code != http.StatusOK {
		t.Fatalf("poll status %d: %s", rec.Code, rec.Body)
	}
	var d ogpa.AnswerDelta
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSubscribeEndpointLifecycle drives one subscription through
// subscribe, poll, idle poll, /stats and unsubscribe. /stats has no
// incremental block before the first subscription.
func TestSubscribeEndpointLifecycle(t *testing.T) {
	t.Run(string(ogpa.BaselineDatalog), testSubscribeLifecycle)
}

func testSubscribeLifecycle(t *testing.T) {
	kb, h := subKB(t, Config{})
	if st := stats(t, h); st.Incremental != nil {
		t.Fatalf("stats incremental before the first subscription = %+v", st.Incremental)
	}

	resp := subscribe(t, h, `{"query":"q(x) :- Student(x)"}`)
	if resp.ID == 0 || resp.Query != "q(x) :- Student(x)" ||
		len(resp.Vars) != 1 || resp.Vars[0] != "x" {
		t.Fatalf("subscribe resp = %+v", resp)
	}

	// First poll: the full current answer set.
	d := poll(t, h, resp.ID)
	if len(d.Added) != 2 || d.Added[0][0] != "Ann" || d.Added[1][0] != "Bob" || len(d.Removed) != 0 {
		t.Fatalf("initial delta = %+v", d)
	}

	// A mutation produces exactly its delta at the bumped epoch.
	if rec := do(t, h, "POST", "/insert", "Carl a Student ."); rec.Code != http.StatusOK {
		t.Fatalf("insert status %d: %s", rec.Code, rec.Body)
	}
	d = poll(t, h, resp.ID)
	if len(d.Added) != 1 || d.Added[0][0] != "Carl" || d.Epoch != kb.Epoch() {
		t.Fatalf("post-insert delta = %+v (epoch %d)", d, kb.Epoch())
	}

	// No pending change: the long poll times out as 204, not an error.
	if rec := do(t, h, "GET", fmt.Sprintf("/subscribe/%d/poll?timeoutMs=50", resp.ID), ""); rec.Code != http.StatusNoContent {
		t.Fatalf("idle poll status %d: %s", rec.Code, rec.Body)
	}

	// /stats shows the incremental block with a live subscription.
	if st := stats(t, h); st.Incremental == nil || !st.Incremental.Enabled || st.Incremental.Subscriptions != 1 ||
		st.Incremental.Deltas == 0 || st.Incremental.Epoch != kb.Epoch() {
		t.Fatalf("stats incremental = %+v", st.Incremental)
	}

	// Unsubscribe; the id is gone from the hub, so later polls and
	// re-deletes answer 404 (410 covers only the in-flight-poll race).
	if rec := do(t, h, "DELETE", fmt.Sprintf("/subscribe/%d", resp.ID), ""); rec.Code != http.StatusOK {
		t.Fatalf("unsubscribe status %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, h, "GET", fmt.Sprintf("/subscribe/%d/poll", resp.ID), ""); rec.Code != http.StatusNotFound {
		t.Fatalf("closed poll status %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, h, "DELETE", fmt.Sprintf("/subscribe/%d", resp.ID), ""); rec.Code != http.StatusNotFound {
		t.Fatalf("re-delete status %d: %s", rec.Code, rec.Body)
	}
}

// TestSubscribeSurvivesNameClash: inserting a triple whose predicate is
// a concept name used as a role, or is named like one of the datalog
// rewriting's own predicates, on a live -subscribe handler neither ends
// the subscription hub nor a later POST /subscribe that rebuilds the
// shared fixpoint over it: /stats, polls and new subscriptions keep
// answering.
func TestSubscribeSurvivesNameClash(t *testing.T) {
	kb, h := subKB(t, Config{})
	resp := subscribe(t, h, `{"query":"q(x) :- Student(x)"}`)
	if d := poll(t, h, resp.ID); len(d.Added) != 2 {
		t.Fatalf("initial delta = %+v", d)
	}
	if rec := do(t, h, "POST", "/insert", "Ann Student Bob .\nx1 q·0 x2 .\nx3 a q·0 ."); rec.Code != http.StatusOK {
		t.Fatalf("insert status %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, h, "POST", "/insert", "Carl a Student ."); rec.Code != http.StatusOK {
		t.Fatalf("insert status %d: %s", rec.Code, rec.Body)
	}
	if d := poll(t, h, resp.ID); len(d.Added) != 1 || d.Added[0][0] != "Carl" || len(d.Removed) != 0 || d.Epoch != kb.Epoch() {
		t.Fatalf("delta after the clashing insert = %+v (epoch %d)", d, kb.Epoch())
	}

	role := subscribe(t, h, `{"query":"q(x, y) :- Student(x, y)"}`)
	if d := poll(t, h, role.ID); fmt.Sprint(d.Added) != "[[Ann Bob]]" {
		t.Fatalf("role subscription's initial delta = %+v", d)
	}

	if st := stats(t, h); st.Incremental == nil || st.Incremental.Subscriptions != 2 || st.Incremental.EvalErrors != 0 || st.Incremental.Epoch != kb.Epoch() {
		t.Fatalf("stats incremental = %+v (epoch %d)", st.Incremental, kb.Epoch())
	}
}

func TestSubscribeEndpointValidation(t *testing.T) {
	_, h := subKB(t, Config{})
	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/subscribe", `{"query":""}`, http.StatusBadRequest},
		{"POST", "/subscribe", `{"query":"q(x) :- Student(x)","baseline":"datalog"}`, http.StatusBadRequest},
		{"POST", "/subscribe", `{"query":"q(x) :- Student(x)","bogus":1}`, http.StatusBadRequest},
		{"GET", "/subscribe/abc/poll", "", http.StatusBadRequest},
		{"GET", "/subscribe/999/poll", "", http.StatusNotFound},
		{"DELETE", "/subscribe/999", "", http.StatusNotFound},
	} {
		if rec := do(t, h, tc.method, tc.path, tc.body); rec.Code != tc.want {
			t.Errorf("%s %s: status %d, want %d (%s)", tc.method, tc.path, rec.Code, tc.want, rec.Body)
		}
	}
	// The invalid-timeout case needs a live id to reach the parse.
	resp := subscribe(t, h, `{"query":"q(x) :- Student(x)"}`)
	if rec := do(t, h, "GET", fmt.Sprintf("/subscribe/%d/poll?timeoutMs=nope", resp.ID), ""); rec.Code != http.StatusBadRequest {
		t.Errorf("bad timeoutMs: status %d", rec.Code)
	}
}

func TestSubscribeRequiresIncremental(t *testing.T) {
	// Subscriptions on a read-only KB: routes exist but answer 403, as
	// /insert does.
	h := HandlerWithConfig(testKB(t), Config{Subscriptions: true})
	for _, tc := range []struct{ method, path, body string }{
		{"POST", "/subscribe", `{"query":"q(x) :- Student(x)"}`},
		{"GET", "/subscribe/1/poll", ""},
		{"GET", "/subscribe/1/events", ""},
		{"DELETE", "/subscribe/1", ""},
		{"POST", "/insert", "Carl a Student ."},
	} {
		if rec := do(t, h, tc.method, tc.path, tc.body); rec.Code != http.StatusForbidden || !strings.Contains(rec.Body.String(), "read-only") {
			t.Errorf("read-only %s %s: status %d: %s", tc.method, tc.path, rec.Code, rec.Body)
		}
	}
	// Without the config flag the routes are not registered at all.
	h = Handler(testKB(t))
	if rec := do(t, h, "POST", "/subscribe", `{"query":"q(x) :- Student(x)"}`); rec.Code == http.StatusForbidden || rec.Code == http.StatusOK {
		t.Fatalf("unregistered subscribe status %d", rec.Code)
	}
}

func TestSubscribeMaxRowsClamp(t *testing.T) {
	_, h := subKB(t, Config{SubscriptionMaxRows: 2})
	resp := subscribe(t, h, `{"query":"q(x) :- Student(x)","maxRows":100}`)
	d := poll(t, h, resp.ID) // Ann, Bob — exactly at the clamped cap
	if len(d.Added) != 2 {
		t.Fatalf("initial delta = %+v", d)
	}
	if rec := do(t, h, "POST", "/insert", "Carl a Student ."); rec.Code != http.StatusOK {
		t.Fatalf("insert status %d: %s", rec.Code, rec.Body)
	}
	// The third row breaches the server clamp: the subscription fails
	// closed and the poll surfaces the cause.
	rec := do(t, h, "GET", fmt.Sprintf("/subscribe/%d/poll?timeoutMs=10000", resp.ID), "")
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "limit") {
		t.Fatalf("breach poll status %d: %s", rec.Code, rec.Body)
	}
	// The cause is delivered, so the id is gone.
	if rec := do(t, h, "GET", fmt.Sprintf("/subscribe/%d/poll?timeoutMs=50", resp.ID), ""); rec.Code != http.StatusNotFound {
		t.Fatalf("poll after the delivered failure: status %d: %s", rec.Code, rec.Body)
	}
}

func TestSubscribeSSE(t *testing.T) {
	_, h := subKB(t, Config{})
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp := subscribe(t, h, `{"query":"q(x) :- Student(x)"}`)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET",
		fmt.Sprintf("%s/subscribe/%d/events", srv.URL, resp.ID), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("content type %q", res.Header.Get("Content-Type"))
	}

	// readDelta scans one "event: delta" frame off the stream.
	sc := bufio.NewScanner(res.Body)
	readDelta := func() ogpa.AnswerDelta {
		t.Helper()
		var d ogpa.AnswerDelta
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "event: ") && line != "event: delta" {
				t.Fatalf("unexpected frame %q", line)
			}
			if strings.HasPrefix(line, "data: ") {
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &d); err != nil {
					t.Fatal(err)
				}
				return d
			}
		}
		t.Fatalf("stream ended: %v", sc.Err())
		return d
	}

	d := readDelta()
	if len(d.Added) != 2 {
		t.Fatalf("initial SSE delta = %+v", d)
	}
	if rec := do(t, h, "POST", "/insert", "Dana a Student ."); rec.Code != http.StatusOK {
		t.Fatalf("insert status %d: %s", rec.Code, rec.Body)
	}
	d = readDelta()
	if len(d.Added) != 1 || d.Added[0][0] != "Dana" {
		t.Fatalf("post-insert SSE delta = %+v", d)
	}
}

// TestSubscribeConcurrentMutations folds a subscription's long-poll
// stream against concurrent POST /insert and /delete traffic (run under
// -race): the replayed set must converge on the live answer set.
func TestSubscribeConcurrentMutations(t *testing.T) {
	_, h := subKB(t, Config{})
	resp := subscribe(t, h, `{"query":"q(x) :- Student(x)"}`)

	const writers, perWriter = 3, 12
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				line := fmt.Sprintf("w%d_%d a Student .", i, j)
				if rec := do(t, h, "POST", "/insert", line); rec.Code != http.StatusOK {
					t.Errorf("insert: %d %s", rec.Code, rec.Body)
					return
				}
				if j%3 == 2 {
					if rec := do(t, h, "POST", "/delete", line); rec.Code != http.StatusOK {
						t.Errorf("delete: %d %s", rec.Code, rec.Body)
						return
					}
				}
			}
		}(i)
	}

	set := map[string]bool{}
	fold := func(d ogpa.AnswerDelta) {
		for _, r := range d.Removed {
			delete(set, strings.Join(r, ","))
		}
		for _, r := range d.Added {
			set[strings.Join(r, ",")] = true
		}
	}
	matches := func() bool {
		rec := do(t, h, "POST", "/query", `{"query":"q(x) :- Student(x)","baseline":"datalog"}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("query status %d: %s", rec.Code, rec.Body)
		}
		var qr QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
			t.Fatal(err)
		}
		if len(set) != qr.Count {
			return false
		}
		for _, row := range qr.Rows {
			if !set[strings.Join(row, ",")] {
				return false
			}
		}
		return true
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for tries := 0; tries < 600; tries++ {
		rec := do(t, h, "GET", fmt.Sprintf("/subscribe/%d/poll?timeoutMs=100", resp.ID), "")
		switch rec.Code {
		case http.StatusOK:
			var d ogpa.AnswerDelta
			if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
				t.Fatal(err)
			}
			fold(d)
		case http.StatusNoContent:
			select {
			case <-done:
				if matches() {
					return
				}
			default:
			}
		default:
			t.Fatalf("poll status %d: %s", rec.Code, rec.Body)
		}
	}
	t.Fatalf("delta stream never converged: replayed %d rows", len(set))
}
