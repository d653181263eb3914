package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"ogpa"
)

func liveTestKB(t testing.TB) *ogpa.KB {
	t.Helper()
	kb, err := ogpa.NewKB(strings.NewReader(`
Student SubClassOf some takesCourse
PhD SubClassOf Student
`), strings.NewReader(`
PhD(Ann)
Student(Bob)
takesCourse(Bob, DB101)
`))
	if err != nil {
		t.Fatal(err)
	}
	if err := kb.EnableLiveData(0); err != nil {
		t.Fatal(err)
	}
	return kb
}

func TestMutationEndpointsReadOnly(t *testing.T) {
	h := Handler(testKB(t)) // not live
	for _, path := range []string{"/insert", "/delete"} {
		rec := do(t, h, "POST", path, "X a Student .")
		if rec.Code != http.StatusForbidden {
			t.Fatalf("%s on read-only KB: status %d, want 403", path, rec.Code)
		}
	}
}

func TestInsertDeleteEndpoints(t *testing.T) {
	h := Handler(liveTestKB(t))

	query := `{"query":"q(x) :- Student(x)"}`
	rec := do(t, h, "POST", "/query", query)
	var qr QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Count != 2 {
		t.Fatalf("baseline count = %d", qr.Count)
	}

	rec = do(t, h, "POST", "/insert", "Carl a Student .\nCarl takesCourse DB101 .")
	if rec.Code != http.StatusOK {
		t.Fatalf("insert status %d: %s", rec.Code, rec.Body)
	}
	var mr MutationResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Applied != 2 || mr.Epoch != 2 || mr.OverlaySize != 2 {
		t.Fatalf("insert resp = %+v", mr)
	}

	rec = do(t, h, "POST", "/query", query)
	if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Count != 3 {
		t.Fatalf("post-insert count = %d: %s", qr.Count, rec.Body)
	}

	rec = do(t, h, "POST", "/delete", "Carl a Student .")
	if rec.Code != http.StatusOK {
		t.Fatalf("delete status %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Applied != 1 || mr.Epoch != 3 {
		t.Fatalf("delete resp = %+v", mr)
	}

	rec = do(t, h, "POST", "/query", query)
	//lint:ignore droppederr decoded below via Count check
	_ = json.Unmarshal(rec.Body.Bytes(), &qr)
	if qr.Count != 2 {
		t.Fatalf("post-delete count = %d", qr.Count)
	}

	// A bad batch applies nothing and reports 400.
	rec = do(t, h, "POST", "/insert", "Eve a Student .\ngarbage line without dot")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad batch status %d", rec.Code)
	}
	rec = do(t, h, "POST", "/query", query)
	//lint:ignore droppederr decoded below via Count check
	_ = json.Unmarshal(rec.Body.Bytes(), &qr)
	if qr.Count != 2 {
		t.Fatalf("rejected batch leaked: count = %d", qr.Count)
	}

	// Stats reflect the live store and mutation counters.
	rec = do(t, h, "GET", "/stats", "")
	var sr StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Live || sr.Epoch != 3 || sr.Inserts != 1 || sr.Deletes != 1 {
		t.Fatalf("stats = %+v", sr)
	}
	if !strings.Contains(sr.Stats, "live epoch=3") {
		t.Fatalf("stats string = %q", sr.Stats)
	}
}

// TestEpochInvalidatesPlanCache alternates writes and queries: if a
// cached plan (built against an older epoch) were ever served after a
// write, the query would return the pre-write answer set. Every query
// must see exactly the writes that precede it.
func TestEpochInvalidatesPlanCache(t *testing.T) {
	h := Handler(liveTestKB(t))
	query := `{"query":"q(x) :- Student(x)"}`

	want := 2
	for i := 0; i < 8; i++ {
		// Warm the cache at the current epoch (twice: miss then hit).
		for j := 0; j < 2; j++ {
			rec := do(t, h, "POST", "/query", query)
			var qr QueryResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
				t.Fatal(err)
			}
			if qr.Count != want {
				t.Fatalf("round %d pass %d: count = %d, want %d (stale plan served)", i, j, qr.Count, want)
			}
		}
		name := fmt.Sprintf("New%d", i)
		rec := do(t, h, "POST", "/insert", name+" a Student .\n"+name+" takesCourse DB101 .")
		if rec.Code != http.StatusOK {
			t.Fatalf("insert %d: %s", i, rec.Body)
		}
		want++
		// The very next query must include the write.
		rec = do(t, h, "POST", "/query", query)
		var qr QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
			t.Fatal(err)
		}
		if qr.Count != want {
			t.Fatalf("round %d: post-write count = %d, want %d (epoch not in cache key?)", i, qr.Count, want)
		}
	}

	// The cache did real work across epochs: hits on the warm pass.
	rec := do(t, h, "GET", "/stats", "")
	var sr StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.PlanCacheHits == 0 || sr.PlanCacheMisses == 0 {
		t.Fatalf("cache counters hits=%d misses=%d: epoch keying broke caching entirely", sr.PlanCacheHits, sr.PlanCacheMisses)
	}
}

// TestPlanCacheDropsSupersededEpochs: a plan from a superseded epoch can
// never hit again, so it must not stay resident pinning its snapshot.
// Alternating inserts with one query keeps exactly one plan cached, and
// the cache refuses a plan prepared at an older epoch than it holds.
func TestPlanCacheDropsSupersededEpochs(t *testing.T) {
	h := Handler(liveTestKB(t))
	for i := 0; i < 10; i++ {
		rec := do(t, h, "POST", "/insert", fmt.Sprintf("New%d a Student .", i))
		if rec.Code != http.StatusOK {
			t.Fatalf("insert %d: %s", i, rec.Body)
		}
		if got := postQuery(t, h, "q(x) :- Student(x)").Count; got != 3+i {
			t.Fatalf("round %d: count = %d, want %d", i, got, 3+i)
		}
		if size := statsOf(t, h).PlanCacheSize; size != 1 {
			t.Fatalf("round %d: planCacheSize = %d, want 1 (superseded plans kept)", i, size)
		}
	}

	c := newLRU(4)
	kb := liveTestKB(t)
	pq, err := kb.Prepare("q(x) :- Student(x)")
	if err != nil {
		t.Fatal(err)
	}
	c.put("ogp", "a@2", 2, pq)
	c.put("ogp", "b@2", 2, pq)
	c.put("ogp", "c@1", 1, pq)
	if _, _, size := c.snapshot(); size != 2 || c.get("ogp", "c@1") != nil {
		t.Fatalf("size = %d after an older-epoch put, want 2 and no entry for it", size)
	}
	c.put("ogp", "d@3", 3, pq)
	if _, _, size := c.snapshot(); size != 1 || c.get("ogp", "d@3") != pq {
		t.Fatalf("size = %d after a newer-epoch put, want only its entry", size)
	}
}

// TestConcurrentWritersAndQueries is the live-data -race stress: writer
// goroutines hit /insert and /delete while query goroutines answer
// through the plan cache and others poll /stats. Assertions are
// monotonicity (a query never undercounts the writes it must have seen)
// plus whatever the race detector finds.
func TestConcurrentWritersAndQueries(t *testing.T) {
	kb := liveTestKB(t)
	h := Handler(kb)
	const writers = 3
	const writesPerWriter = 20

	var writeWG, readWG sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 0; i < writesPerWriter; i++ {
				name := fmt.Sprintf("W%dN%d", w, i)
				rec := do(t, h, "POST", "/insert", name+" a Student .\n"+name+" takesCourse DB101 .")
				if rec.Code != http.StatusOK {
					t.Errorf("insert: %s", rec.Body)
					return
				}
				if i%4 == 3 {
					rec = do(t, h, "POST", "/delete", name+" a Student .")
					if rec.Code != http.StatusOK {
						t.Errorf("delete: %s", rec.Body)
						return
					}
				}
			}
		}(w)
	}

	for r := 0; r < 4; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := do(t, h, "POST", "/query", `{"query":"q(x) :- Student(x), takesCourse(x, y)"}`)
				if rec.Code != http.StatusOK {
					t.Errorf("query: %s", rec.Body)
					return
				}
				var qr QueryResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
					t.Error(err)
					return
				}
				// takesCourse edges are never deleted, so the count of
				// students-with-courses a single reader observes can only
				// stay equal or grow... except deletes remove the Student
				// label of every 4th vertex. Bound it loosely instead:
				// never more than all inserted vertices + the base 2.
				if qr.Count > writers*writesPerWriter+2 {
					t.Errorf("impossible count %d", qr.Count)
					return
				}
				if qr.Count < 2 {
					t.Errorf("count %d dropped below the immutable base", qr.Count)
					return
				}
				rec = do(t, h, "GET", "/stats", "")
				if rec.Code != http.StatusOK {
					t.Errorf("stats: %s", rec.Body)
					return
				}
			}
		}()
	}

	writeWG.Wait()
	close(stop)
	readWG.Wait()
	kb.WaitIdle()

	// Quiesced: the final count is exact. Every vertex has takesCourse;
	// every 4th lost its Student label (PhD ⊑ Student covers none of
	// them), base contributes Ann (PhD, with an ontology-implied course)
	// and Bob.
	rec := do(t, h, "POST", "/query", `{"query":"q(x) :- Student(x), takesCourse(x, y)"}`)
	var qr QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
		t.Fatal(err)
	}
	perWriter := writesPerWriter - writesPerWriter/4
	want := writers*perWriter + 2
	if qr.Count != want {
		t.Fatalf("final count = %d, want %d", qr.Count, want)
	}
}

// TestCheckpointEndpoint drives POST /checkpoint on a durable KB and
// checks both the trigger (WAL truncated, stats updated) and the 403 on
// a live-but-in-memory KB.
func TestCheckpointEndpoint(t *testing.T) {
	// In-memory live KB: checkpointing has nowhere to write.
	h := Handler(liveTestKB(t))
	if rec := do(t, h, "POST", "/checkpoint", ""); rec.Code != http.StatusForbidden {
		t.Fatalf("checkpoint on in-memory KB: status %d, want 403", rec.Code)
	}

	kb, err := ogpa.NewKB(strings.NewReader(`
Student SubClassOf some takesCourse
PhD SubClassOf Student
`), strings.NewReader(`
PhD(Ann)
`))
	if err != nil {
		t.Fatal(err)
	}
	if err := kb.EnableDurableLiveData(t.TempDir(), -1); err != nil {
		t.Fatal(err)
	}
	defer kb.Close()
	h = Handler(kb)

	rec := do(t, h, "POST", "/insert", "Carl a Student .")
	if rec.Code != http.StatusOK {
		t.Fatalf("insert status %d: %s", rec.Code, rec.Body)
	}
	var before StatsResponse
	if err := json.Unmarshal(do(t, h, "GET", "/stats", "").Body.Bytes(), &before); err != nil {
		t.Fatal(err)
	}
	if !before.Durable || before.SnapshotBytes == 0 || before.WALBytes == 0 {
		t.Fatalf("durable stats incomplete before checkpoint: %+v", before)
	}

	rec = do(t, h, "POST", "/checkpoint", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("checkpoint status %d: %s", rec.Code, rec.Body)
	}
	var cr CheckpointResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Epoch != kb.Epoch() {
		t.Fatalf("checkpoint epoch %d, KB epoch %d", cr.Epoch, kb.Epoch())
	}
	if cr.WALBytes >= before.WALBytes {
		t.Fatalf("WAL not truncated: %d -> %d bytes", before.WALBytes, cr.WALBytes)
	}
	var after StatsResponse
	if err := json.Unmarshal(do(t, h, "GET", "/stats", "").Body.Bytes(), &after); err != nil {
		t.Fatal(err)
	}
	if after.LastCheckpointEpoch != cr.Epoch {
		t.Fatalf("stats lastCheckpointEpoch = %d, want %d", after.LastCheckpointEpoch, cr.Epoch)
	}
}
