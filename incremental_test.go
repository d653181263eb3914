package ogpa

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"ogpa/internal/dllite"
	"ogpa/internal/testkb"
)

// enableLive puts kb in live mode and returns it.
func enableLive(t testing.TB, kb *KB) *KB {
	t.Helper()
	if err := kb.EnableLiveData(-1); err != nil {
		t.Fatal(err)
	}
	return kb
}

// caughtUp waits until sub has evaluated the store's current epoch.
func caughtUp(ctx context.Context, t *testing.T, kb *KB, sub *Subscription) {
	t.Helper()
	for {
		sub.st.mu.Lock()
		done := sub.st.epoch == kb.Epoch()
		sub.st.mu.Unlock()
		if done {
			return
		}
		if ctx.Err() != nil {
			t.Fatalf("subscription never evaluated the store's epoch %d", kb.Epoch())
		}
		time.Sleep(time.Millisecond)
	}
}

// tripleLines renders assertion deltas as an N-Triples body.
func tripleLines(cs []dllite.ConceptAssertion, rs []dllite.RoleAssertion) string {
	var lines []string
	for _, c := range cs {
		lines = append(lines, fmt.Sprintf("%s a %s .", c.Ind, c.Concept))
	}
	for _, r := range rs {
		lines = append(lines, fmt.Sprintf("%s %s %s .", r.Sub, r.Role, r.Obj))
	}
	return strings.Join(lines, "\n")
}

// TestIncrementalMatchesColdSweep is the KB-level 100-seed sweep of
// standing queries against cold answers: one subscription folds its
// delta stream, and after every live batch (including deletion-heavy
// ones) the folded set at the store's epoch must equal the cold answers
// of a fresh KB built from the live store's current ABox view, on the
// datalog, saturation and GenOGP+OMatch pipelines. Each step waits at
// most 2 s for the subscription to catch up, so a broken path fails the
// seed quickly instead of stalling the run.
func TestIncrementalMatchesColdSweep(t *testing.T) {
	for seed := 0; seed < 100; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			tb, abox, q := testkb.RandomKB(rng)
			query := q.String()

			kb := enableLive(t, FromParts(tb, abox))
			defer kb.Close()
			sub, err := kb.Subscribe(query, SubscribeOptions{})
			if err != nil {
				t.Fatalf("subscribe: %v", err)
			}
			defer sub.Close()
			fold := map[string]bool{}

			check := func(step string) {
				t.Helper()
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer cancel()
				caughtUp(ctx, t, kb, sub)
				sub.st.mu.Lock()
				pending := !rowsEqual(sub.st.current, sub.st.delivered) || sub.st.err != nil
				sub.st.mu.Unlock()
				if pending {
					d, err := sub.Next(ctx)
					if err != nil {
						t.Fatalf("%s: Next: %v", step, err)
					}
					if d.Epoch != kb.Epoch() {
						t.Fatalf("%s: delta at epoch %d, store at %d", step, d.Epoch, kb.Epoch())
					}
					applyDelta(fold, d)
				}
				cold := FromParts(tb, kb.ABox())
				for _, b := range []Baseline{BaselineDatalog, BaselineSaturate, ""} {
					var want *Answers
					if b == "" {
						want, err = cold.Answer(query)
					} else {
						want, err = cold.AnswerBaseline(b, query, Options{})
					}
					if err != nil {
						t.Fatalf("%s: cold %q: %v", step, b, err)
					}
					if !foldEquals(fold, want.Rows) {
						t.Fatalf("%s: %s at epoch %d: folded deltas differ from cold %q\nfolded: %v\ncold:   %v",
							step, query, kb.Epoch(), b, fold, want.Rows)
					}
				}
			}
			check("initial")

			for bi := 0; bi < 5; bi++ {
				cur := kb.ABox()
				var body string
				var del bool
				if bi%3 == 2 && (len(cur.Concepts) > 0 || len(cur.Roles) > 0) {
					var cs []dllite.ConceptAssertion
					var rs []dllite.RoleAssertion
					for i := 0; i < 3+rng.Intn(6); i++ {
						if n := len(cur.Concepts); n > 0 && (rng.Intn(2) == 0 || len(cur.Roles) == 0) {
							cs = append(cs, cur.Concepts[rng.Intn(n)])
						} else if n := len(cur.Roles); n > 0 {
							rs = append(rs, cur.Roles[rng.Intn(n)])
						}
					}
					body, del = tripleLines(cs, rs), true
				} else {
					add := testkb.RandomABox(rng)
					n := 1 + rng.Intn(4)
					var cs []dllite.ConceptAssertion
					var rs []dllite.RoleAssertion
					for i := 0; i < n && i < len(add.Concepts); i++ {
						cs = append(cs, add.Concepts[i])
					}
					for i := 0; i < n && i < len(add.Roles); i++ {
						rs = append(rs, add.Roles[i])
					}
					body = tripleLines(cs, rs)
				}
				if body == "" {
					continue
				}
				var err error
				if del {
					_, err = kb.DeleteTriples(strings.NewReader(body))
				} else {
					_, err = kb.InsertTriples(strings.NewReader(body))
				}
				if err != nil {
					t.Fatalf("batch %d: %v", bi, err)
				}
				check(fmt.Sprintf("batch %d (del=%v)", bi, del))
			}
		})
	}
}

// TestSubscribeStartsMaintenance: Subscribe needs live data, the first
// Subscribe of a live KB starts the maintained fixpoint at the store's
// epoch (commits before it start nothing), and closing the KB stops it.
func TestSubscribeStartsMaintenance(t *testing.T) {
	kb := exampleKB(t)
	if _, err := kb.Subscribe("q(x) :- Student(x)", SubscribeOptions{}); err == nil {
		t.Fatal("Subscribe on a read-only KB should error")
	}
	if err := kb.EnableLiveData(-1); err != nil {
		t.Fatal(err)
	}
	defer kb.Close()
	for _, line := range []string{"Carl a Student .", "Dana a PhD ."} {
		if _, err := kb.InsertTriples(strings.NewReader(line)); err != nil {
			t.Fatal(err)
		}
	}
	if st := kb.IncrementalStats(); st.Enabled {
		t.Fatalf("stats before the first Subscribe = %+v", st)
	}
	if _, err := kb.Subscribe("q(x) :- ", SubscribeOptions{}); err == nil {
		t.Fatal("Subscribe of a malformed query should error")
	}
	sub, err := kb.Subscribe("q(x) :- Student(x)", SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if st := kb.IncrementalStats(); !st.Enabled || st.Epoch != kb.Epoch() || st.Chains != 1 || st.Subscriptions != 1 {
		t.Fatalf("stats after the first Subscribe = %+v, store at epoch %d", st, kb.Epoch())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if d, err := sub.Next(ctx); err != nil || d.Epoch != kb.Epoch() || len(d.Added) != 4 {
		t.Fatalf("initial delta = %+v, %v; want Ann, Bob, Carl, Dana at epoch %d", d, err, kb.Epoch())
	}

	// Closing the KB ends the hub: Next reports closure, and a later
	// Subscribe is refused instead of waiting on a hub that is gone.
	if err := kb.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Next(ctx); err != ErrSubscriptionClosed {
		t.Fatalf("Next after the KB closed = %v, want ErrSubscriptionClosed", err)
	}
	if _, err := kb.Subscribe("q(x) :- PhD(x)", SubscribeOptions{}); err != ErrSubscriptionClosed {
		t.Fatalf("Subscribe after the KB closed = %v, want ErrSubscriptionClosed", err)
	}
}

// applyDelta folds one answer delta into a row set keyed by joined row.
func applyDelta(set map[string]bool, d AnswerDelta) {
	for _, r := range d.Removed {
		delete(set, strings.Join(r, ","))
	}
	for _, r := range d.Added {
		set[strings.Join(r, ",")] = true
	}
}

// foldEquals reports whether a folded row set holds exactly rows.
func foldEquals(set map[string]bool, rows [][]string) bool {
	if len(set) != len(rows) {
		return false
	}
	for _, row := range rows {
		if !set[strings.Join(row, ",")] {
			return false
		}
	}
	return true
}

// TestSubscribeDeltas covers the standing-query lifecycle: initial full
// set, per-write added/removed deltas, coalescing across missed epochs,
// unsubscribe semantics.
func TestSubscribeDeltas(t *testing.T) {
	t.Run(string(BaselineDatalog), func(t *testing.T) {
		kb := enableLive(t, exampleKB(t))
		defer kb.Close()

		sub, err := kb.Subscribe("q(x) :- Student(x)", SubscribeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := sub.Vars(); len(got) != 1 || got[0] != "x" {
			t.Fatalf("Vars = %v", got)
		}

		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()

		// Initial delta: the full current answer set (Ann via PhD ⊑
		// Student, plus Bob).
		d, err := sub.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		set := map[string]bool{}
		applyDelta(set, d)
		if len(d.Removed) != 0 || !set["Ann"] || !set["Bob"] || len(set) != 2 {
			t.Fatalf("initial delta = %+v", d)
		}

		// One insertion: exactly one Added row at the new epoch.
		if _, err := kb.InsertTriples(strings.NewReader("Carl a Student .")); err != nil {
			t.Fatal(err)
		}
		d, err = sub.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Added) != 1 || d.Added[0][0] != "Carl" || len(d.Removed) != 0 {
			t.Fatalf("post-insert delta = %+v", d)
		}
		if d.Epoch != kb.Epoch() {
			t.Fatalf("delta at epoch %d, store at %d", d.Epoch, kb.Epoch())
		}
		applyDelta(set, d)

		// An insert and a delete land back to back; folding the stream
		// must converge on the post-both answer set (the hub may hand
		// them out as one coalesced delta or two, depending on when it
		// wakes relative to the writes).
		if _, err := kb.InsertTriples(strings.NewReader("Dana a Student .")); err != nil {
			t.Fatal(err)
		}
		if _, err := kb.DeleteTriples(strings.NewReader("Carl a Student .")); err != nil {
			t.Fatal(err)
		}
		for set["Carl"] || !set["Dana"] {
			d, err = sub.Next(ctx)
			if err != nil {
				t.Fatalf("draining insert+delete pair: %v (set %v)", err, set)
			}
			applyDelta(set, d)
		}
		if len(set) != 3 {
			t.Fatalf("set after insert+delete pair = %v", set)
		}

		// A write that does not change the answers publishes nothing;
		// the following relevant write is delivered normally.
		if _, err := kb.InsertTriples(strings.NewReader("Lab1 a Room .")); err != nil {
			t.Fatal(err)
		}
		if _, err := kb.InsertTriples(strings.NewReader("Eve a PhD .")); err != nil {
			t.Fatal(err)
		}
		d, err = sub.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Added) != 1 || d.Added[0][0] != "Eve" {
			t.Fatalf("delta after irrelevant write = %+v", d)
		}

		// Unsubscribe: Next reports closure; the hub forgets the id.
		sub.Close()
		if _, err := sub.Next(ctx); err != ErrSubscriptionClosed {
			t.Fatalf("Next after Close = %v, want ErrSubscriptionClosed", err)
		}
		if _, ok := kb.SubscriptionByID(sub.ID()); ok {
			t.Fatal("closed subscription still resolvable")
		}
	})
}

// TestSubscribeCommaCells: IRIs may hold commas, so ["a,b" "c"] and
// ["a" "b,c"] are different rows with the same comma-joined cells.
// Replacing one by the other must publish a delta that removes the one
// and adds the other, never an empty one; the folded stream must equal
// the cold answer. Next is called only once the subscription has
// evaluated the store's epoch, so both writes land in one delta.
func TestSubscribeCommaCells(t *testing.T) {
	setKey := func(row []string) string { return fmt.Sprintf("%q", row) }
	fold := func(set map[string]bool, d AnswerDelta) {
		for _, r := range d.Removed {
			delete(set, setKey(r))
		}
		for _, r := range d.Added {
			set[setKey(r)] = true
		}
	}
	// The unit first, on rows in cell order (["a" "b,c"] before
	// ["a,b" "c"]): sets that differ in one of the two rows are not
	// equal, and their diff removes and adds just that row.
	ab, bc, z := []string{"a,b", "c"}, []string{"a", "b,c"}, []string{"z", "z"}
	if !rowsEqual([][]string{bc, ab}, [][]string{bc, ab}) || rowsEqual([][]string{bc, z}, [][]string{ab, z}) {
		t.Fatal("rowsEqual: rows with one joined key compared as one row")
	}
	if d := diffRows([][]string{bc, z}, [][]string{ab, z}); fmt.Sprintf("%q %q", d.Removed, d.Added) != fmt.Sprintf("%q %q", [][]string{bc}, [][]string{ab}) {
		t.Fatalf("diffRows(%q, %q) = %+v", [][]string{bc, z}, [][]string{ab, z}, d)
	}

	t.Run(string(BaselineDatalog), func(t *testing.T) {
		kb := enableLive(t, exampleKB(t))
		defer kb.Close()
		if _, err := kb.InsertTriples(strings.NewReader("<http://x/a,b> <http://x/p> <http://x/c> .")); err != nil {
			t.Fatal(err)
		}
		const query = "q(x, y) :- p(x, y)"
		sub, err := kb.Subscribe(query, SubscribeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		set := map[string]bool{}
		next := func() {
			t.Helper()
			caughtUp(ctx, t, kb, sub)
			d, err := sub.Next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(d.Added)+len(d.Removed) == 0 {
				t.Fatalf("empty delta at epoch %d", d.Epoch)
			}
			fold(set, d)
			cold, err := kb.AnswerBaseline(BaselineDatalog, query, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]bool{}
			for _, r := range cold.Rows {
				want[setKey(r)] = true
			}
			if fmt.Sprint(set) != fmt.Sprint(want) {
				t.Fatalf("folded deltas %v, cold answer %v", set, want)
			}
		}
		next()
		if !set[setKey(ab)] {
			t.Fatalf("initial answer %v lacks %q", set, ab)
		}
		if _, err := kb.DeleteTriples(strings.NewReader("<http://x/a,b> <http://x/p> <http://x/c> .")); err != nil {
			t.Fatal(err)
		}
		if _, err := kb.InsertTriples(strings.NewReader("<http://x/a> <http://x/p> <http://x/b,c> .")); err != nil {
			t.Fatal(err)
		}
		next()
		if !set[setKey(bc)] || set[setKey(ab)] {
			t.Fatalf("answer after the swap %v, want %q only", set, bc)
		}
	})
}

// TestSubscribeMaxRows: blowing the per-subscription row cap fails the
// subscription closed without touching its sibling. The failed id keeps
// resolving until Next delivers its cause, and is gone after.
func TestSubscribeMaxRows(t *testing.T) {
	kb := enableLive(t, exampleKB(t))
	defer kb.Close()

	capped, err := kb.Subscribe("q(x) :- Student(x)", SubscribeOptions{MaxRows: 3})
	if err != nil {
		t.Fatal(err)
	}
	open, err := kb.Subscribe("q(x) :- Student(x)", SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := capped.Next(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := open.Next(ctx); err != nil {
		t.Fatal(err)
	}

	if _, err := kb.InsertTriples(strings.NewReader("S1 a Student .\nS2 a Student .")); err != nil {
		t.Fatal(err)
	}
	for {
		capped.st.mu.Lock()
		failed := capped.st.err != nil
		capped.st.mu.Unlock()
		if failed {
			break
		}
		if ctx.Err() != nil {
			t.Fatal("the capped subscription never failed")
		}
		time.Sleep(time.Millisecond)
	}
	if s, ok := kb.SubscriptionByID(capped.ID()); !ok || s != capped {
		t.Fatal("failed subscription not resolvable before its cause was delivered")
	}
	if _, err := capped.Next(ctx); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("capped Next = %v, want row-limit failure", err)
	}
	if _, ok := kb.SubscriptionByID(capped.ID()); ok {
		t.Fatal("failed subscription still resolvable after its cause was delivered")
	}
	d, err := open.Next(ctx)
	if err != nil {
		t.Fatalf("sibling subscription failed: %v", err)
	}
	if len(d.Added) != 2 {
		t.Fatalf("sibling delta = %+v", d)
	}
	st := kb.IncrementalStats()
	if st.EvalErrors != 1 || st.Subscriptions != 1 {
		t.Fatalf("stats after cap failure = %+v", st)
	}
}

// TestSubscribeConcurrentWrites replays a subscription's delta stream
// against concurrent writers (run under -race): folding every delta in
// order must reproduce exactly the final answer set.
func TestSubscribeConcurrentWrites(t *testing.T) {
	t.Run(string(BaselineDatalog), func(t *testing.T) {
		kb := enableLive(t, exampleKB(t))
		defer kb.Close()

		sub, err := kb.Subscribe("q(x) :- Student(x)", SubscribeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()

		const writers, perWriter = 4, 15
		var wg sync.WaitGroup
		for i := 0; i < writers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for j := 0; j < perWriter; j++ {
					line := fmt.Sprintf("s%d_%d a Student .", i, j)
					if _, err := kb.InsertTriples(strings.NewReader(line)); err != nil {
						t.Error(err)
						return
					}
					if j%4 == 3 { // retract some to exercise Removed rows
						if _, err := kb.DeleteTriples(strings.NewReader(line)); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}(i)
		}

		set := map[string]bool{}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()

		// matches reports whether the replayed set equals the live answer set.
		matches := func() bool {
			want, err := kb.AnswerBaseline(BaselineDatalog, "q(x) :- Student(x)", Options{})
			if err != nil {
				t.Fatal(err)
			}
			return foldEquals(set, want.Rows)
		}

		for {
			pollCtx, pollCancel := context.WithTimeout(ctx, 250*time.Millisecond)
			d, err := sub.Next(pollCtx)
			pollCancel()
			if err != nil {
				if ctx.Err() != nil {
					t.Fatalf("delta stream never converged: replayed %d rows", len(set))
				}
				if err != context.DeadlineExceeded {
					t.Fatal(err)
				}
				// No delta pending right now. Once the writers are done and the
				// replay matches the live answer set, the stream has converged.
				select {
				case <-done:
					if matches() {
						return
					}
				default:
				}
				continue
			}
			applyDelta(set, d)
		}
	})
}

// TestSubscribeBudget: every distinct query text holds one of the
// maxIncChains slots. A full budget refuses a new text, and a
// subscription to a maintained text still shares its chain.
func TestSubscribeBudget(t *testing.T) {
	kb := enableLive(t, exampleKB(t))
	defer kb.Close()

	for i := 0; i < maxIncChains; i++ {
		if _, err := kb.Subscribe(fmt.Sprintf("q(x%d) :- Student(x%d)", i, i), SubscribeOptions{}); err != nil {
			t.Fatalf("query text %d of %d: %v", i+1, maxIncChains, err)
		}
	}
	if _, err := kb.Subscribe("q(y) :- Student(y)", SubscribeOptions{}); err == nil ||
		!strings.Contains(err.Error(), "budget exhausted") {
		t.Fatalf("Subscribe of a new text past the cap = %v, want the budget error", err)
	}
	if _, err := kb.Subscribe("q(x0) :- Student(x0)", SubscribeOptions{}); err != nil {
		t.Fatalf("subscription sharing a maintained chain: %v", err)
	}
	if st := kb.IncrementalStats(); st.Chains != maxIncChains || st.Subscriptions != maxIncChains+1 {
		t.Fatalf("stats = %+v, want %d chains and %d subscriptions", st, maxIncChains, maxIncChains+1)
	}
}
