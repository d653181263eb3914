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

// incKB wraps a KB in live + incremental mode over the given ABox.
func incKB(t testing.TB, tb *dllite.TBox, abox *dllite.ABox) *KB {
	t.Helper()
	kb := FromParts(tb, abox)
	if err := kb.EnableLiveData(-1); err != nil {
		t.Fatal(err)
	}
	if err := kb.EnableIncremental(); err != nil {
		t.Fatal(err)
	}
	return kb
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

// sweepBaselines are the pipelines a standing query can run on.
var sweepBaselines = []Baseline{BaselineDatalog, BaselineSaturate}

// TestIncrementalMatchesColdSweep is the KB-level 100-seed sweep of
// standing queries against cold answers: one subscription per baseline
// folds its delta stream, and after every live batch (including
// deletion-heavy ones) the folded set must equal AnswerBaseline on a
// fresh KB built from the live store's current ABox view. Each step
// waits at most 2 s for the fold to catch up, so a broken path fails
// the seed quickly instead of stalling the run.
func TestIncrementalMatchesColdSweep(t *testing.T) {
	for seed := 0; seed < 100; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			tb, abox, q := testkb.RandomKB(rng)
			query := q.String()

			kb := incKB(t, tb, abox)
			defer kb.Close()
			subs := make([]*Subscription, len(sweepBaselines))
			folds := make([]map[string]bool, len(sweepBaselines))
			for i, b := range sweepBaselines {
				sub, err := kb.Subscribe(b, query, SubscribeOptions{})
				if err != nil {
					t.Fatalf("subscribe %s: %v", b, err)
				}
				defer sub.Close()
				subs[i], folds[i] = sub, map[string]bool{}
			}

			check := func(step string) {
				t.Helper()
				cold := FromParts(tb, kb.ABox())
				for i, b := range sweepBaselines {
					want, err := cold.AnswerBaseline(b, query, Options{})
					if err != nil {
						t.Fatalf("%s: cold %s: %v", step, b, err)
					}
					ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
					for !foldEquals(folds[i], want.Rows) {
						d, err := subs[i].Next(ctx)
						if err != nil {
							cancel()
							t.Fatalf("%s: %s on %s: fold never matched the cold answer: %v\nfolded: %v\ncold:   %v",
								step, b, query, err, folds[i], want.Rows)
						}
						if d.Epoch > kb.Epoch() {
							cancel()
							t.Fatalf("%s: %s delta at epoch %d, store at %d", step, b, d.Epoch, kb.Epoch())
						}
						applyDelta(folds[i], d)
					}
					cancel()
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

// TestEnableIncrementalPreconditions: read-only KBs reject it, double
// enabling rejects, and stats report the enabled state.
func TestEnableIncrementalPreconditions(t *testing.T) {
	kb := exampleKB(t)
	if err := kb.EnableIncremental(); err == nil {
		t.Fatal("EnableIncremental on a read-only KB should error")
	}
	if kb.Incremental() {
		t.Fatal("Incremental() true before enabling")
	}
	if err := kb.EnableLiveData(-1); err != nil {
		t.Fatal(err)
	}
	if err := kb.EnableIncremental(); err != nil {
		t.Fatal(err)
	}
	defer kb.Close()
	if err := kb.EnableIncremental(); err == nil {
		t.Fatal("double EnableIncremental should error")
	}
	if !kb.Incremental() {
		t.Fatal("Incremental() false after enabling")
	}
	st := kb.IncrementalStats()
	if !st.Enabled || st.Epoch != kb.Epoch() {
		t.Fatalf("stats = %+v, epoch %d", st, kb.Epoch())
	}
	if _, err := kb.Subscribe(BaselineUCQ, "q(x) :- Student(x)", SubscribeOptions{}); err == nil {
		t.Fatal("Subscribe on a non-maintained baseline should error")
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

// TestSubscribeDeltas covers the standing-query lifecycle on both
// maintained pipelines: initial full set, per-write added/removed
// deltas, coalescing across missed epochs, unsubscribe semantics.
func TestSubscribeDeltas(t *testing.T) {
	for _, b := range []Baseline{BaselineDatalog, BaselineSaturate} {
		t.Run(string(b), func(t *testing.T) {
			kb, err := NewKB(strings.NewReader(exampleOntology), strings.NewReader(exampleData))
			if err != nil {
				t.Fatal(err)
			}
			if err := kb.EnableLiveData(-1); err != nil {
				t.Fatal(err)
			}
			if err := kb.EnableIncremental(); err != nil {
				t.Fatal(err)
			}
			defer kb.Close()

			sub, err := kb.Subscribe(b, "q(x) :- Student(x)", SubscribeOptions{})
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

	for _, b := range sweepBaselines {
		t.Run(string(b), func(t *testing.T) {
			kb, err := NewKB(strings.NewReader(exampleOntology), strings.NewReader(exampleData))
			if err != nil {
				t.Fatal(err)
			}
			if err := kb.EnableLiveData(-1); err != nil {
				t.Fatal(err)
			}
			if err := kb.EnableIncremental(); err != nil {
				t.Fatal(err)
			}
			defer kb.Close()
			if _, err := kb.InsertTriples(strings.NewReader("<http://x/a,b> <http://x/p> <http://x/c> .")); err != nil {
				t.Fatal(err)
			}
			const query = "q(x, y) :- p(x, y)"
			sub, err := kb.Subscribe(b, query, SubscribeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			set := map[string]bool{}
			next := func() {
				t.Helper()
				for {
					sub.st.mu.Lock()
					caughtUp := sub.st.epoch == kb.Epoch()
					sub.st.mu.Unlock()
					if caughtUp {
						break
					}
					if ctx.Err() != nil {
						t.Fatal("subscription never evaluated the store's epoch")
					}
					time.Sleep(time.Millisecond)
				}
				d, err := sub.Next(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if len(d.Added)+len(d.Removed) == 0 {
					t.Fatalf("empty delta at epoch %d", d.Epoch)
				}
				fold(set, d)
				cold, err := kb.AnswerBaseline(b, query, Options{})
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
}

// TestSubscribeMaxRows: blowing the per-subscription row cap fails the
// subscription closed without touching its sibling.
func TestSubscribeMaxRows(t *testing.T) {
	kb, err := NewKB(strings.NewReader(exampleOntology), strings.NewReader(exampleData))
	if err != nil {
		t.Fatal(err)
	}
	if err := kb.EnableLiveData(-1); err != nil {
		t.Fatal(err)
	}
	if err := kb.EnableIncremental(); err != nil {
		t.Fatal(err)
	}
	defer kb.Close()

	capped, err := kb.Subscribe(BaselineDatalog, "q(x) :- Student(x)", SubscribeOptions{MaxRows: 3})
	if err != nil {
		t.Fatal(err)
	}
	open, err := kb.Subscribe(BaselineDatalog, "q(x) :- Student(x)", SubscribeOptions{})
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
	if st.EvalErrors == 0 || st.Subscriptions != 1 {
		t.Fatalf("stats after cap failure = %+v", st)
	}
}

// TestSubscribeConcurrentWrites replays a subscription's delta stream
// against concurrent writers (run under -race), on both standing
// pipelines: folding every delta in order must reproduce exactly the
// final answer set.
func TestSubscribeConcurrentWrites(t *testing.T) {
	for _, b := range sweepBaselines {
		t.Run(string(b), func(t *testing.T) {
			kb, err := NewKB(strings.NewReader(exampleOntology), strings.NewReader(exampleData))
			if err != nil {
				t.Fatal(err)
			}
			if err := kb.EnableLiveData(-1); err != nil {
				t.Fatal(err)
			}
			if err := kb.EnableIncremental(); err != nil {
				t.Fatal(err)
			}
			defer kb.Close()

			sub, err := kb.Subscribe(b, "q(x) :- Student(x)", SubscribeOptions{})
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
				want, err := kb.AnswerBaseline(b, "q(x) :- Student(x)", Options{})
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
}

// TestSubscribeBudget: maintained datalog fixpoints and live saturate
// subscriptions share the maxIncChains slots. A full budget refuses a
// new saturate subscription, a datalog subscription to an already
// maintained query still shares its chain, and closing a saturate
// subscription frees its slot.
func TestSubscribeBudget(t *testing.T) {
	base := exampleKB(t)
	kb := incKB(t, base.TBox(), base.ABox())
	defer kb.Close()
	const query = "q(x) :- Student(x)"

	if _, err := kb.Subscribe(BaselineDatalog, query, SubscribeOptions{}); err != nil {
		t.Fatal(err)
	}
	var last *Subscription
	for i := 1; i < maxIncChains; i++ {
		s, err := kb.Subscribe(BaselineSaturate, query, SubscribeOptions{})
		if err != nil {
			t.Fatalf("saturate subscription %d of %d: %v", i, maxIncChains-1, err)
		}
		last = s
	}
	if _, err := kb.Subscribe(BaselineSaturate, query, SubscribeOptions{}); err == nil ||
		!strings.Contains(err.Error(), "budget exhausted") {
		t.Fatalf("saturate Subscribe past the cap = %v, want the budget error", err)
	}
	if _, err := kb.Subscribe(BaselineDatalog, "q(y) :- Student(y)", SubscribeOptions{}); err == nil {
		t.Fatal("a new datalog chain past the cap should be refused")
	}
	if _, err := kb.Subscribe(BaselineDatalog, query, SubscribeOptions{}); err != nil {
		t.Fatalf("datalog subscription sharing a maintained chain: %v", err)
	}
	last.Close()
	if _, err := kb.Subscribe(BaselineSaturate, query, SubscribeOptions{}); err != nil {
		t.Fatalf("saturate Subscribe after a slot was freed: %v", err)
	}
	if st := kb.IncrementalStats(); st.Chains != 1 || st.Subscriptions != maxIncChains+1 {
		t.Fatalf("stats = %+v, want 1 chain and %d subscriptions", st, maxIncChains+1)
	}
}
