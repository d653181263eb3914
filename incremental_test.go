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

// doneCtx is a context that has already ended: Next with it reads the
// answers once and never blocks.
func doneCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
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
// datalog, saturation and GenOGP+OMatch pipelines. Each step reads
// with a done context: the commit has advanced the fixpoint, so the
// read returns the batch's delta, or context.Canceled when the answers
// did not change, and never blocks.
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
				switch d, err := sub.Next(doneCtx()); {
				case err == nil:
					if d.Epoch != kb.Epoch() {
						t.Fatalf("%s: delta at epoch %d, store at %d", step, d.Epoch, kb.Epoch())
					}
					applyDelta(fold, d)
				case err != context.Canceled:
					t.Fatalf("%s: Next: %v", step, err)
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

	// Closing the KB closes its subscriptions: Next reports closure
	// without reading, and a later Subscribe is refused.
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

		// An insert and a delete land back to back; Next reads after
		// both, so they arrive as one coalesced delta.
		if _, err := kb.InsertTriples(strings.NewReader("Dana a Student .")); err != nil {
			t.Fatal(err)
		}
		if _, err := kb.DeleteTriples(strings.NewReader("Carl a Student .")); err != nil {
			t.Fatal(err)
		}
		d, err = sub.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(d.Added, d.Removed) != "[[Dana]] [[Carl]]" || d.Epoch != kb.Epoch() {
			t.Fatalf("delta of the insert+delete pair = %+v, store at epoch %d", d, kb.Epoch())
		}
		applyDelta(set, d)
		if len(set) != 3 {
			t.Fatalf("set after insert+delete pair = %v", set)
		}

		// A Next that is already waiting wakes on the commit. A write
		// that does not change the answers publishes nothing, so it
		// waits on through it; the following relevant write is
		// delivered normally.
		woke := make(chan error, 1)
		go func() {
			d, err := sub.Next(ctx)
			if err == nil && (len(d.Added) != 1 || d.Added[0][0] != "Eve") {
				err = fmt.Errorf("delta after irrelevant write = %+v", d)
			}
			woke <- err
		}()
		// Let Next start waiting. Should the commits land first, Next
		// reads them without waiting, and the step passes all the same.
		time.Sleep(10 * time.Millisecond)
		if _, err := kb.InsertTriples(strings.NewReader("Lab1 a Room .")); err != nil {
			t.Fatal(err)
		}
		if _, err := kb.InsertTriples(strings.NewReader("Eve a PhD .")); err != nil {
			t.Fatal(err)
		}
		if err := <-woke; err != nil {
			t.Fatal(err)
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
// the cold answer. Next reads after both writes, so they land in one
// delta.
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
	// ["a,b" "c"]): equal sets diff to nothing, and sets that differ in
	// one of the two rows diff to removing and adding just that row.
	ab, bc, z := []string{"a,b", "c"}, []string{"a", "b,c"}, []string{"z", "z"}
	if d := diffRows([][]string{bc, ab}, [][]string{bc, ab}); d.Added != nil || d.Removed != nil {
		t.Fatalf("diffRows of equal sets = %+v, want empty", d)
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
// subscription closed without touching its sibling. The cap is checked
// when Next reads: the id keeps resolving until Next delivers the cause,
// and is gone after. A Subscribe whose first read breaches the cap
// fails.
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
	if _, err := kb.Subscribe("q(x) :- Student(x)", SubscribeOptions{MaxRows: 3}); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("Subscribe past the cap = %v, want row-limit failure", err)
	}
	if st := kb.IncrementalStats(); st.EvalErrors != 2 || st.Subscriptions != 1 {
		t.Fatalf("stats after a refused Subscribe = %+v", st)
	}
}

// TestSubscribeReadsOnDemand counts the work instead of timing it: a
// commit only advances the fixpoint and wakes the subscriptions, and a
// subscription's answers are read and diffed when its Next runs. Of four
// subscriptions whose answers every batch changes, only one is read
// after each commit, so the delivered deltas are that one's N+1; an
// unread one then delivers all N batches as one coalesced delta. Next
// with a done context reads without blocking: the commit's delta, or
// context.Canceled when nothing changed.
func TestSubscribeReadsOnDemand(t *testing.T) {
	kb := enableLive(t, exampleKB(t))
	defer kb.Close()
	var subs []*Subscription
	for _, q := range []string{"q(x) :- Student(x)", "q(x) :- PhD(x)", "q(x) :- takesCourse(x, y)", "q(x) :- advisorOf(y, x)"} {
		s, err := kb.Subscribe(q, SubscribeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		subs = append(subs, s)
	}
	if d, err := subs[0].Next(doneCtx()); err != nil || len(d.Added) != 2 {
		t.Fatalf("initial delta = %+v, %v", d, err)
	}
	const batches = 5
	for i := 0; i < batches; i++ {
		if _, err := kb.InsertTriples(strings.NewReader(fmt.Sprintf("p%d a PhD .", i))); err != nil {
			t.Fatal(err)
		}
		d, err := subs[0].Next(doneCtx())
		if err != nil || d.Epoch != kb.Epoch() || fmt.Sprint(d.Added) != fmt.Sprintf("[[p%d]]", i) {
			t.Fatalf("delta of batch %d = %+v, %v; want [[p%d]] at epoch %d", i, d, err, i, kb.Epoch())
		}
	}
	if _, err := kb.InsertTriples(strings.NewReader("Lab1 a Room .")); err != nil {
		t.Fatal(err)
	}
	if d, err := subs[0].Next(doneCtx()); err != context.Canceled {
		t.Fatalf("Next after a commit that changes nothing = %+v, %v; want context.Canceled", d, err)
	}
	if st := kb.IncrementalStats(); st.Deltas != batches+1 {
		t.Fatalf("%d deltas delivered, want %d: the unread subscriptions were read", st.Deltas, batches+1)
	}
	if d, err := subs[1].Next(doneCtx()); err != nil || len(d.Added) != batches+1 || d.Epoch != kb.Epoch() {
		t.Fatalf("coalesced delta of an unread subscription = %+v, %v; want Ann and %d more at epoch %d", d, err, batches, kb.Epoch())
	}
	if st := kb.IncrementalStats(); st.Deltas != batches+2 {
		t.Fatalf("%d deltas delivered, want %d", st.Deltas, batches+2)
	}
}

// TestSubscribeConcurrentWrites replays a subscription's delta stream
// against concurrent writers (run under -race): folding every delta in
// order must reproduce exactly the final answer set. Beside them a
// churner subscribes to a second text, reads it and closes it again, so
// registrations and retirements race the commits' advances and the
// followed subscription's reads.
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
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				s, err := kb.Subscribe("q(x) :- PhD(x)", SubscribeOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				if d, err := s.Next(doneCtx()); err != nil || len(d.Added) == 0 {
					t.Errorf("churned subscription %d: %+v, %v", j, d, err)
				}
				s.Close()
			}
		}()

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

// TestSubscribeBudget: every live query text holds one of the
// maxIncChains slots. A full budget refuses a new text, and a
// subscription to a maintained text still shares its chain. Closing the
// last subscription on a text retires its chain and frees its slot.
func TestSubscribeBudget(t *testing.T) {
	kb := enableLive(t, exampleKB(t))
	defer kb.Close()

	var subs []*Subscription
	for i := 0; i < maxIncChains; i++ {
		s, err := kb.Subscribe(fmt.Sprintf("q(x%d) :- Student(x%d)", i, i), SubscribeOptions{})
		if err != nil {
			t.Fatalf("query text %d of %d: %v", i+1, maxIncChains, err)
		}
		subs = append(subs, s)
	}
	if _, err := kb.Subscribe("q(y) :- Student(y)", SubscribeOptions{}); err == nil ||
		!strings.Contains(err.Error(), "budget exhausted") {
		t.Fatalf("Subscribe of a new text past the cap = %v, want the budget error", err)
	}
	shared, err := kb.Subscribe("q(x0) :- Student(x0)", SubscribeOptions{})
	if err != nil {
		t.Fatalf("subscription sharing a maintained chain: %v", err)
	}
	if st := kb.IncrementalStats(); st.Chains != maxIncChains || st.Subscriptions != maxIncChains+1 {
		t.Fatalf("stats = %+v, want %d chains and %d subscriptions", st, maxIncChains, maxIncChains+1)
	}

	// The shared text keeps its chain until its second subscription
	// closes too.
	for _, s := range subs {
		s.Close()
	}
	if st := kb.IncrementalStats(); st.Chains != 1 || st.Subscriptions != 1 {
		t.Fatalf("stats after closing all but one = %+v, want 1 chain and 1 subscription", st)
	}
	if d, err := shared.Next(doneCtx()); err != nil || len(d.Added) != 2 {
		t.Fatalf("the shared chain after its sibling closed: %+v, %v", d, err)
	}
	shared.Close()
	s, err := kb.Subscribe("q(y) :- Student(y)", SubscribeOptions{})
	if err != nil {
		t.Fatalf("Subscribe of a new text once every slot is free: %v", err)
	}
	if d, err := s.Next(doneCtx()); err != nil || len(d.Added) != 2 {
		t.Fatalf("initial delta after retirement = %+v, %v", d, err)
	}
	if st := kb.IncrementalStats(); st.Chains != 1 || st.Subscriptions != 1 {
		t.Fatalf("stats after the new text = %+v, want 1 chain and 1 subscription", st)
	}
}
