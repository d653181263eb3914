package inc

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"ogpa/internal/cq"
	"ogpa/internal/datalog"
	"ogpa/internal/delta"
	"ogpa/internal/dllite"
	"ogpa/internal/perfectref"
	"ogpa/internal/testkb"
)

// ntConcept / ntRole render one assertion as an N-Triples line (bare
// names; the 'a' shorthand only binds in predicate position, so
// individuals named "a" are safe as subjects).
func ntConcept(c dllite.ConceptAssertion) string {
	return fmt.Sprintf("%s a %s .", c.Ind, c.Concept)
}

func ntRole(r dllite.RoleAssertion) string {
	return fmt.Sprintf("%s %s %s .", r.Sub, r.Role, r.Obj)
}

// liveStore builds a delta store whose base graph holds abox.
func liveStore(abox *dllite.ABox) *delta.Store {
	return delta.NewStore(abox.Graph(nil), delta.Config{CompactThreshold: -1})
}

// oracleABox reconstructs the ABox at the store's current epoch — the
// exact view ogpa.KB's cold pipelines evaluate against.
func oracleABox(s *delta.Store) *dllite.ABox {
	return dllite.ABoxFromGraph(s.Snapshot().Graph())
}

// randTripleBatch draws one insertion or deletion body over the testkb
// signature, biased like the package-level sweeps: every third batch is
// deletion-heavy.
func randTripleBatch(rng *rand.Rand, cur *dllite.ABox, heavy bool) (body string, del bool) {
	var lines []string
	if heavy && (len(cur.Concepts) > 0 || len(cur.Roles) > 0) {
		for i := 0; i < 3+rng.Intn(6); i++ {
			if n := len(cur.Concepts); n > 0 && (rng.Intn(2) == 0 || len(cur.Roles) == 0) {
				lines = append(lines, ntConcept(cur.Concepts[rng.Intn(n)]))
			} else if n := len(cur.Roles); n > 0 {
				lines = append(lines, ntRole(cur.Roles[rng.Intn(n)]))
			}
		}
		return strings.Join(lines, "\n"), true
	}
	add := testkb.RandomABox(rng)
	n := 1 + rng.Intn(4)
	for i := 0; i < n && i < len(add.Concepts); i++ {
		lines = append(lines, ntConcept(add.Concepts[i]))
	}
	for i := 0; i < n && i < len(add.Roles); i++ {
		lines = append(lines, ntRole(add.Roles[i]))
	}
	return strings.Join(lines, "\n"), false
}

// TestManagerChainsMatchOracle is the manager-level slice of the
// 100-seed incremental-vs-recompute sweep: several standing queries share
// the manager's one fixpoint — one of them registered twice, one only
// after the third batch — and each chain must agree byte-for-byte with
// from-scratch evaluation of its own program over the store's
// reconstructed ABox after every committed batch, including
// deletion-heavy ones.
func TestManagerChainsMatchOracle(t *testing.T) {
	for seed := 0; seed < 100; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			tb, abox, q := testkb.RandomKB(rng)
			rewrite := func(q *cq.Query) *datalog.Program {
				t.Helper()
				prog, err := datalog.Rewrite(q, tb, perfectref.Limits{})
				if err != nil {
					t.Fatalf("Rewrite %s: %v", q, err)
				}
				return prog
			}
			early := []*datalog.Program{rewrite(q), rewrite(testkb.RandomQuery(rng)), rewrite(testkb.RandomQuery(rng))}
			early = append(early, early[0])
			late := rewrite(testkb.RandomQuery(rng))

			s := liveStore(abox)
			defer s.Close()
			m := NewManager(s, nil)
			defer m.Close()

			var progs []*datalog.Program
			var chains []*DatalogChain
			register := func(prog *datalog.Program) {
				t.Helper()
				c, err := m.RegisterDatalog(prog, datalog.Limits{})
				if err != nil {
					t.Fatalf("RegisterDatalog: %v", err)
				}
				progs, chains = append(progs, prog), append(chains, c)
			}
			for _, prog := range early {
				register(prog)
			}

			check := func(step string) {
				t.Helper()
				cur := oracleABox(s)
				for i, c := range chains {
					got, epoch, err := c.Answer()
					if err != nil {
						t.Fatalf("%s: chain %d: %v", step, i, err)
					}
					if epoch != s.Epoch() {
						t.Fatalf("%s: chain %d answered at epoch %d, store at %d", step, i, epoch, s.Epoch())
					}
					want, err := datalog.Answer(progs[i], datalog.LoadABox(cur), datalog.Limits{})
					if err != nil {
						t.Fatalf("%s: chain %d oracle: %v", step, i, err)
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s: chain %d\nmaintained: %v\noracle:     %v", step, i, got, want)
					}
				}
			}
			check("initial")

			for bi := 0; bi < 6; bi++ {
				heavy := bi%3 == 2
				body, del := randTripleBatch(rng, oracleABox(s), heavy)
				var err error
				switch {
				case body == "":
				case del:
					_, err = s.DeleteTriples(strings.NewReader(body))
				default:
					_, err = s.InsertTriples(strings.NewReader(body))
				}
				if err != nil {
					t.Fatalf("batch %d: %v", bi, err)
				}
				if bi == 2 {
					register(late)
				}
				check(fmt.Sprintf("batch %d (del=%v)", bi, del))
			}

			st := m.Stats()
			if st.Epoch != s.Epoch() || st.Chains != len(chains) {
				t.Fatalf("stats = %+v, store epoch %d, %d chains", st, s.Epoch(), len(chains))
			}
		})
	}
}

// TestManagerNameClash: committed triples whose predicate is a concept
// name used as a role, or named like one of the rewriting's own
// predicates (an answer predicate, a hierarchy closure), neither crash
// the manager nor leak into another chain's answers, and a chain over
// such a name answers its facts: after inserting and then deleting them
// every chain answers as the cold oracle does, which keys relations by
// name and arity and loads data through datalog.EDB.
func TestManagerNameClash(t *testing.T) {
	abox := &dllite.ABox{}
	abox.AddConcept("PhD", "ann")
	abox.AddConcept("Student", "bob")
	tb := dllite.NewTBox([]dllite.ConceptInclusion{
		{Sub: dllite.Atomic("PhD"), Sup: dllite.Atomic("Student")},
	}, nil)
	s := liveStore(abox)
	defer s.Close()
	m := NewManager(s, nil)
	defer m.Close()

	var progs []*datalog.Program
	var chains []*DatalogChain
	for _, q := range []string{"q(x) :- Student(x)", "q(x, y) :- Student(x, y)", "q(x) :- c·Student(x)"} {
		prog, err := datalog.Rewrite(cq.MustParse(q), tb, perfectref.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		c, err := m.RegisterDatalog(prog, datalog.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		progs, chains = append(progs, prog), append(chains, c)
	}
	check := func(step string, want ...string) {
		t.Helper()
		cur := oracleABox(s)
		for i, c := range chains {
			got, _, err := c.Answer()
			if err != nil {
				t.Fatalf("%s: chain %d: %v", step, i, err)
			}
			oracle, err := datalog.Answer(progs[i], datalog.LoadABox(cur), datalog.Limits{})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(oracle) || fmt.Sprint(got) != want[i] {
				t.Fatalf("%s: chain %d answers %v, oracle %v, want %s", step, i, got, oracle, want[i])
			}
		}
	}
	check("initial", "[[ann] [bob]]", "[]", "[]")

	body := strings.Join([]string{
		"ann Student bob .",
		"x1 " + datalog.AnswerPrefix + "0 x2 .",
		"x3 a " + datalog.AnswerPrefix + "0 .",
		"x4 a c·Student .",
		"x5 r·Student x6 .",
	}, "\n")
	if _, err := s.InsertTriples(strings.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Advance(); err != nil {
		t.Fatal(err)
	}
	check("inserted", "[[ann] [bob]]", "[[ann bob]]", "[[x4]]")
	if _, err := s.DeleteTriples(strings.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	check("deleted", "[[ann] [bob]]", "[]", "[]")
	if st := m.Stats(); st.Rebuilds != 0 {
		t.Errorf("%d fixpoint rebuilds, want 0", st.Rebuilds)
	}
}

// TestManagerLateRegistration: a chain registered after batches have
// committed must initialize from the snapshot of the newest applied
// batch, not the registration-time base graph.
func TestManagerLateRegistration(t *testing.T) {
	abox := &dllite.ABox{}
	abox.AddConcept("A", "x1")
	tb := dllite.NewTBox([]dllite.ConceptInclusion{
		{Sub: dllite.Atomic("A"), Sup: dllite.Atomic("B")},
	}, nil)

	s := liveStore(abox)
	defer s.Close()
	m := NewManager(s, nil)
	defer m.Close()

	if _, err := s.InsertTriples(strings.NewReader("x2 a A .")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeleteTriples(strings.NewReader("x1 a A .")); err != nil {
		t.Fatal(err)
	}

	prog, err := datalog.Rewrite(cq.MustParse("q(x) :- B(x)"), tb, perfectref.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	dc, err := m.RegisterDatalog(prog, datalog.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	out, epoch, err := dc.Answer()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != s.Epoch() {
		t.Fatalf("answered at epoch %d, store at %d", epoch, s.Epoch())
	}
	if got := fmt.Sprint(out); got != "[[x2]]" {
		t.Fatalf("late-registered chain answers = %s, want [[x2]]", got)
	}
}

// TestManagerErrorIsolationAndRebuild: a registration that blows its
// limit fails alone — the fixpoint it would have replaced keeps
// answering the earlier chain at the store's epoch — and a fixpoint
// whose apply failed is rebuilt from the pinned snapshot on its next use.
func TestManagerErrorIsolationAndRebuild(t *testing.T) {
	tb := dllite.NewTBox([]dllite.ConceptInclusion{
		{Sub: dllite.Atomic("A"), Sup: dllite.Atomic("B")},
	}, nil)
	abox := &dllite.ABox{}
	abox.AddConcept("A", "x0")
	rewrite := func(q string) *datalog.Program {
		t.Helper()
		prog, err := datalog.Rewrite(cq.MustParse(q), tb, perfectref.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}

	s := liveStore(abox)
	defer s.Close()
	m := NewManager(s, nil)
	defer m.Close()

	loose, err := m.RegisterDatalog(rewrite("q(x) :- B(x)"), datalog.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	insert := func(from, to int) {
		t.Helper()
		var lines []string
		for i := from; i <= to; i++ {
			lines = append(lines, fmt.Sprintf("x%d a A .", i))
		}
		if _, err := s.InsertTriples(strings.NewReader(strings.Join(lines, "\n"))); err != nil {
			t.Fatal(err)
		}
	}
	answers := func(want int) {
		t.Helper()
		out, epoch, err := loose.Answer()
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != want || epoch != s.Epoch() {
			t.Fatalf("answered %d rows at epoch %d, want %d at the store's %d", len(out), epoch, want, s.Epoch())
		}
	}

	// Eleven individuals derive B, c·A and c·B facts each: far past 16.
	insert(1, 10)
	m.gate.mu.Lock()
	before := m.state
	m.gate.mu.Unlock()
	if _, err := m.RegisterDatalog(rewrite("q(x) :- A(x)"), datalog.Limits{MaxFacts: 16}); err == nil {
		t.Fatal("registration past its MaxFacts limit succeeded")
	}
	m.gate.mu.Lock()
	kept := m.state == before
	m.gate.mu.Unlock()
	if !kept {
		t.Fatal("a failed registration replaced the fixpoint")
	}
	answers(11)
	if st := m.Stats(); st.Chains != 1 {
		t.Fatalf("stats = %+v, want the one registered chain", st)
	}

	// A broken fixpoint skips later batches and is rebuilt from the
	// snapshot pinned at the newest one.
	m.gate.mu.Lock()
	m.broken = true
	m.gate.mu.Unlock()
	insert(11, 12)
	answers(13)
	if st := m.Stats(); st.Rebuilds != 1 {
		t.Fatalf("stats = %+v, want one recorded rebuild", st)
	}
	insert(13, 13)
	answers(14)
}

// TestManagerConcurrent hammers one manager with concurrent writers and
// readers; run under -race. Every answer must be internally consistent
// with the epoch it reports (monotone, never past the store).
func TestManagerConcurrent(t *testing.T) {
	tb := dllite.NewTBox([]dllite.ConceptInclusion{
		{Sub: dllite.Atomic("A"), Sup: dllite.Atomic("B")},
	}, nil)
	abox := &dllite.ABox{}
	abox.AddConcept("A", "w0_0")

	q := cq.MustParse("q(x) :- B(x)")
	prog, err := datalog.Rewrite(q, tb, perfectref.Limits{})
	if err != nil {
		t.Fatal(err)
	}

	s := liveStore(abox)
	defer s.Close()
	m := NewManager(s, nil)
	defer m.Close()
	dc, err := m.RegisterDatalog(prog, datalog.Limits{})
	if err != nil {
		t.Fatal(err)
	}

	const writers, perWriter = 4, 20
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				line := fmt.Sprintf("w%d_%d a A .", i, j)
				if _, err := s.InsertTriples(strings.NewReader(line)); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	var last uint64
	for k := 0; k < 50; k++ {
		out, epoch, err := dc.Answer()
		if err != nil {
			t.Fatalf("Answer %d: %v", k, err)
		}
		if epoch < last || epoch > s.Epoch() {
			t.Fatalf("epoch went %d after %d (store %d)", epoch, last, s.Epoch())
		}
		last = epoch
		if len(out) == 0 {
			t.Fatal("lost the base answer")
		}
	}
	wg.Wait()

	out, epoch, err := dc.Answer()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != s.Epoch() || len(out) != writers*perWriter {
		t.Fatalf("final: %d rows at epoch %d, want %d rows at %d",
			len(out), epoch, writers*perWriter, s.Epoch())
	}
}

// TestManagerAdvanceInOrder: Advance, the writer's path after every
// commit, applies batches in publish order while another Advance loop
// and two Answer loops run concurrently (run under -race): every answer
// holds exactly the row count of the epoch it reports, and Advance never
// returns an epoch older than the writer's own commit.
func TestManagerAdvanceInOrder(t *testing.T) {
	tb := dllite.NewTBox([]dllite.ConceptInclusion{
		{Sub: dllite.Atomic("A"), Sup: dllite.Atomic("B")},
	}, nil)
	abox := &dllite.ABox{}
	abox.AddConcept("A", "w0")
	prog, err := datalog.Rewrite(cq.MustParse("q(x) :- B(x)"), tb, perfectref.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	s := liveStore(abox)
	m := NewManager(s, nil)
	defer m.Close()
	dc, err := m.RegisterDatalog(prog, datalog.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	e0 := s.Epoch()

	// The writer's batches, in publish order: batch k inserts w<k>, and
	// every third batch deletes the individual the one before inserted.
	// rows[k] is the answer count at epoch e0+k.
	const batches = 120
	var bodies []string
	var dels []bool
	rows := []int{1}
	for k := 1; len(bodies) < batches; k++ {
		bodies, dels = append(bodies, fmt.Sprintf("w%d a A .", k)), append(dels, false)
		rows = append(rows, rows[len(rows)-1]+1)
		if k%3 == 0 {
			bodies, dels = append(bodies, fmt.Sprintf("w%d a A .", k-1)), append(dels, true)
			rows = append(rows, rows[len(rows)-1]-1)
		}
	}

	var wg sync.WaitGroup
	check := func(who string, out []datalog.Tuple, e uint64) {
		if k := int(e - e0); k >= len(rows) || len(out) != rows[k] {
			t.Errorf("%s: %d rows at epoch %d, want the count at batch %d of %d", who, len(out), e, k, len(rows)-1)
		}
	}
	stop := make(chan struct{})
	loop := func(step func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				step()
			}
		}()
	}
	last := e0
	loop(func() { // a second writer's advances
		e, err := m.Advance()
		if err != nil || e < last {
			t.Errorf("Advance = %d, %v after %d", e, err, last)
		}
		last = e
	})
	for r := 0; r < 2; r++ {
		loop(func() {
			out, e, err := dc.Answer()
			if err != nil {
				t.Error(err)
			}
			check("reader", out, e)
		})
	}
	for i := range bodies {
		var err error
		if dels[i] {
			_, err = s.DeleteTriples(strings.NewReader(bodies[i]))
		} else {
			_, err = s.InsertTriples(strings.NewReader(bodies[i]))
		}
		if err != nil {
			t.Fatal(err)
		}
		if e, err := m.Advance(); err != nil || e < e0+uint64(i)+1 {
			t.Fatalf("Advance after commit %d = %d, %v; want at least epoch %d", i, e, err, e0+uint64(i)+1)
		}
		out, e, err := dc.Answer()
		if err != nil {
			t.Fatal(err)
		}
		check("writer", out, e)
	}
	close(stop)
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if e, err := m.Advance(); err != nil || e != e0+uint64(len(bodies)) {
		t.Fatalf("Advance on a closed store = %d, %v; want epoch %d", e, err, e0+uint64(len(bodies)))
	}
}

// TestManagerRetire: a retired chain's answer rules stop firing and its
// answer relation is gone — a batch that would derive into it leaves it
// absent — while a sibling chain keeps answering. Answer predicate
// numbers are never reused, Stats counts live chains, and retiring the
// last chain drops the fixpoint.
func TestManagerRetire(t *testing.T) {
	tb := dllite.NewTBox([]dllite.ConceptInclusion{
		{Sub: dllite.Atomic("A"), Sup: dllite.Atomic("B")},
	}, nil)
	abox := &dllite.ABox{}
	abox.AddConcept("A", "x0")
	rewrite := func(q string) *datalog.Program {
		t.Helper()
		prog, err := datalog.Rewrite(cq.MustParse(q), tb, perfectref.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	s := liveStore(abox)
	defer s.Close()
	m := NewManager(s, nil)
	defer m.Close()
	retired, err := m.RegisterDatalog(rewrite("q(x) :- A(x)"), datalog.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	kept, err := m.RegisterDatalog(rewrite("q(x) :- B(x)"), datalog.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	retired.Retire()
	retired.Retire()
	if _, err := s.InsertTriples(strings.NewReader("x1 a A .")); err != nil {
		t.Fatal(err)
	}
	if out, _, err := kept.Answer(); err != nil || len(out) != 2 {
		t.Fatalf("sibling chain = %v, %v; want x0 and x1", out, err)
	}
	m.gate.mu.Lock()
	r := m.state.DB().Lookup(retired.pred, 1)
	m.gate.mu.Unlock()
	if r != nil {
		t.Fatalf("retired predicate %s holds %v after a batch that matches its query", retired.pred, r.Tuples())
	}
	if _, _, err := retired.Answer(); err == nil {
		t.Fatal("Answer on a retired chain succeeded")
	}
	if st := m.Stats(); st.Chains != 1 {
		t.Fatalf("stats = %+v, want one live chain", st)
	}

	again, err := m.RegisterDatalog(rewrite("q(x) :- A(x)"), datalog.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if again.pred == retired.pred || again.pred == kept.pred {
		t.Fatalf("answer predicate %s reused (retired %s, live %s)", again.pred, retired.pred, kept.pred)
	}
	if out, _, err := again.Answer(); err != nil || len(out) != 2 {
		t.Fatalf("re-registered chain = %v, %v; want x0 and x1", out, err)
	}
	kept.Retire()
	again.Retire()
	m.gate.mu.Lock()
	dropped := m.state == nil
	m.gate.mu.Unlock()
	if st := m.Stats(); st.Chains != 0 || !dropped {
		t.Fatalf("stats = %+v, fixpoint dropped %v; want no live chain and no fixpoint", st, dropped)
	}
}
