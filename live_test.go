package ogpa

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func liveKB(t testing.TB, data string) *KB {
	t.Helper()
	kb, err := NewKBFromTriples(strings.NewReader(exampleOntology), strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := kb.EnableLiveData(-1); err != nil {
		t.Fatal(err)
	}
	return kb
}

const liveBaseData = `
Ann a PhD .
Bob a Student .
Prof advisorOf Bob .
Bob takesCourse DB101 .
`

func TestLiveDataBasics(t *testing.T) {
	kb := liveKB(t, liveBaseData)
	if !kb.Live() || kb.Epoch() != 1 {
		t.Fatalf("Live=%v Epoch=%d after EnableLiveData", kb.Live(), kb.Epoch())
	}
	if err := kb.EnableLiveData(0); err == nil {
		t.Fatal("double EnableLiveData should error")
	}

	query := `q(x) :- Student(x)`
	ans, err := kb.Answer(query)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 2 { // Ann (PhD ⊑ Student) and Bob
		t.Fatalf("baseline answers = %v", ans.Rows)
	}

	n, err := kb.InsertTriples(strings.NewReader("Carl a Student .\nCarl takesCourse DB101 ."))
	if err != nil || n != 2 {
		t.Fatalf("InsertTriples = %d, %v", n, err)
	}
	if kb.Epoch() != 2 || kb.OverlaySize() != 2 {
		t.Fatalf("Epoch=%d OverlaySize=%d after insert", kb.Epoch(), kb.OverlaySize())
	}
	ans, err = kb.Answer(query)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 3 {
		t.Fatalf("after insert: %v", ans.Rows)
	}

	if _, err := kb.DeleteTriples(strings.NewReader("Carl a Student .")); err != nil {
		t.Fatal(err)
	}
	ans, err = kb.Answer(query)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 2 {
		t.Fatalf("after delete: %v", ans.Rows)
	}

	// The ABox view follows the epoch, so ABox-based pipelines see writes.
	got, err := kb.AnswerBaseline(BaselineDatalog, query, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("datalog on live KB: %v", got.Rows)
	}
	if !strings.Contains(kb.Stats(), "live epoch=3") {
		t.Fatalf("Stats = %q", kb.Stats())
	}
}

func TestReadOnlyKBRejectsMutations(t *testing.T) {
	kb := exampleKB(t)
	if kb.Live() || kb.Epoch() != 0 {
		t.Fatal("fresh KB should be read-only at epoch 0")
	}
	if _, err := kb.InsertTriples(strings.NewReader("X a Student .")); err == nil {
		t.Fatal("insert on read-only KB should error")
	}
	if _, err := kb.DeleteTriples(strings.NewReader("X a Student .")); err == nil {
		t.Fatal("delete on read-only KB should error")
	}
}

// TestPreparedQueryPinsItsSnapshot documents the plan-cache contract: a
// prepared plan answers against the epoch it was built on; freshness
// comes from re-preparing under the new epoch (the server keys its cache
// by epoch for exactly this reason).
func TestPreparedQueryPinsItsSnapshot(t *testing.T) {
	kb := liveKB(t, liveBaseData)
	pq, err := kb.Prepare(`q(x) :- Student(x)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kb.InsertTriples(strings.NewReader("Dana a Student .\nDana takesCourse DB101 .")); err != nil {
		t.Fatal(err)
	}
	old, err := pq.Answer(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if old.Len() != 2 {
		t.Fatalf("pinned plan leaked the new epoch: %v", old.Rows)
	}
	fresh, err := kb.Answer(`q(x) :- Student(x)`)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != 3 {
		t.Fatalf("fresh answer misses the write: %v", fresh.Rows)
	}
}

func TestContextCancellationTruncatesCleanly(t *testing.T) {
	kb := exampleKB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: the matcher must stop at the first check

	ans, st, err := kb.AnswerWithStats(`q(x) :- Student(x)`, Options{Context: ctx})
	if err != nil {
		t.Fatalf("canceled context should truncate, not fail: %v", err)
	}
	if !st.Truncated {
		t.Fatal("Stats.Truncated not set on cancellation")
	}
	if ans.Len() != 0 {
		t.Fatalf("pre-canceled run returned %d answers", ans.Len())
	}

	// Same contract through the prepared UCQ baseline.
	pq, err := kb.PrepareBaseline(BaselineUCQ, `q(x) :- Student(x)`, 0)
	if err != nil {
		t.Fatal(err)
	}
	ans, st, err = pq.AnswerWithStats(Options{Context: ctx})
	if err != nil {
		t.Fatalf("ucq: %v", err)
	}
	if !st.Truncated || ans.Len() != 0 {
		t.Fatalf("ucq: truncated=%v len=%d", st.Truncated, ans.Len())
	}

	// A live context changes nothing.
	ans, st, err = kb.AnswerWithStats(`q(x) :- Student(x)`, Options{Context: context.Background()})
	if err != nil || st.Truncated || ans.Len() != 2 {
		t.Fatalf("live context: err=%v truncated=%v len=%d", err, st.Truncated, ans.Len())
	}
}

// tripleSet is the oracle for the live-vs-rebuild equivalence test: the
// effective set of (bare-word) triples after a mutation script.
type tripleSet map[string]bool

func (ts tripleSet) text() string {
	lines := make([]string, 0, len(ts))
	for l := range ts {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

func answersString(t *testing.T, ans *Answers, err error) string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString(strings.Join(ans.Vars, ","))
	sb.WriteByte('\n')
	for _, row := range ans.Rows {
		sb.WriteString(strings.Join(row, ","))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestLiveEquivalence100Seeds drives 100 random mutation scripts against
// a live KB (with a tiny compaction threshold, so compaction happens
// mid-script) and checks that, after every batch, both pipelines —
// GenOGP+OMatch and PerfectRef+DAF — return byte-identical answers to a
// KB rebuilt from scratch from the effective triple set.
func TestLiveEquivalence100Seeds(t *testing.T) {
	if testing.Short() {
		t.Skip("100-seed property test")
	}
	verts := []string{"v0", "v1", "v2", "v3", "v4", "v5", "v6", "v7"}
	labels := []string{"PhD", "Student", "Course"}
	preds := []string{"takesCourse", "advisorOf"}
	queries := []string{
		`q(x) :- Student(x)`,
		`q(x) :- PhD(x), takesCourse(x, y)`,
		`q(x, y) :- advisorOf(y, x), takesCourse(x, z)`,
	}

	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eff := tripleSet{}
		randomTriple := func() string {
			if rng.Intn(2) == 0 {
				return fmt.Sprintf("%s a %s .", verts[rng.Intn(len(verts))], labels[rng.Intn(len(labels))])
			}
			return fmt.Sprintf("%s %s %s .", verts[rng.Intn(len(verts))], preds[rng.Intn(len(preds))], verts[rng.Intn(len(verts))])
		}

		for i := 0; i < 12; i++ {
			eff[randomTriple()] = true
		}
		kb, err := NewKBFromTriples(strings.NewReader(exampleOntology), strings.NewReader(eff.text()))
		if err != nil {
			t.Fatal(err)
		}
		if err := kb.EnableLiveData(6); err != nil { // tiny: compaction fires mid-script
			t.Fatal(err)
		}

		for batch := 0; batch < 3; batch++ {
			del := rng.Intn(3) == 0
			var lines []string
			for i := 0; i < 4+rng.Intn(4); i++ {
				tr := randomTriple()
				lines = append(lines, tr)
				if del {
					delete(eff, tr)
				} else {
					eff[tr] = true
				}
			}
			body := strings.NewReader(strings.Join(lines, "\n"))
			if del {
				_, err = kb.DeleteTriples(body)
			} else {
				_, err = kb.InsertTriples(body)
			}
			if err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, batch, err)
			}

			rebuilt, err := NewKBFromTriples(strings.NewReader(exampleOntology), strings.NewReader(eff.text()))
			if err != nil {
				t.Fatalf("seed %d batch %d rebuild: %v", seed, batch, err)
			}
			for _, q := range queries {
				liveAns, liveErr := kb.Answer(q)
				liveOM := answersString(t, liveAns, liveErr)
				rebAns, rebErr := rebuilt.Answer(q)
				rebOM := answersString(t, rebAns, rebErr)
				if liveOM != rebOM {
					t.Fatalf("seed %d batch %d OMatch diverged on %q:\n-- live --\n%s-- rebuild --\n%s",
						seed, batch, q, liveOM, rebOM)
				}
				liveUAns, liveUErr := kb.AnswerBaseline(BaselineUCQ, q, Options{})
				liveUCQ := answersString(t, liveUAns, liveUErr)
				rebUAns, rebUErr := rebuilt.AnswerBaseline(BaselineUCQ, q, Options{})
				rebUCQ := answersString(t, rebUAns, rebUErr)
				if liveUCQ != rebUCQ {
					t.Fatalf("seed %d batch %d UCQ diverged on %q:\n-- live --\n%s-- rebuild --\n%s",
						seed, batch, q, liveUCQ, rebUCQ)
				}
				if liveOM != liveUCQ {
					t.Fatalf("seed %d batch %d pipelines disagree on %q:\n-- omatch --\n%s-- ucq --\n%s",
						seed, batch, q, liveOM, liveUCQ)
				}
			}
		}
		kb.WaitIdle()
	}
}

// TestConsistencyFollowsLiveEpochs: the cold consistency check runs over
// the current snapshot, so it follows live insertions and retractions.
func TestConsistencyFollowsLiveEpochs(t *testing.T) {
	ontology := exampleOntology + "PhD DisjointWith Course\n"
	kb, err := NewKB(strings.NewReader(ontology), strings.NewReader(exampleData))
	if err != nil {
		t.Fatal(err)
	}
	if err := kb.EnableLiveData(-1); err != nil {
		t.Fatal(err)
	}
	defer kb.Close()

	vs, err := kb.CheckConsistency()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("consistent KB reports %v", vs)
	}
	if _, err := kb.InsertTriples(strings.NewReader("Ann a Course .")); err != nil {
		t.Fatal(err)
	}
	vs, err = kb.CheckConsistency()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) == 0 {
		t.Fatal("PhD ⊓ Course individual not reported inconsistent")
	}
	if _, err := kb.DeleteTriples(strings.NewReader("Ann a Course .")); err != nil {
		t.Fatal(err)
	}
	vs, err = kb.CheckConsistency()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("violation survived the retraction: %v", vs)
	}
}
