package ogpa

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ogpa/internal/testkb"
)

func rowsString(a *Answers) string {
	var sb strings.Builder
	for _, r := range a.Rows {
		sb.WriteString(strings.Join(r, "\x00"))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestWorkersVsSequentialSweep is the facade-level gate on the
// first-level fan-out: across 100 random live KBs, every query answered
// with Workers ∈ {2, 4, 8} must be byte-identical to the Workers: 1 run
// — on both the primary GenOGP+OMatch pipeline and the PerfectRef+DAF
// UCQ baseline, before and after a live write batch (so the fan-out also
// runs over an overlay snapshot, not only the frozen base).
func TestWorkersVsSequentialSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("100-seed property test")
	}
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb, abox, q := testkb.RandomKB(rng)
		onto, data := testkb.Render(tb, abox)
		queries := []string{q.String(), testkb.RandomQuery(rng).String()}

		// A write batch over the testkb vocabulary: existing individuals
		// a..e plus fresh ones (fresh vertices append at high VIDs).
		concepts := []string{"A", "B", "C", "D"}
		roles := []string{"p", "q", "r"}
		inds := []string{"a", "b", "c", "d", "e", "f0", "f1"}
		var lines []string
		for i := 0; i < 2+rng.Intn(3); i++ {
			if rng.Intn(2) == 0 {
				lines = append(lines, fmt.Sprintf("%s a %s .",
					inds[rng.Intn(len(inds))], concepts[rng.Intn(len(concepts))]))
			} else {
				lines = append(lines, fmt.Sprintf("%s %s %s .",
					inds[rng.Intn(len(inds))], roles[rng.Intn(len(roles))], inds[rng.Intn(len(inds))]))
			}
		}
		batch := strings.Join(lines, "\n")

		kb, err := NewKB(strings.NewReader(onto), strings.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if err := kb.EnableLiveData(-1); err != nil {
			t.Fatal(err)
		}
		check := func(round string) {
			for qi, src := range queries {
				wantOGP, wantOGPErr := kb.AnswerWithOptions(src, Options{Workers: 1})
				wantUCQ, wantUCQErr := kb.AnswerBaseline(BaselineUCQ, src, Options{Workers: 1})
				for _, n := range []int{2, 4, 8} {
					gotAns, gotErr := kb.AnswerWithOptions(src, Options{Workers: n})
					if (wantOGPErr == nil) != (gotErr == nil) {
						t.Fatalf("seed %d workers %d %s query %d (%s): errors diverge: sequential %v, parallel %v",
							seed, n, round, qi, src, wantOGPErr, gotErr)
					}
					if wantOGPErr == nil && rowsString(wantOGP) != rowsString(gotAns) {
						t.Fatalf("seed %d workers %d %s query %d (%s): OGP answers diverge\nsequential:\n%sparallel:\n%s",
							seed, n, round, qi, src, rowsString(wantOGP), rowsString(gotAns))
					}
					gotAns, gotErr = kb.AnswerBaseline(BaselineUCQ, src, Options{Workers: n})
					if (wantUCQErr == nil) != (gotErr == nil) {
						t.Fatalf("seed %d workers %d %s query %d (%s): UCQ errors diverge: sequential %v, parallel %v",
							seed, n, round, qi, src, wantUCQErr, gotErr)
					}
					if wantUCQErr == nil && rowsString(wantUCQ) != rowsString(gotAns) {
						t.Fatalf("seed %d workers %d %s query %d (%s): UCQ answers diverge\nsequential:\n%sparallel:\n%s",
							seed, n, round, qi, src, rowsString(wantUCQ), rowsString(gotAns))
					}
				}
			}
		}
		check("pre-write")
		if _, err := kb.InsertTriples(strings.NewReader(batch)); err != nil {
			t.Fatalf("seed %d: insert: %v", seed, err)
		}
		check("post-write")
	}
}
