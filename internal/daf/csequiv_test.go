package daf

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ogpa/internal/core"
	"ogpa/internal/cq"
	"ogpa/internal/graph"
	"ogpa/internal/symbols"
)

// TestBitsetMapEquivalenceDAF is the DAF-side contract of the engine's
// bitset/CSR candidate space: for any condition-free pattern it yields
// exactly the answers of a brute-force evaluation, sequentially and with
// a worker pool, and never reports truncation without limits. The
// brute-force rows are also checked against core.EnumerateNaive, so two
// independent oracles agree. 100 random instances; internal/match runs
// the OGP-side twin of this test.
func TestBitsetMapEquivalenceDAF(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, qs := randomUCQInstance(rng)
		for qi, q := range qs {
			p := core.FromCQ(q)
			naive := fmt.Sprint(core.EnumerateNaive(p, g).Names(g))
			want := fmt.Sprint(bruteForceCQ(q, g))
			if want != naive {
				t.Fatalf("seed %d q%d: bruteForceCQ %s vs EnumerateNaive %s\nquery: %s",
					seed, qi, want, naive, q)
			}
			for _, workers := range []int{1, 4} {
				ans, st, err := Match(p, g, Options{Workers: workers})
				if err != nil {
					t.Fatalf("seed %d q%d workers %d: Match: %v", seed, qi, workers, err)
				}
				if got := fmt.Sprint(ans.Names(g)); got != want {
					t.Fatalf("seed %d q%d workers %d:\nbrute force %s\nengine      %s\nquery: %s",
						seed, qi, workers, want, got, q)
				}
				if st.Truncated {
					t.Fatalf("seed %d q%d workers %d: Truncated without limits", seed, qi, workers)
				}
			}
		}
	}
}

// bruteForceCQ evaluates q over g by trying every assignment of q's
// variables to graph vertices, checking each atom's label or edge on g
// directly and projecting onto the distinguished variables. It shares no
// code with the engine or core's evaluator, so it is an oracle for both.
// Rows are rendered and sorted like core.AnswerSet.Names.
func bruteForceCQ(q *cq.Query, g *graph.Graph) []string {
	vars := q.Vars()
	idx := make(map[string]int, len(vars))
	for i, v := range vars {
		idx[v] = i
	}
	m := make([]graph.VID, len(vars))
	holds := func() bool {
		for _, a := range q.Atoms {
			l := g.Symbols.Lookup(a.Pred)
			if l == symbols.None {
				return false
			}
			if a.IsRole {
				if !g.HasEdge(m[idx[a.X]], l, m[idx[a.Y]]) {
					return false
				}
			} else if !g.HasLabel(m[idx[a.X]], l) {
				return false
			}
		}
		return true
	}
	seen := map[string]bool{}
	var rows []string
	var assign func(i int)
	assign = func(i int) {
		if i < len(m) {
			for v := 0; v < g.NumVertices(); v++ {
				m[i] = graph.VID(v)
				assign(i + 1)
			}
			return
		}
		if !holds() {
			return
		}
		var parts []string
		for i, v := range vars {
			if q.IsDistinguished(v) {
				parts = append(parts, g.Name(m[i]))
			}
		}
		if row := strings.Join(parts, ","); !seen[row] {
			seen[row] = true
			rows = append(rows, row)
		}
	}
	assign(0)
	sort.Strings(rows)
	return rows
}

// TestPreparedUCQMatchesEvalUCQ pins the plan-cache contract: running a
// prepared UCQ (the unit the server caches) must agree with the direct
// EvalUCQ path on answers and truncation, including repeated Runs of the
// same prepared union with different limits.
func TestPreparedUCQMatchesEvalUCQ(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, qs := randomUCQInstance(rng)

		direct, directSt, err := EvalUCQ(qs, g, Options{Workers: 1})
		if err != nil {
			t.Fatalf("seed %d: EvalUCQ: %v", seed, err)
		}
		pu, err := PrepareUCQ(qs, g)
		if err != nil {
			t.Fatalf("seed %d: PrepareUCQ: %v", seed, err)
		}
		for _, workers := range []int{1, 4} {
			got, gotSt, err := pu.Run(Options{Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers %d: prepared union Run: %v", seed, workers, err)
			}
			if fmt.Sprint(got.Names(g)) != fmt.Sprint(direct.Names(g)) {
				t.Fatalf("seed %d workers %d:\nEvalUCQ  %v\nPrepared %v",
					seed, workers, direct.Names(g), got.Names(g))
			}
			if gotSt.Truncated != directSt.Truncated {
				t.Fatalf("seed %d workers %d: Truncated %v vs %v",
					seed, workers, gotSt.Truncated, directSt.Truncated)
			}
		}
		if direct.Len() < 2 {
			continue
		}
		limit := 1 + int(seed)%direct.Len()
		res, st, err := pu.Run(Options{Limits: Limits{MaxResults: limit}, Workers: 2})
		if err != nil {
			t.Fatalf("seed %d limit %d: %v", seed, limit, err)
		}
		if res.Len() != limit || !st.Truncated {
			t.Fatalf("seed %d limit %d: len=%d truncated=%v", seed, limit, res.Len(), st.Truncated)
		}
	}
}

// TestPreparedUCQStatsSumDisjuncts: a union's statistics are the sums of
// its disjunct plans'. With one worker and no limit every disjunct runs
// to completion, so each field of the union Run's Stats equals the sum
// over Runs of the disjuncts prepared one by one (Truncated: their OR),
// and the union's Stats likewise sums their build-phase Stats. The two
// timings are measured afresh: BuildNanos has to be non-zero and copied
// into every Run of the union plan, EnumNanos non-zero. Fields are
// walked by reflection, so a counter added to engine.Stats is covered
// without touching this test.
func TestPreparedUCQStatsSumDisjuncts(t *testing.T) {
	sum := func(dst *Stats, src Stats) {
		d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src)
		for f := 0; f < d.NumField(); f++ {
			switch fd := d.Field(f); fd.Kind() {
			case reflect.Int, reflect.Int64:
				fd.SetInt(fd.Int() + s.Field(f).Int())
			case reflect.Bool:
				fd.SetBool(fd.Bool() || s.Field(f).Bool())
			default:
				t.Fatalf("Stats.%s: unhandled kind %s", d.Type().Field(f).Name, fd.Kind())
			}
		}
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, qs := randomUCQInstance(rng)
		pu, err := PrepareUCQ(qs, g)
		if err != nil {
			t.Fatalf("seed %d: PrepareUCQ: %v", seed, err)
		}
		var wantRun, wantBuild Stats
		for i, q := range qs {
			pr, err := Prepare(core.FromCQ(q), g)
			if err != nil {
				t.Fatalf("seed %d disjunct %d: Prepare: %v", seed, i, err)
			}
			_, st, err := pr.Run(Options{Workers: 1})
			if err != nil {
				t.Fatalf("seed %d disjunct %d: Run: %v", seed, i, err)
			}
			sum(&wantRun, st)
			sum(&wantBuild, pr.Stats())
		}
		build := pu.Stats()
		_, got, err := pu.Run(Options{Workers: 1})
		if err != nil {
			t.Fatalf("seed %d: union Run: %v", seed, err)
		}
		if build.BuildNanos <= 0 || got.BuildNanos != build.BuildNanos {
			t.Fatalf("seed %d: BuildNanos %d in Stats, %d in Run; want equal and > 0", seed, build.BuildNanos, got.BuildNanos)
		}
		if got.EnumNanos <= 0 && wantRun.EnumNanos > 0 {
			t.Fatalf("seed %d: EnumNanos = %d, want > 0", seed, got.EnumNanos)
		}
		got.EnumNanos, wantRun.EnumNanos = 0, 0
		got.BuildNanos, wantRun.BuildNanos, build.BuildNanos, wantBuild.BuildNanos = 0, 0, 0, 0
		if got != wantRun {
			t.Fatalf("seed %d: union Run stats\n got %+v\nwant %+v", seed, got, wantRun)
		}
		if build != wantBuild {
			t.Fatalf("seed %d: union Stats\n got %+v\nwant %+v", seed, build, wantBuild)
		}
	}
}
