package ogpa

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"ogpa/internal/core"
	"ogpa/internal/cq"
	"ogpa/internal/daf"
	"ogpa/internal/datalog"
	"ogpa/internal/dllite"
	"ogpa/internal/perfectref"
	"ogpa/internal/rewrite"
	"ogpa/internal/saturate"
	"ogpa/internal/testkb"
)

// padQuery returns q plus a copy of one existential branch of q — the
// atoms that mention the existential variable v — with every existential
// variable renamed to a fresh one. The copy folds back onto the branch
// (each fresh variable onto its original), so the padded query has q's
// core.
func padQuery(q *cq.Query, rng *rand.Rand) *cq.Query {
	var exist []string
	for _, v := range q.Vars() {
		if !q.IsDistinguished(v) {
			exist = append(exist, v)
		}
	}
	v := exist[rng.Intn(len(exist))]
	fresh := func(x string) string {
		if q.IsDistinguished(x) {
			return x
		}
		return "n" + x
	}
	out := q.Clone()
	for _, a := range q.Atoms {
		if a.X == v || (a.IsRole && a.Y == v) {
			b := a
			b.X = fresh(a.X)
			if a.IsRole {
				b.Y = fresh(a.Y)
			}
			out.Atoms = append(out.Atoms, b)
		}
	}
	return out
}

// sparqlText spells q as a SPARQL SELECT over IRIs whose local names are
// q's predicates.
func sparqlText(q *cq.Query) string {
	var b strings.Builder
	b.WriteString("SELECT")
	for _, h := range q.Head {
		b.WriteString(" ?" + h)
	}
	b.WriteString(" WHERE {")
	for _, a := range q.Atoms {
		if a.IsRole {
			fmt.Fprintf(&b, " ?%s <http://e/%s> ?%s .", a.X, a.Pred, a.Y)
		} else {
			fmt.Fprintf(&b, " ?%s a <http://e/%s> .", a.X, a.Pred)
		}
	}
	b.WriteString(" }")
	return b.String()
}

// sweepWorkers is the matcher pool size of TestPaddedQuerySweep's facade
// calls: OGPA_WORKERS when set (CI runs the sweep at 4 under -race), else
// sequential.
func sweepWorkers(t *testing.T) int {
	s := os.Getenv("OGPA_WORKERS")
	if s == "" {
		return 1
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatalf("OGPA_WORKERS=%q: %v", s, err)
	}
	return n
}

// TestPaddedQuerySweep: every query path answers the query's core. Over
// 100 testkb seeds, the seed's query padded with a folding copy of one
// existential branch goes through Answer, PrepareSPARQL, the four
// baselines and a subscription's first delta, and each must answer what
// the same pipeline answers on the raw, unminimised query through its
// internal package: GenOGP's OGP enumerated naively, PerfectRef(+Opt)
// through DAF, the datalog program and the chase.
func TestPaddedQuerySweep(t *testing.T) {
	opt := Options{Workers: sweepWorkers(t)}
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb, abox, q := testkb.RandomKB(rng)
		padded := padQuery(q, rng)
		if padded.Size() == q.Size() {
			t.Fatalf("seed %d: padding added no atom to %s", seed, q)
		}
		onto, data := testkb.Render(tb, abox)
		kb, err := NewKB(strings.NewReader(onto), strings.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		kb = enableLive(t, kb) // for Subscribe
		g := kb.Graph()

		// The raw query through each internal pipeline.
		want := map[string][][]string{}
		res, err := rewrite.Generate(q, tb)
		if err != nil {
			t.Fatalf("seed %d: GenOGP: %v", seed, err)
		}
		want["genogp"] = core.EnumerateNaive(res.Pattern, g).Names2D(g)
		for _, b := range []Baseline{BaselineUCQ, BaselineUCQOpt} {
			rewriteUCQ := perfectref.Rewrite
			if b == BaselineUCQOpt {
				rewriteUCQ = perfectref.RewriteOptimized
			}
			u, err := rewriteUCQ(q, tb, perfectref.Limits{})
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, b, err)
			}
			ans, _, err := daf.EvalUCQ(u.Queries, g, daf.Options{})
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, b, err)
			}
			want[string(b)] = ans.Names2D(g)
		}
		prog, err := datalog.Rewrite(q, tb, perfectref.Limits{})
		if err != nil {
			t.Fatalf("seed %d: datalog: %v", seed, err)
		}
		tuples, err := datalog.Answer(prog, datalog.LoadGraph(g), datalog.Limits{})
		if err != nil {
			t.Fatalf("seed %d: datalog: %v", seed, err)
		}
		want[string(BaselineDatalog)] = tuples
		sat, mg, _, err := saturate.AnswerCQ(tb, dllite.ABoxFromGraph(g), q, saturate.Limits{}, daf.Options{})
		if err != nil {
			t.Fatalf("seed %d: saturate: %v", seed, err)
		}
		want[string(BaselineSaturate)] = sat.Names2D(mg)

		// The padded query through the facade.
		check := func(path, ref string, ans *Answers, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("seed %d: %s on %s: %v", seed, path, padded, err)
			}
			if fmt.Sprint(ans.Vars) != fmt.Sprint(q.Head) || fmt.Sprint(ans.Rows) != fmt.Sprint(want[ref]) {
				t.Fatalf("seed %d: %s on padded %s answers %v %v; %s on raw %s answers %v",
					seed, path, padded, ans.Vars, ans.Rows, ref, q, want[ref])
			}
		}
		text := padded.String()
		ans, err := kb.AnswerWithOptions(text, opt)
		check("Answer", "genogp", ans, err)
		pq, err := kb.PrepareSPARQL(sparqlText(padded))
		if err == nil {
			ans, err = pq.Answer(opt)
		}
		check("PrepareSPARQL", "genogp", ans, err)
		for _, b := range []Baseline{BaselineUCQ, BaselineUCQOpt, BaselineDatalog, BaselineSaturate} {
			ans, err := kb.AnswerBaseline(b, text, opt)
			check("AnswerBaseline "+string(b), string(b), ans, err)
		}
		sub, err := kb.Subscribe(text, SubscribeOptions{})
		if err != nil {
			t.Fatalf("seed %d: Subscribe: %v", seed, err)
		}
		// The first read delivers every answer as Added; with none there
		// is no delta, and the done context ends the read.
		d, err := sub.Next(doneCtx())
		if err == context.Canceled && len(want[string(BaselineDatalog)]) == 0 {
			err = nil
		}
		check("Subscribe", string(BaselineDatalog), &Answers{Vars: sub.Vars(), Rows: d.Added}, err)
		if err := kb.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
