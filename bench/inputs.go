package main

// Everything a run derives from -seed and -scale: the knowledge base the
// server loads, the query sets with their expected answers, and the
// mutation batches. The server only ever sees the rendered files and the
// requests; the in-process KB built here is the oracle and the subject of
// the per-layer replay.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"ogpa"
	"ogpa/internal/cq"
	"ogpa/internal/dllite"
	"ogpa/internal/gen"
	"ogpa/internal/graph"
	"ogpa/internal/match"
	"ogpa/internal/qgen"
	"ogpa/internal/rdf"
	"ogpa/internal/rewrite"
	"ogpa/internal/server"
	"ogpa/internal/testkb"
)

const (
	hotWalkQueries = 10 // random-walk CQs in the hot set, beside the 14 LUBM queries
	// uncachedQueries is twice the server's 128-entry plan cache. Each client
	// cycles its own half, so a plan is evicted long before its query comes
	// round again; a larger set would only lengthen set-up (each member
	// costs a full-scale Prepare, a run and an oracle evaluation).
	uncachedQueries = 256

	// Selection bounds, all on deterministic counters of a sequential
	// OMatch run at set-up (never on wall-clock). A query whose run
	// evaluates more than atomsPerStep condition atoms per search step is
	// in the engine's quadratic regime: it takes seconds where its
	// neighbours take a millisecond, and one of them in a set would turn
	// the workload into a measurement of that single query.
	maxSteps     = 20000
	atomsPerStep = 16
	maxRows      = 4000
	// tinyScale is the LUBM size of the pre-filter KB: candidates are
	// first run there, where even a quadratic query costs milliseconds.
	tinyScale    = 3
	tinyMaxSteps = 1000

	// assertionsPerUniversity is the generator's mean ABox size per
	// university. The KB of a run is the LUBM instance, within an eighth of
	// -scale universities, whose size is nearest scale times this: a seed
	// then changes what the data is but hardly how much there is, and
	// timings of different seeds are comparable.
	assertionsPerUniversity = 580

	batchStudents = 16 // x4 triples = 64-triple mutation batches
	probeStudents = 2  // 8-triple batches of the durability check
	nsPrefix      = "http://ogpa.bench/"
)

// expected is what a correct /query response must contain.
type expected struct {
	rows int
	// size and hash describe the response bytes before ,"tookMs": when the
	// rows come back in the server's canonical order; a response that
	// matches them needs no decoding.
	size int
	hash uint64
	// setHash is order-independent, for the decoded fallback.
	setHash uint64
}

type query struct {
	text string
	exp  expected
	// light says the query is within the selection bounds below. The
	// generated queries all are; of the LUBM queries, the ones in the
	// engine's quadratic regime (Q5, Q8, Q13 and the like) are not.
	light bool
}

type droppedQuery struct {
	Query  string `json:"query"`
	Reason string `json:"reason"`
}

type inputs struct {
	seed         int64
	scale        int
	ontologyPath string
	dataPath     string
	dataBytes    int
	ontology     string
	data         string
	kb           *ogpa.KB
	loadMs       float64 // ogpa.NewKB on the rendered files
	dropped      []droppedQuery

	// Individuals the mutation batches attach new students to.
	depts, courses, faculty []string
}

// sizedLUBM generates the run's dataset (see assertionsPerUniversity).
func sizedLUBM(seed int64, scale int) *gen.Dataset {
	var best *gen.Dataset
	off := func(d *gen.Dataset) int {
		if d := d.ABox.Size() - scale*assertionsPerUniversity; d >= 0 {
			return d
		} else {
			return -d
		}
	}
	for n := max(scale-scale/8, 1); n <= scale+scale/8; n++ {
		if d := gen.LUBM(gen.LUBMConfig{Universities: n, Seed: seed}); best == nil || off(d) < off(best) {
			best = d
		}
	}
	return best
}

func buildInputs(seed int64, scale int, dir string) (*inputs, error) {
	d := sizedLUBM(seed, scale)
	in := &inputs{seed: seed, scale: scale}
	in.ontology, in.data = testkb.Render(d.TBox, d.ABox)
	in.dataBytes = len(in.data)
	in.ontologyPath = filepath.Join(dir, "lubm.tbox")
	in.dataPath = filepath.Join(dir, "lubm.abox")
	if err := os.WriteFile(in.ontologyPath, []byte(in.ontology), 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(in.dataPath, []byte(in.data), 0o644); err != nil {
		return nil, err
	}
	start := time.Now()
	kb, err := in.newKB()
	if err != nil {
		return nil, err
	}
	in.loadMs = msSince(start)
	in.kb = kb
	for _, ca := range d.ABox.Concepts {
		switch ca.Concept {
		case "Department":
			in.depts = append(in.depts, ca.Ind)
		case "Course", "GraduateCourse":
			in.courses = append(in.courses, ca.Ind)
		case "FullProfessor", "AssociateProfessor", "AssistantProfessor":
			in.faculty = append(in.faculty, ca.Ind)
		}
	}
	if len(in.depts) == 0 || len(in.courses) == 0 || len(in.faculty) == 0 {
		return nil, fmt.Errorf("generated KB has no departments, courses or professors")
	}
	return in, nil
}

// newKB parses the rendered files into a fresh KB; the replays that mutate
// their KB each take their own.
func (in *inputs) newKB() (*ogpa.KB, error) {
	return ogpa.NewKB(strings.NewReader(in.ontology), strings.NewReader(in.data))
}

// batch renders mutation batch k of one client as N-Triples: n new
// graduate students, each with a type, a department, a course and an
// advisor drawn from the generated KB. The same (client, k, n) always
// renders the same bytes, so a batch can be deleted by sending it again.
func (in *inputs) batch(client, k, n int) []byte {
	rng := rand.New(rand.NewSource(in.seed*1_000_003 + int64(client)*7919 + int64(k)))
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		s := fmt.Sprintf("%sbench.c%d.b%d.s%d", nsPrefix, client, k, i)
		iri := func(name string) string { return nsPrefix + name }
		for _, t := range []rdf.Triple{
			{Subject: s, Predicate: rdf.TypePredicate, Object: iri("GraduateStudent")},
			{Subject: s, Predicate: iri("memberOf"), Object: iri(in.depts[rng.Intn(len(in.depts))])},
			{Subject: s, Predicate: iri("takesCourse"), Object: iri(in.courses[rng.Intn(len(in.courses))])},
			{Subject: s, Predicate: iri("advisor"), Object: iri(in.faculty[rng.Intn(len(in.faculty))])},
		} {
			// Writes to a bytes.Buffer cannot fail.
			fmt.Fprintf(&b, "<%s> <%s> <%s> .\n", t.Subject, t.Predicate, t.Object)
		}
	}
	return b.Bytes()
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	//lint:ignore droppederr hash.Hash.Write never fails
	_, _ = h.Write(b)
	return h.Sum64()
}

// rowSetHash is independent of row order: the wrapping sum of each row's
// hash.
func rowSetHash(rows [][]string) uint64 {
	var sum uint64
	for _, r := range rows {
		sum += fnv64([]byte(strings.Join(r, "\x00")))
	}
	return sum
}

var tookKey = []byte(`,"tookMs":`)

// expect derives the response check from an oracle's answer by encoding it
// the way the server would.
func expect(vars []string, rows [][]string) (expected, error) {
	body, err := json.Marshal(server.QueryResponse{Vars: vars, Rows: rows, Count: len(rows)})
	if err != nil {
		return expected{}, err
	}
	i := bytes.LastIndex(body, tookKey)
	if i < 0 {
		return expected{}, fmt.Errorf("server.QueryResponse no longer encodes tookMs after count")
	}
	return expected{rows: len(rows), size: i, hash: fnv64(body[:i]), setHash: rowSetHash(rows)}, nil
}

// candidate is one generated CQ moving through the selection stages.
type candidate struct {
	query
	state candState
	note  string
}

type candState uint8

const (
	candRejected candState = iota // over a cost bound
	candAccepted
	candDisagrees // pipelines disagree in-process: the known GenOGP residue
)

// parallelDo runs f(i) for i in [0,n) on every core.
func parallelDo(n int, f func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// walkCandidates draws distinct random-walk CQs of the given sizes from g,
// in a fixed order, keeping those that stay out of the quadratic regime on
// the small pre-filter graph.
func walkCandidates(g, tiny *graph.Graph, t *dllite.TBox, walkSeed int64, sizes []int, perSize int) ([]string, error) {
	var texts []string
	seen := map[string]bool{}
	for _, size := range sizes {
		cfg := qgen.DefaultConfig(size, walkSeed*131+int64(size))
		cfg.Count = perSize
		for _, q := range qgen.RandomWalk(g, t, cfg) {
			if text := q.String(); !seen[text] {
				seen[text] = true
				texts = append(texts, text)
			}
		}
	}
	// Interleave the sizes so that any prefix of the list mixes them.
	rand.New(rand.NewSource(walkSeed)).Shuffle(len(texts), func(i, j int) {
		texts[i], texts[j] = texts[j], texts[i]
	})
	keep := make([]bool, len(texts))
	errs := make([]error, len(texts))
	parallelDo(len(texts), func(i int) {
		q, err := cq.Parse(texts[i])
		if err != nil {
			errs[i] = err
			return
		}
		res, err := rewrite.Generate(q, t)
		if err != nil {
			errs[i] = err
			return
		}
		pr, err := match.Prepare(res.Pattern, tiny, match.Options{})
		if err != nil {
			errs[i] = err
			return
		}
		_, st, err := pr.Run(match.Options{Workers: 1, Limits: match.Limits{MaxSteps: tinyMaxSteps}})
		keep[i] = err == nil && st.AtomEvals <= atomsPerStep*st.Steps+256
	})
	var out []string
	for i, text := range texts {
		if errs[i] != nil {
			return nil, fmt.Errorf("candidate %q: %w", text, errs[i])
		}
		if keep[i] {
			out = append(out, text)
		}
	}
	return out, nil
}

// measure runs one candidate through GenOGP+OMatch on the full KB and, if
// it is within the cost bounds, through the oracle pipeline.
func (in *inputs) measure(text string, oracle ogpa.Baseline, bounded bool) (candidate, error) {
	c := candidate{query: query{text: text}}
	pq, err := in.kb.Prepare(text)
	if err != nil {
		return c, err
	}
	ans, st, err := pq.AnswerWithStats(ogpa.Options{Workers: 1})
	if err != nil {
		return c, err
	}
	c.light = st.Steps <= maxSteps && st.AtomEvals <= atomsPerStep*st.Steps+256 && ans.Len() > 0 && ans.Len() <= maxRows
	if bounded && !c.light {
		return c, nil
	}
	want, err := in.kb.AnswerBaseline(oracle, text, ogpa.Options{})
	if err != nil {
		return c, err
	}
	if want.Len() != ans.Len() || rowSetHash(want.Rows) != rowSetHash(ans.Rows) {
		c.state = candDisagrees
		c.note = fmt.Sprintf("genogp+omatch returns %d rows, %s returns %d", ans.Len(), oracle, want.Len())
		return c, nil
	}
	if c.exp, err = expect(want.Vars, want.Rows); err != nil {
		return c, err
	}
	c.state = candAccepted
	return c, nil
}

// selectQueries measures the candidates in order, on every core, as many
// at a time as are still needed, and returns the first `need` accepted ones. A candidate on
// which the two pipelines disagree is passed over and listed in the report,
// so the set keeps its size.
func (in *inputs) selectQueries(texts []string, need int, oracle ogpa.Baseline, bounded bool) ([]query, error) {
	var out []query
	for lo, hi := 0, 0; lo < len(texts) && len(out) < need; lo = hi {
		hi = min(lo+max(need-len(out), 4*runtime.NumCPU()), len(texts))
		cands := make([]candidate, hi-lo)
		errs := make([]error, hi-lo)
		parallelDo(hi-lo, func(i int) { cands[i], errs[i] = in.measure(texts[lo+i], oracle, bounded) })
		for i, c := range cands {
			if errs[i] != nil {
				return nil, fmt.Errorf("query %q: %w", c.text, errs[i])
			}
			switch c.state {
			case candAccepted:
				if len(out) < need {
					out = append(out, c.query)
				}
			case candDisagrees:
				in.dropped = append(in.dropped, droppedQuery{Query: c.text, Reason: c.note})
			case candRejected:
			}
		}
	}
	if len(out) < need {
		return nil, fmt.Errorf("only %d of %d queries passed selection (%d candidates)", len(out), need, len(texts))
	}
	return out, nil
}

// referenceWalks draws random-walk CQs from a small reference instance
// with a constant seed. Like the LUBM queries they are fixed texts: -seed
// changes the data the queries run on, not the queries, so that a latency
// quantile of a mix means the same thing on every seed.
func (in *inputs) referenceWalks(walkSeed int64, sizes []int, perSize int) ([]string, error) {
	ref := gen.LUBM(gen.LUBMConfig{Universities: tinyScale}).Graph()
	return walkCandidates(ref, ref, in.kb.TBox(), walkSeed, sizes, perSize)
}

// hotSet is the 24-query working set of read_hot and write_mix (and the
// final check of standing): the 14 LUBM queries plus 10 random-walk CQs of
// 4-8 atoms. The oracle is the datalog pipeline, which shares no code with
// the engine under test.
func (in *inputs) hotSet() ([]query, error) {
	var lubm []string
	for _, q := range qgen.LUBMQueries() {
		lubm = append(lubm, q.String())
	}
	set, err := in.selectQueries(lubm, len(lubm), ogpa.BaselineDatalog, false)
	if err != nil {
		return nil, err
	}
	texts, err := in.referenceWalks(1, []int{4, 5, 6, 7, 8}, 16)
	if err != nil {
		return nil, err
	}
	walks, err := in.selectQueries(texts, hotWalkQueries, ogpa.BaselineDatalog, true)
	if err != nil {
		return nil, err
	}
	return append(set, walks...), nil
}

// uncachedSet is read_uncached's working set: distinct random-walk CQs of
// 3-8 atoms, twice the plan cache. The oracle is PerfectRef+DAF; datalog
// takes three times as long on a set this size.
func (in *inputs) uncachedSet() ([]query, error) {
	texts, err := in.referenceWalks(2, []int{3, 4, 5, 6, 7, 8}, 280)
	if err != nil {
		return nil, err
	}
	return in.selectQueries(texts, uncachedQueries, ogpa.BaselineUCQOpt, true)
}
