// Package ogpa is the public API of this repository: ontology-mediated
// query answering over DL-Lite_R knowledge bases using ontological graph
// patterns (OGPs), as described in "Ontology-Mediated Query Answering Using
// Graph Patterns with Conditions" (ICDE 2024).
//
// The primary pipeline is GenOGP + OMatch: a conjunctive query is rewritten
// into a single polynomial-size OGP equivalent to the query under the
// ontology, and the OGP is matched directly on the data graph. The
// baselines of the paper's evaluation (PerfectRef UCQ rewriting, datalog
// rewriting, saturation) are also exposed for comparison.
//
// Quick start:
//
//	kb, _ := ogpa.NewKB(ontologyReader, dataReader)
//	ans, _ := kb.Answer(`q(x) :- Student(x), takesCourse(x, y)`)
//	for _, row := range ans.Rows { fmt.Println(row) }
package ogpa

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"ogpa/internal/core"
	"ogpa/internal/cq"
	"ogpa/internal/daf"
	"ogpa/internal/datalog"
	"ogpa/internal/delta"
	"ogpa/internal/dllite"
	"ogpa/internal/graph"
	"ogpa/internal/match"
	"ogpa/internal/perfectref"
	"ogpa/internal/rdf"
	"ogpa/internal/rewrite"
	"ogpa/internal/saturate"
	"ogpa/internal/sparql"
)

// Options bound query answering. The zero value means no limits.
type Options struct {
	Timeout    time.Duration // wall-clock budget for matching
	MaxResults int           // cap on returned answers
	// Workers bounds the matcher's worker pool (and, for the UCQ
	// baseline, concurrent disjunct evaluation). 0 uses
	// runtime.GOMAXPROCS(0); 1 forces sequential matching. Answers are
	// identical regardless of the value.
	Workers int
	// Context, when non-nil, cancels enumeration cooperatively: the
	// matcher polls it at its batched step-flush point and, on
	// cancellation, returns the answers found so far with
	// MatchStats.Truncated set and a nil error (clean truncation, not a
	// failure). The server wires each request's context here.
	Context context.Context
}

// KB is a loaded knowledge base: a DL-Lite_R TBox plus a data graph.
// The graph (the type-aware transformation of the ABox) is the KB's one
// copy of its data: the ABox-based baselines and the consistency check
// read an ABox or an EDB rebuilt from the pinned snapshot graph on every
// call.
//
// A KB is read-only until EnableLiveData is called; after that, ABox
// mutations (InsertTriples / DeleteTriples) are accepted and every
// answering method evaluates against an immutable snapshot of the
// current epoch, so a query never observes a half-applied batch.
type KB struct {
	tbox *dllite.TBox
	g    *graph.Graph // load-time graph; the base of store when live

	store *delta.Store // nil while read-only
	inc   subHub       // standing queries on one maintained fixpoint (started by Subscribe)
}

// queryView is the one pinned read view a query runs against: the graph
// snapshot and its epoch, resolved from a single Snapshot call so the two
// can never straddle a concurrent delta commit.
type queryView struct {
	g     *graph.Graph
	epoch uint64
}

// view resolves the KB's current query view (the load-time graph at
// epoch 0 when read-only). Callers capture it once per operation.
func (kb *KB) view() queryView {
	if kb.store == nil {
		return queryView{g: kb.g}
	}
	sn := kb.store.Snapshot()
	return queryView{g: sn.Graph(), epoch: sn.Epoch()}
}

// NewKB builds a KB from an ontology (the SubClassOf/SubPropertyOf text
// format) and data (assertion lines like "PhD(ann)" / "advisorOf(bob, ann)").
func NewKB(ontology, data io.Reader) (*KB, error) {
	t, err := dllite.ParseTBox(ontology)
	if err != nil {
		return nil, err
	}
	a, err := dllite.ParseABox(data)
	if err != nil {
		return nil, err
	}
	return FromParts(t, a), nil
}

// NewKBFromTriples builds a KB from the ontology text format and an
// N-Triples data stream under the type-aware transformation (rdf:type
// triples become labels, literal objects attributes, IRIs are shortened
// to local names).
func NewKBFromTriples(ontology, triples io.Reader) (*KB, error) {
	t, err := dllite.ParseTBox(ontology)
	if err != nil {
		return nil, err
	}
	b := graph.NewBuilder(nil)
	if _, err := rdf.Transform(triples, b, rdf.LocalName); err != nil {
		return nil, err
	}
	return &KB{tbox: t, g: b.Freeze()}, nil
}

// OpenKB loads ontology and data files by path.
func OpenKB(ontologyPath, dataPath string) (*KB, error) {
	of, err := os.Open(ontologyPath)
	if err != nil {
		return nil, err
	}
	defer of.Close()
	df, err := os.Open(dataPath)
	if err != nil {
		return nil, err
	}
	defer df.Close()
	if strings.HasSuffix(dataPath, ".nt") {
		return NewKBFromTriples(of, df)
	}
	return NewKB(of, df)
}

// FromParts builds a KB from an existing TBox and ABox. The KB keeps the
// ABox's graph, not the ABox.
func FromParts(t *dllite.TBox, a *dllite.ABox) *KB {
	return &KB{tbox: t, g: a.Graph(nil)}
}

// TBox exposes the ontology.
func (kb *KB) TBox() *dllite.TBox { return kb.tbox }

// ABox rebuilds the dataset from the current snapshot graph on every
// call: its distinct assertions, with one value per attribute, so a
// read-only and a live KB over the same data return the same ABox.
func (kb *KB) ABox() *dllite.ABox { return dllite.ABoxFromGraph(kb.graphNow()) }

// Graph exposes the data graph (type-aware transformation of the ABox).
// On a live KB it is the current epoch's immutable snapshot.
func (kb *KB) Graph() *graph.Graph { return kb.graphNow() }

// graphNow resolves the graph all answering runs against: the current
// snapshot when live, the load-time graph otherwise. Callers capture it
// once per operation so rewrite, match and render all see one version.
func (kb *KB) graphNow() *graph.Graph {
	if kb.store != nil {
		return kb.store.Snapshot().Graph()
	}
	return kb.g
}

// EnableLiveData switches the KB into mutable-store mode: the load-time
// graph becomes the base of an epoch-versioned delta store
// (internal/delta), and InsertTriples / DeleteTriples start accepting
// ABox mutations. compactThreshold is the overlay op count that triggers
// background compaction (0 uses the store default, negative disables
// it). The TBox stays fixed. Calling it twice is an error.
func (kb *KB) EnableLiveData(compactThreshold int) error {
	if kb.store != nil {
		return fmt.Errorf("ogpa: live data already enabled")
	}
	kb.store = delta.NewStore(kb.g, delta.Config{
		CompactThreshold: compactThreshold,
		Name:             rdf.LocalName,
	})
	return nil
}

// Live reports whether the KB accepts mutations.
func (kb *KB) Live() bool { return kb.store != nil }

// errReadOnly is returned by mutation methods before EnableLiveData.
var errReadOnly = fmt.Errorf("ogpa: KB is read-only (call EnableLiveData first)")

// InsertTriples applies an N-Triples body as insertions, atomically
// under one new epoch. Returns the number of triples applied.
func (kb *KB) InsertTriples(r io.Reader) (int, error) { return kb.mutate(r, false) }

// DeleteTriples applies an N-Triples body as deletions, atomically
// under one new epoch. Deleting an absent triple is a no-op.
func (kb *KB) DeleteTriples(r io.Reader) (int, error) { return kb.mutate(r, true) }

// mutate commits one batch and advances the standing queries past it.
func (kb *KB) mutate(r io.Reader, del bool) (int, error) {
	if kb.store == nil {
		return 0, errReadOnly
	}
	apply := kb.store.InsertTriples
	if del {
		apply = kb.store.DeleteTriples
	}
	n, err := apply(r)
	if err == nil {
		kb.inc.committed()
	}
	return n, err
}

// Epoch reports the store's current version (0 on a read-only KB; a
// live store starts at 1 and increments per applied batch). Cache
// layers key plans by (Fingerprint, Epoch, query) so a mutation
// invalidates every cached plan.
func (kb *KB) Epoch() uint64 {
	if kb.store == nil {
		return 0
	}
	return kb.store.Epoch()
}

// OverlaySize reports how many logged ops the current epoch layers over
// its compacted base (0 on a read-only KB).
func (kb *KB) OverlaySize() int {
	if kb.store == nil {
		return 0
	}
	return kb.store.OverlaySize()
}

// Compactions reports how many overlay compactions have completed.
func (kb *KB) Compactions() uint64 {
	if kb.store == nil {
		return 0
	}
	return kb.store.Compactions()
}

// Compact synchronously folds the live overlay into a fresh canonical
// base (no-op on a read-only KB or an empty overlay).
func (kb *KB) Compact() {
	if kb.store != nil {
		kb.store.Compact()
	}
}

// WaitIdle blocks until any background compaction has finished.
func (kb *KB) WaitIdle() {
	if kb.store != nil {
		kb.store.WaitIdle()
	}
}

// Stats summarizes the KB. |D| counts the graph's assertions (labels,
// edges and attributes: distinct assertions, one value per attribute),
// so it builds nothing. On a live KB everything reported comes from one
// snapshot, so the assertion, graph and epoch figures are mutually
// consistent even while writers commit.
func (kb *KB) Stats() string {
	if kb.store == nil {
		return kb.describe(kb.g)
	}
	sn := kb.store.Snapshot()
	return kb.describe(sn.Graph()) + fmt.Sprintf(", live epoch=%d overlay=%d", sn.Epoch(), sn.OverlayOps())
}

// describe is Stats' summary of one graph.
func (kb *KB) describe(g *graph.Graph) string {
	d := g.NumEdges()
	for v := range g.NumVertices() {
		d += len(g.Labels(graph.VID(v))) + len(g.Attributes(graph.VID(v)))
	}
	return fmt.Sprintf("|D|=%d assertions, |V|=%d, |E|=%d, |O|=%d axioms",
		d, g.NumVertices(), g.NumEdges(), kb.tbox.Size())
}

// Fingerprint returns a stable FNV-1a hash of the ontology's positive
// inclusion axioms — the part of the KB that GenOGP output depends on.
// Cache layers (the server's plan cache) key rewrites by
// (Fingerprint, query text) so plans never outlive the ontology that
// produced them.
func (kb *KB) Fingerprint() string {
	h := fnv.New64a()
	line := func(s string) {
		//lint:ignore droppederr hash.Hash.Write never fails
		_, _ = io.WriteString(h, s)
		//lint:ignore droppederr hash.Hash.Write never fails
		_, _ = h.Write([]byte{'\n'})
	}
	for _, ci := range kb.tbox.CIs {
		line(ci.String())
	}
	for _, ri := range kb.tbox.RIs {
		line(ri.String())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// CacheKey builds the one key shape every cross-request cache uses:
// fingerprint|epoch|kind|key. The fingerprint ties an entry to the TBox
// that produced it and the epoch to the data version, so a delta commit
// invalidates every entry for free; kind ("cq", "sparql", "ucq:…") keeps
// plans of different pipelines apart. Callers pass both scoping values
// explicitly so the epochkey analyzer sees the epoch at every call site.
func CacheKey(fingerprint string, epoch uint64, kind, key string) string {
	return fingerprint + "|" + strconv.FormatUint(epoch, 10) + "|" + kind + "|" + key
}

// Answers is a set of certain-answer tuples.
type Answers struct {
	// Vars names the distinguished variables, in head order.
	Vars []string
	// Rows holds one tuple per answer; "⊥" marks an omitted (optional)
	// distinguished vertex.
	Rows [][]string
}

// Len reports the number of answers.
func (a *Answers) Len() int { return len(a.Rows) }

// Rewriting is the result of GenOGP on one query.
type Rewriting struct {
	Query   *cq.Query
	Pattern *core.Pattern
	result  *rewrite.Result
}

// CondCount reports the paper's #COND size metric.
func (r *Rewriting) CondCount() int { return r.result.CondCount() }

// Explain renders the generated OGP.
func (r *Rewriting) Explain() string { return r.Pattern.String() }

// ExplainProvenance renders, per generated condition, the chain of TBox
// inclusions that derived it.
func (r *Rewriting) ExplainProvenance() string { return r.result.ExplainProvenance() }

// Rewrite runs GenOGP: it compiles the query into a single OGP equivalent
// to the query under the KB's ontology.
func (kb *KB) Rewrite(query string) (*Rewriting, error) {
	return kb.rewriteKind("cq", query)
}

// RewriteSPARQL is Rewrite for a SPARQL SELECT query.
func (kb *KB) RewriteSPARQL(src string) (*Rewriting, error) {
	return kb.rewriteKind("sparql", src)
}

// rewriteKind parses query as kind says ("sparql", else the CQ syntax)
// and runs GenOGP on it: the head of every primary-pipeline request.
func (kb *KB) rewriteKind(kind, query string) (*Rewriting, error) {
	parse := cq.Parse
	if kind == "sparql" {
		parse = sparql.Parse
	}
	q, err := parse(query)
	if err != nil {
		return nil, err
	}
	res, err := rewrite.Generate(q, kb.tbox)
	if err != nil {
		return nil, err
	}
	return &Rewriting{Query: q, Pattern: res.Pattern, result: res}, nil
}

// Answer runs the full GenOGP + OMatch pipeline with no limits.
func (kb *KB) Answer(query string) (*Answers, error) {
	return kb.AnswerWithOptions(query, Options{})
}

// AnswerWithOptions runs GenOGP + OMatch under the given limits.
func (kb *KB) AnswerWithOptions(query string, opt Options) (*Answers, error) {
	ans, _, err := kb.AnswerWithStats(query, opt)
	return ans, err
}

// MatchStats mirrors the matcher's per-query statistics for the public
// API (the matcher itself lives in an internal package).
type MatchStats struct {
	// Build-phase numbers, fixed when the plan is prepared.
	SeedCandidates int   // candidates handed to the local filter, before refinement
	CSCandidates   int   // candidates across pattern vertices after refinement
	AdjPairs       int   // candidate pairs materialized in the CS adjacency
	IndexedEdges   int   // pattern edges enumerated from that adjacency, of PatternEdges
	PatternEdges   int   // edges of the pattern (summed over a UCQ's disjuncts)
	BDDNodes       int   // nodes in the shared condition BDD
	BuildNanos     int64 // wall-clock of GenOGP output compilation + BuildOMCS
	// Enumeration-phase numbers, per Run.
	Steps     int64 // backtracking tree nodes visited
	AtomEvals int64 // atomic condition evaluations
	EnumNanos int64 // wall-clock of OMBacktrack
	Truncated bool  // enumeration stopped at a limit
}

func fromMatchStats(st match.Stats) MatchStats {
	return MatchStats{
		SeedCandidates: st.SeedCandidates,
		CSCandidates:   st.CSCandidates,
		AdjPairs:       st.AdjPairs,
		IndexedEdges:   st.IndexedEdges,
		PatternEdges:   st.PatternEdges,
		BDDNodes:       st.BDDNodes,
		BuildNanos:     st.BuildNanos,
		Steps:          st.Steps,
		AtomEvals:      st.AtomEvals,
		EnumNanos:      st.EnumNanos,
		Truncated:      st.Truncated,
	}
}

// PreparedQuery is a query compiled down to a reusable matching plan.
// For the primary pipeline, GenOGP has run and the OGP's candidate
// space, CS adjacency and condition BDD are built; for the UCQ
// baselines (PrepareBaseline), PerfectRef has run and every disjunct is
// compiled into an engine plan. Either way Answer can be called many
// times — concurrently, with different limits — without repeating that
// work. The server's plan cache stores these across requests.
type PreparedQuery struct {
	kb *KB
	q  *cq.Query
	g  *graph.Graph    // the snapshot the plan was built against
	rw *Rewriting      // nil for baseline plans
	pl *match.Prepared // the OGP's plan, or a UCQ baseline's (a daf.Prepared: the same engine plan type)
}

// Prepare compiles a CQ into a reusable matching plan.
func (kb *KB) Prepare(query string) (*PreparedQuery, error) {
	return kb.prepareKind("cq", query, 0)
}

// PrepareSPARQL compiles a SPARQL SELECT query into a reusable plan.
func (kb *KB) PrepareSPARQL(src string) (*PreparedQuery, error) {
	return kb.prepareKind("sparql", src, 0)
}

// PrepareBaseline compiles a query through one of the UCQ baseline
// pipelines (BaselineUCQ, BaselineUCQOpt) into a reusable plan:
// PerfectRef runs once and every disjunct's candidate space is built,
// so repeated Answer calls — the server's cached-baseline path — only
// enumerate. rewriteTimeout bounds PerfectRef (0 = unbounded); a
// rewriting that completes does not depend on it, so the plan is
// shareable across callers with different timeouts. The datalog and
// saturation baselines have no prepared form and return an error.
func (kb *KB) PrepareBaseline(b Baseline, query string, rewriteTimeout time.Duration) (*PreparedQuery, error) {
	return kb.prepareKind(ucqKindPrefix+string(b), query, rewriteTimeout)
}

// ucqKindPrefix marks the plan kinds of the UCQ baselines:
// "ucq:perfectref+daf", "ucq:perfectrefopt+daf".
const ucqKindPrefix = "ucq:"

// prepareKind is the one Prepare path behind every answering method that
// has a prepared form. kind is the plan kind the serving tier also keys
// its cache and /stats by: "cq" and "sparql" parse accordingly and
// compile GenOGP's output for OMatch; "ucq:<baseline>" runs PerfectRef
// under rewriteTimeout and compiles every disjunct for DAF.
func (kb *KB) prepareKind(kind, query string, rewriteTimeout time.Duration) (*PreparedQuery, error) {
	b, isUCQ := strings.CutPrefix(kind, ucqKindPrefix)
	if !isUCQ {
		rw, err := kb.rewriteKind(kind, query)
		if err != nil {
			return nil, err
		}
		v := kb.view() // pin: the plan answers against this view forever
		pl, err := match.Prepare(rw.Pattern, v.g, match.Options{})
		if err != nil {
			return nil, err
		}
		return &PreparedQuery{kb: kb, q: rw.Query, g: v.g, rw: rw, pl: pl}, nil
	}
	q, err := cq.Parse(query)
	if err != nil {
		return nil, err
	}
	var u *perfectref.UCQ
	lim := perfectref.Limits{Timeout: rewriteTimeout}
	switch Baseline(b) {
	case BaselineUCQ:
		u, err = perfectref.Rewrite(q, kb.tbox, lim)
	case BaselineUCQOpt:
		u, err = perfectref.RewriteOptimized(q, kb.tbox, lim)
	default:
		return nil, fmt.Errorf("ogpa: baseline %q has no prepared form", b)
	}
	if err != nil {
		return nil, err
	}
	v := kb.view() // pin: the plan answers against this view forever
	pl, err := daf.PrepareUCQ(u.Queries, v.g)
	if err != nil {
		return nil, err
	}
	return &PreparedQuery{kb: kb, q: q, g: v.g, pl: pl}, nil
}

// Rewriting exposes the generated OGP behind the plan (nil for baseline
// plans, which carry a UCQ instead of an OGP).
func (pq *PreparedQuery) Rewriting() *Rewriting { return pq.rw }

// Stats reports the build-phase statistics of the plan (the
// enumeration-phase fields are zero; AnswerWithStats fills them per run).
func (pq *PreparedQuery) Stats() MatchStats {
	return fromMatchStats(pq.pl.Stats())
}

// Answer enumerates the query's certain answers under opt.
func (pq *PreparedQuery) Answer(opt Options) (*Answers, error) {
	ans, _, err := pq.AnswerWithStats(opt)
	return ans, err
}

// AnswerWithStats is Answer plus the matcher's work counters.
func (pq *PreparedQuery) AnswerWithStats(opt Options) (*Answers, MatchStats, error) {
	res, st, err := pq.pl.Run(matchOptions(opt))
	if err != nil {
		return nil, MatchStats{}, err
	}
	// Rows resolve VIDs against the snapshot the answers were computed
	// on: on a live KB a fresher epoch could name different vertices.
	return &Answers{Vars: pq.Vars(), Rows: res.Names2D(pq.g)}, fromMatchStats(st), nil
}

// Vars names the plan's distinguished variables, in head order: the
// Vars of every Answers it returns.
func (pq *PreparedQuery) Vars() []string { return append([]string(nil), pq.q.Head...) }

// AppendRows enumerates the query's certain answers under opt like
// AnswerWithStats, but hands each row to appendRow, which appends it to
// dst, instead of building Answers.Rows: the rows come in the order of
// Answers.Rows, resolved straight from the packed answer tuples, and a
// row slice is valid only during its call. It returns the extended dst and the number of rows.
// The server renders /query bodies through it.
func (pq *PreparedQuery) AppendRows(dst []byte, opt Options, appendRow func(dst []byte, row []string) []byte) ([]byte, int, MatchStats, error) {
	res, st, err := pq.pl.Run(matchOptions(opt))
	if err != nil {
		return dst, 0, MatchStats{}, err
	}
	for row := range res.Rows(pq.g) {
		dst = appendRow(dst, row)
	}
	return dst, res.Len(), fromMatchStats(st), nil
}

// AnswerWithStats runs GenOGP + OMatch under the given limits and also
// returns the matcher's work counters (what `ogpa -match-stats` prints).
func (kb *KB) AnswerWithStats(query string, opt Options) (*Answers, MatchStats, error) {
	pq, err := kb.Prepare(query)
	if err != nil {
		return nil, MatchStats{}, err
	}
	return pq.AnswerWithStats(opt)
}

// MatchOGP matches a hand-written OGP (built with the Pattern helpers) and
// returns its answer tuples.
func (kb *KB) MatchOGP(p *core.Pattern, opt Options) (*Answers, error) {
	v := kb.view()
	res, _, err := match.Match(p, v.g, matchOptions(opt))
	if err != nil {
		return nil, err
	}
	var vars []string
	for _, i := range p.Distinguished() {
		vars = append(vars, p.Vertices[i].Name)
	}
	return &Answers{Vars: vars, Rows: res.Names2D(v.g)}, nil
}

// Baseline identifies one comparison pipeline from the paper's evaluation.
type Baseline string

// Baselines.
const (
	BaselineUCQ      Baseline = "perfectref+daf" // PerfectRef UCQ rewriting + DAF
	BaselineUCQOpt   Baseline = "perfectrefopt+daf"
	BaselineDatalog  Baseline = "datalog"
	BaselineSaturate Baseline = "saturate"
)

// AnswerBaseline answers the query with one of the baseline pipelines.
func (kb *KB) AnswerBaseline(b Baseline, query string, opt Options) (*Answers, error) {
	if b == BaselineUCQ || b == BaselineUCQOpt {
		pq, err := kb.PrepareBaseline(b, query, opt.Timeout)
		if err != nil {
			return nil, err
		}
		return pq.Answer(opt)
	}
	q, err := cq.Parse(query)
	if err != nil {
		return nil, err
	}
	g := kb.graphNow() // pin: the baseline's input is this snapshot's graph
	switch b {
	case BaselineDatalog:
		prog, err := datalog.Rewrite(q, kb.tbox, perfectref.Limits{Timeout: opt.Timeout})
		if err != nil {
			return nil, err
		}
		var dlim datalog.Limits
		if opt.Timeout > 0 {
			dlim.Deadline = time.Now().Add(opt.Timeout)
		}
		tuples, err := datalog.Answer(prog, datalog.LoadGraph(g), dlim)
		if err != nil {
			return nil, err
		}
		rows := datalogRows(tuples)
		if opt.MaxResults > 0 && len(rows) > opt.MaxResults {
			rows = rows[:opt.MaxResults]
		}
		return &Answers{Vars: append([]string(nil), q.Head...), Rows: rows}, nil
	case BaselineSaturate:
		var slim saturate.Limits
		if opt.Timeout > 0 {
			slim.Deadline = time.Now().Add(opt.Timeout)
		}
		rows, err := kb.saturateRows(dllite.ABoxFromGraph(g), q, slim, matchOptions(opt))
		if err != nil {
			return nil, err
		}
		return &Answers{Vars: append([]string(nil), q.Head...), Rows: rows}, nil
	default:
		return nil, fmt.Errorf("ogpa: unknown baseline %q", b)
	}
}

// AnswerSPARQL parses a SPARQL SELECT query over a basic graph pattern
// (the CQ fragment used by the paper's real-life workloads) and answers it
// through GenOGP + OMatch.
func (kb *KB) AnswerSPARQL(src string, opt Options) (*Answers, error) {
	pq, err := kb.PrepareSPARQL(src)
	if err != nil {
		return nil, err
	}
	return pq.Answer(opt)
}

// CheckConsistency verifies the KB against the ontology's negative
// inclusions (DisjointWith / DisjointPropertyWith statements). It returns
// human-readable violations; an empty slice means consistent. It runs
// cold over an ABox rebuilt from the current snapshot graph on every call.
func (kb *KB) CheckConsistency() ([]string, error) {
	if len(kb.tbox.NegCIs) == 0 && len(kb.tbox.NegRIs) == 0 {
		return []string{}, nil // nothing to violate, so no ABox to build
	}
	vs, err := saturate.CheckConsistency(kb.tbox, kb.ABox(), saturate.Limits{})
	if err != nil {
		return nil, err
	}
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out, nil
}

// MinimizeQuery returns the core of a conjunctive query (smallest
// equivalent subquery); minimizing before Rewrite yields smaller OGPs.
func MinimizeQuery(query string) (string, error) {
	q, err := cq.Parse(query)
	if err != nil {
		return "", err
	}
	return q.Minimize().String(), nil
}

// datalogRows takes a datalog answer, whose tuples are fresh and come
// sorted in core.SortRows order, as rows (empty, never nil, like every
// pipeline's).
func datalogRows(tuples []datalog.Tuple) [][]string {
	if tuples == nil {
		return [][]string{}
	}
	return tuples
}

// saturateRows answers q by chasing abox (the saturation baseline) and
// resolves the certain answers to sorted rows over the materialization.
func (kb *KB) saturateRows(abox *dllite.ABox, q *cq.Query, lim saturate.Limits, evalOpts daf.Options) ([][]string, error) {
	res, mg, _, err := saturate.AnswerCQ(kb.tbox, abox, q, lim, evalOpts)
	if err != nil {
		return nil, err
	}
	rows := make([][]string, 0, res.Len())
	for _, row := range res.Answers() {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = mg.Name(v)
		}
		rows = append(rows, cells)
	}
	core.SortRows(rows)
	return rows, nil
}

func matchOptions(opt Options) match.Options {
	lim := match.Limits{MaxResults: opt.MaxResults, Ctx: opt.Context}
	if opt.Timeout > 0 {
		lim.Deadline = time.Now().Add(opt.Timeout)
	}
	return match.Options{Limits: lim, Workers: opt.Workers}
}
