// Package harness drives the paper's experimental study (Section VI): it
// runs every method (GenOGP+OMatch, the OMatch_BFS ablation, and the
// baselines PerfectRef/PerfectRefOpt+DAF, datalog rewriting, saturation)
// over generated datasets and query workloads, with the paper's time-limit
// and "unsolved query" accounting, and renders each table and figure of the
// evaluation as text tables.
package harness

import (
	"fmt"
	"time"

	"ogpa/internal/cq"
	"ogpa/internal/daf"
	"ogpa/internal/datalog"
	"ogpa/internal/gen"
	"ogpa/internal/graph"
	"ogpa/internal/match"
	"ogpa/internal/perfectref"
	"ogpa/internal/rewrite"
	"ogpa/internal/saturate"
)

// Method identifies one query-answering pipeline.
type Method string

// The evaluated methods. The baselines stand in for the paper's systems:
// PerfectRef for Iqaros/Graal, PerfectRefOpt for Rapid, Datalog for
// CLIPPER/Ontop/Drewer, Saturate for PAGOdA/Stardog (see DESIGN.md).
const (
	MethodOMatch        Method = "GenOGP+OMatch"
	MethodOMatchBFS     Method = "OMatch_BFS"
	MethodPerfectRef    Method = "PerfectRef+DAF"
	MethodPerfectRefOpt Method = "PerfectRefOpt+DAF"
	MethodDatalog       Method = "Datalog"
	MethodSaturate      Method = "Saturate"
)

// AllMethods lists every method in display order.
var AllMethods = []Method{
	MethodOMatch, MethodOMatchBFS,
	MethodPerfectRef, MethodPerfectRefOpt,
	MethodDatalog, MethodSaturate,
}

// RewriteMethods lists the methods with a distinct rewriting stage.
var RewriteMethods = []Method{
	MethodOMatch, MethodPerfectRef, MethodPerfectRefOpt, MethodDatalog,
}

// Result is the outcome of answering one query with one method.
type Result struct {
	Method      Method
	RewriteTime time.Duration
	EvalTime    time.Duration
	RewriteSize int // atoms/conditions in the rewriting
	Answers     int
	Unsolved    bool // hit a limit: charged the time limit, as in the paper
}

// Runner executes methods with the paper's limits.
type Runner struct {
	RewriteTimeout time.Duration // paper: 10 min; scaled default 2 s
	EvalTimeout    time.Duration // paper: 30 min; scaled default 5 s
	MaxResults     int           // answer cap shared by all methods
	MaxUCQ         int           // disjunct cap for UCQ rewritings

	// satCache holds one materialization per dataset: pay-as-you-go
	// systems materialize once and reuse it across queries.
	satCache map[string]*satEntry
}

type satEntry struct {
	g   *graph.Graph
	dur time.Duration
	err error
}

// NewRunner returns a Runner with the scaled default limits.
func NewRunner() *Runner {
	return &Runner{
		RewriteTimeout: 2 * time.Second,
		EvalTimeout:    5 * time.Second,
		MaxResults:     100_000,
		MaxUCQ:         20_000,
		satCache:       map[string]*satEntry{},
	}
}

// satDepth bounds the chase for the saturation baseline; it covers every
// workload in the harness (|Q| ≤ 16).
const satDepth = 17

// evaluator answers a method's rewriting over g within deadline and
// returns the number of answers.
type evaluator func(g *graph.Graph, deadline time.Time) (int, error)

// rewriting runs m's rewriting stage on q once. It returns the Result
// with the rewriting's time and size, Unsolved when the rewriting failed,
// and otherwise the evaluator of that rewriting.
func (r *Runner) rewriting(m Method, q *cq.Query, d *gen.Dataset) (Result, evaluator) {
	res := Result{Method: m}
	evalOpts := func(deadline time.Time) daf.Options {
		return daf.Options{Limits: daf.Limits{MaxResults: r.MaxResults, Deadline: deadline}}
	}
	if m == MethodSaturate {
		// No rewriting stage (like PAGOdA in the paper).
		return res, func(_ *graph.Graph, deadline time.Time) (int, error) {
			e := r.materialize(d)
			if e.err != nil {
				return 0, e.err
			}
			ans, _, err := daf.EvalCQ(q, e.g, evalOpts(deadline))
			if err != nil {
				return 0, err
			}
			return saturate.FilterNulls(ans, e.g).Len(), nil
		}
	}
	lim := perfectref.Limits{MaxQueries: r.MaxUCQ, Timeout: r.RewriteTimeout}
	var (
		size func() int
		eval evaluator
		err  error
	)
	start := time.Now()
	switch m {
	case MethodOMatch, MethodOMatchBFS:
		var out *rewrite.Result
		out, err = rewrite.Generate(q, d.TBox)
		if err == nil {
			order := match.OrderAdaptive
			if m == MethodOMatchBFS {
				order = match.OrderStaticBFS
			}
			size = out.CondCount
			eval = func(g *graph.Graph, deadline time.Time) (int, error) {
				ans, _, err := match.Match(out.Pattern, g, match.Options{
					Order:  order,
					Limits: match.Limits{MaxResults: r.MaxResults, Deadline: deadline},
				})
				if err != nil {
					return 0, err
				}
				return ans.Len(), nil
			}
		}
	case MethodPerfectRef, MethodPerfectRefOpt:
		rw := perfectref.Rewrite
		if m == MethodPerfectRefOpt {
			rw = perfectref.RewriteOptimized
		}
		var u *perfectref.UCQ
		u, err = rw(q, d.TBox, lim)
		if err == nil {
			size = u.Size
			eval = func(g *graph.Graph, deadline time.Time) (int, error) {
				ans, _, err := daf.EvalUCQ(u.Queries, g, evalOpts(deadline))
				if err != nil {
					return 0, err
				}
				return ans.Len(), nil
			}
		}
	case MethodDatalog:
		var prog *datalog.Program
		prog, err = datalog.Rewrite(q, d.TBox, lim)
		if err == nil {
			size = prog.Size
			eval = func(_ *graph.Graph, deadline time.Time) (int, error) {
				// Rewriting systems materialize their IDB per query run.
				ans, err := datalog.Answer(prog, datalog.LoadABox(d.ABox), datalog.Limits{Deadline: deadline})
				return len(ans), err
			}
		}
	default:
		panic(fmt.Sprintf("harness: unknown method %q", m))
	}
	res.RewriteTime = time.Since(start)
	if err != nil {
		res.Unsolved = true
		if m != MethodOMatch && m != MethodOMatchBFS {
			res.RewriteTime = r.RewriteTimeout
		}
		return res, nil
	}
	res.RewriteSize = size()
	return res, eval
}

// RewriteOnly measures just the rewriting stage of a method.
func (r *Runner) RewriteOnly(m Method, q *cq.Query, d *gen.Dataset) Result {
	res, _ := r.rewriting(m, q, d)
	return res
}

// materialize returns the cached saturation of a dataset.
func (r *Runner) materialize(d *gen.Dataset) *satEntry {
	if e, ok := r.satCache[d.Name]; ok {
		return e
	}
	start := time.Now()
	g, _, err := saturate.Materialize(d.TBox, d.ABox, satDepth, saturate.Limits{
		Deadline: start.Add(10 * r.EvalTimeout),
	})
	e := &satEntry{g: g, dur: time.Since(start), err: err}
	r.satCache[d.Name] = e
	return e
}

// Answer runs the full pipeline of a method on one query: the rewriting
// once, then its evaluation.
func (r *Runner) Answer(m Method, q *cq.Query, d *gen.Dataset) Result {
	res, eval := r.rewriting(m, q, d)
	if res.Unsolved {
		res.EvalTime = r.EvalTimeout
		return res
	}
	g := d.Graph()
	start := time.Now()
	n, err := eval(g, start.Add(r.EvalTimeout))
	res.EvalTime = time.Since(start)
	if err != nil {
		res.Unsolved = true
		res.EvalTime = r.EvalTimeout
	} else {
		res.Answers = n
	}
	return res
}

// PreprocessTime measures loading/indexing: graph construction for the
// matching-based methods, EDB loading for datalog, materialization for
// saturation.
func (r *Runner) PreprocessTime(m Method, d *gen.Dataset) time.Duration {
	switch m {
	case MethodDatalog:
		start := time.Now()
		_ = datalog.LoadABox(d.ABox)
		return time.Since(start)
	case MethodSaturate:
		return r.materialize(d).dur
	default:
		start := time.Now()
		_ = d.ABox.Graph(nil)
		return time.Since(start)
	}
}
