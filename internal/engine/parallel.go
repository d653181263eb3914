package engine

import (
	"context"
	"errors"
	"fmt"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"ogpa/internal/core"
	"ogpa/internal/graph"
)

// errStopped is the internal cancellation sentinel: a worker unwinds with
// it when another worker has already collected MaxResults distinct
// answers. It never escapes Run.
var errStopped = errors.New("engine: stopped")

// errCanceled is the internal sentinel for Limits.Ctx cancellation. It
// never escapes Run either: context cancellation surfaces as a clean
// truncation (partial answers, Stats.Truncated, nil error).
var errCanceled = errors.New("engine: context canceled")

// budget is the enumeration budget shared by every worker of one Run
// call. It is atomics-only so the per-node hot path (tick) takes no locks;
// the context is only polled at the batched flush point.
type budget struct {
	maxSteps  int64
	deadline  time.Time
	ctx       context.Context // nil unless Limits.Ctx was set
	steps     atomic.Int64
	atomEvals atomic.Int64
	stop      atomic.Bool
}

// poll reports whether the run must end for a reason outside the
// search: ErrLimit once the deadline has passed, errCanceled once
// Limits.Ctx is done.
func (b *budget) poll() error {
	if !b.deadline.IsZero() && time.Now().After(b.deadline) {
		return ErrLimit
	}
	if b.ctx != nil && b.ctx.Err() != nil {
		return errCanceled
	}
	return nil
}

// resultGate tracks globally-distinct answers across workers so
// MaxResults-aware early cancellation fires at the right count: per-worker
// answer sets deduplicate only locally, and the same answer can be reached
// by different workers. It sits off the hot path — one lock per *distinct
// local* answer, not per node.
type resultGate struct {
	mu  sync.Mutex
	set *core.AnswerSet
	max int
	bud *budget
}

// record registers one answer; reaching max distinct answers trips the
// shared stop flag.
func (rg *resultGate) record(a core.Answer) {
	rg.mu.Lock()
	if rg.set.Add(a) && rg.set.Len() >= rg.max {
		rg.bud.stop.Store(true)
	}
	rg.mu.Unlock()
}

// protect runs f and turns a panic in it into an error, so that a fault
// in one evaluation (a compiled atom, a disjunct's build) fails the Run
// it belongs to instead of the process. enumerate runs its body under
// it, and fanOut every pool item.
func protect(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: panic during enumeration: %v", r)
		}
	}()
	return f()
}

// enumerate runs body under one budget built from opts.Limits and maps
// the engine's sentinels the same way for every kind of run: st (the
// build-phase statistics) gains the steps, atom evaluations and time of
// the enumeration; a run that stopped early reports Truncated; context
// cancellation and truncation at MaxResults are successful runs; a
// panic in body is the run's error.
func enumerate(opts Options, st Stats, body func(out *core.AnswerSet, bud *budget) error) (*core.AnswerSet, Stats, error) {
	out := core.NewAnswerSet()
	bud := &budget{
		maxSteps: opts.Limits.MaxSteps,
		deadline: opts.Limits.Deadline,
		ctx:      opts.Limits.Ctx,
	}
	if bud.ctx != nil && bud.ctx.Err() != nil {
		// Already canceled before the first tick: clean empty truncation.
		st.Truncated = true
		return out, st, nil
	}
	start := time.Now()
	err := protect(func() error { return body(out, bud) })
	st.EnumNanos = time.Since(start).Nanoseconds()
	st.Steps += bud.steps.Load()
	st.AtomEvals += bud.atomEvals.Load()
	if err != nil || bud.stop.Load() {
		st.Truncated = true
	}
	if errors.Is(err, errCanceled) {
		return out, st, nil // Limits.Ctx fired: clean truncation, answers so far stand
	}
	if limit := opts.Limits.MaxResults; errors.Is(err, ErrLimit) && limit > 0 && out.Len() >= limit {
		return out, st, nil // truncation at MaxResults is a successful run
	}
	return out, st, err
}

// poolSize resolves Options.Workers for a pool of n items: 0 means
// runtime.GOMAXPROCS(0), and no more goroutines than items.
func poolSize(workers, n int) int {
	if workers <= 0 {
		workers = stdruntime.GOMAXPROCS(0)
	}
	return min(workers, n)
}

// backtrack implements OMBacktrack (paper Section V-B): adaptive or static
// ordering over the OMDAG, ⊥ assignments for omittable vertices, and
// condition evaluation through the shared BDD as soon as variables are
// mapped. With Workers > 1 the first decision level is fanned out across
// the worker pool; otherwise the recursion runs inline.
func (m *matcher) backtrack(out *core.AnswerSet, bud *budget) error {
	// The probe runtime decides the first vertex exactly as the sequential
	// recursion would (over the same frozen candidate sets), then doubles
	// as the sequential runtime when the fan-out degenerates.
	rt := m.newRuntime(out, bud, nil)
	var items []graph.VID
	u0 := -1
	if poolSize(m.opts.Workers, 2) > 1 && len(m.p.Vertices) > 0 {
		u0 = rt.pickNext()
		if u0 >= 0 {
			cands := rt.candidates(u0)
			items = make([]graph.VID, 0, len(cands)+1)
			items = append(items, cands...)
			if m.canOmit[u0] {
				items = append(items, core.Omitted) // ⊥ last, as in rec
			}
		}
	}

	// The pool needs at least two items and two workers to be worth a
	// goroutine.
	if workers := poolSize(m.opts.Workers, len(items)); workers > 1 {
		return fanOut(out, len(items), workers, bud, m.opts.Limits.MaxResults, func(w *worker, i int) error {
			if w.rt == nil {
				w.rt = m.newRuntime(w.set, bud, w.gate)
			}
			return w.rt.try(u0, items[i], 0)
		})
	}
	err := rt.rec(0)
	rt.flushSteps()
	return err
}

// runUnion enumerates the union of n disjuncts: pool item i obtains
// disjunct i's plan from part (a prepared one, or one built there and
// then) and runs its recursion inline, so each disjunct's own result —
// Truncated included — does not depend on the worker count. Each item
// polls the deadline and context before it starts, since a disjunct too
// small to reach tick's flush point never polls them itself. The
// statistics sum the plans of the disjuncts that ran.
func runUnion(n int, opts Options, part func(i int) (*Plan, error)) (*core.AnswerSet, Stats, error) {
	built := make([]Stats, n)
	out, st, err := enumerate(opts, Stats{}, func(out *core.AnswerSet, bud *budget) error {
		return fanOut(out, n, poolSize(opts.Workers, n), bud, opts.Limits.MaxResults, func(w *worker, i int) error {
			if err := bud.poll(); err != nil {
				return err
			}
			pl, err := part(i)
			if err != nil {
				return err
			}
			built[i] = pl.stats
			if pl.empty {
				return nil
			}
			mc := *pl.m
			mc.opts = opts
			rt := mc.newRuntime(w.set, bud, w.gate)
			err = rt.rec(0)
			rt.flushSteps()
			return err
		})
	})
	for _, b := range built {
		st.Add(b)
	}
	return out, st, err
}

// worker is one goroutine of the pool: the answer set it emits into, the
// shared MaxResults gate, and the runtime it may reuse across its items.
type worker struct {
	set  *core.AnswerSet
	gate *resultGate
	rt   *runtime
}

// fanOut is the engine's one worker pool. It runs items 0, ..., n-1 with
// run on up to workers goroutines that claim item indexes off one shared
// atomic counter, so a skewed item does not idle the others, and merges
// their answers into out in item order.
//
// Each goroutine emits into one answer set of its own, recording the span
// of answers each item added. An item's span holds only answers new to
// its goroutine: a goroutine claims items in increasing order, so an
// answer it drops already sits in one of its lower items. Budget
// (MaxSteps/deadline/ctx) and, under MaxResults, one gate are shared. A
// goroutine's reused runtime is flushed when it retires. An item that
// panics fails with that panic as its error. It returns the first error
// in item order that is not errStopped.
func fanOut(out *core.AnswerSet, n, workers int, bud *budget, limit int, run func(w *worker, i int) error) error {
	var gate *resultGate
	if limit > 0 {
		gate = &resultGate{set: core.NewAnswerSet(), max: limit, bud: bud}
	}

	// spans[i] holds item i's answers: ws[w].set.At(lo), ..., At(hi-1).
	type span struct{ w, lo, hi int32 }
	ws := make([]worker, workers)
	spans := make([]span, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range ws {
		ws[w] = worker{set: core.NewAnswerSet(), gate: gate}
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := &ws[w]
			for !bud.stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					break
				}
				lo := int32(wk.set.Len())
				errs[i] = protect(func() error { return run(wk, i) })
				spans[i] = span{int32(w), lo, int32(wk.set.Len())}
				if errs[i] != nil {
					// Real limit errors cancel every goroutine; errStopped
					// means another one's gate already did.
					bud.stop.Store(true)
					break
				}
			}
			if wk.rt != nil {
				wk.rt.flushSteps()
			}
		}()
	}
	wg.Wait()

	// Merge in item order with global deduplication: identical to the
	// sequential insertion order whichever goroutine ran an item (spans
	// is indexed by item, not by goroutine). Under MaxResults the merge
	// truncates to exactly the limit (goroutines may have banked a few
	// extra answers between the gate tripping and the unwind).
merge:
	for _, sp := range spans {
		for k := sp.lo; k < sp.hi; k++ {
			if limit > 0 && out.Len() >= limit {
				break merge
			}
			out.Add(ws[sp.w].set.At(int(k)))
		}
	}
	for _, err := range errs {
		if err != nil && !errors.Is(err, errStopped) {
			return err
		}
	}
	return nil
}
