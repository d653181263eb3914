package engine

import (
	"context"
	"errors"
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
	maxSteps int64
	deadline time.Time
	ctx      context.Context // nil unless Limits.Ctx was set
	steps    atomic.Int64
	stop     atomic.Bool
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

// backtrack implements OMBacktrack (paper Section V-B): adaptive or static
// ordering over the OMDAG, ⊥ assignments for omittable vertices, and
// condition evaluation through the shared BDD as soon as variables are
// mapped. With Workers > 1 the first decision level is fanned out
// (fanOut); otherwise the recursion runs inline. Both return through the
// same limit/error mapping, so a run reports Truncated and maps its
// sentinels identically in every mode.
func (m *matcher) backtrack(out *core.AnswerSet) error {
	bud := &budget{
		maxSteps: m.opts.Limits.MaxSteps,
		deadline: m.opts.Limits.Deadline,
		ctx:      m.opts.Limits.Ctx,
	}
	if bud.ctx != nil && bud.ctx.Err() != nil {
		// Already canceled before the first tick: clean empty truncation.
		m.stats.Truncated = true
		return nil
	}
	workers := m.opts.Workers
	if workers <= 0 {
		workers = stdruntime.GOMAXPROCS(0)
	}

	// The probe runtime decides the first vertex exactly as the sequential
	// recursion would (over the same frozen candidate sets), then doubles
	// as the sequential runtime when the fan-out degenerates.
	rt := m.newRuntime(out, bud, nil)
	var items []graph.VID
	u0 := -1
	if workers > 1 && len(m.p.Vertices) > 0 {
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

	// The pool needs at least two items to be worth a goroutine.
	var err error
	if workers > 1 && len(items) >= 2 {
		err = m.fanOut(out, bud, u0, items, workers)
	} else {
		err = rt.rec(0)
		rt.flushSteps()
		m.stats.AtomEvals += rt.atomEvals
	}

	m.stats.Steps = bud.steps.Load()
	if err != nil || bud.stop.Load() {
		m.stats.Truncated = true
	}
	if errors.Is(err, errCanceled) {
		return nil // Limits.Ctx fired: clean truncation, answers so far stand
	}
	if limit := m.opts.Limits.MaxResults; errors.Is(err, ErrLimit) && limit > 0 && out.Len() >= limit {
		return nil // truncation at MaxResults is a successful run
	}
	return err
}

// fanOut explores the first-level items u0 := items[i] concurrently and
// merges their answers into out in item order. The goroutines claim item
// indexes off one shared atomic counter, so a skewed first-level subtree
// does not idle the others.
//
// Each goroutine reuses one runtime (and its BDD evaluation cache) across
// its items — try leaves the mapping empty on exit — and emits into one
// answer set of its own, recording the span of answers each item added.
// An item's span holds only answers new to its goroutine: a goroutine
// claims items in increasing order, so an answer it drops already sits in
// one of its lower items. Budget (MaxSteps/deadline/ctx) and the
// MaxResults gate are shared. It returns the first error in item order
// that is not errStopped.
func (m *matcher) fanOut(out *core.AnswerSet, bud *budget, u0 int, items []graph.VID, workers int) error {
	limit := m.opts.Limits.MaxResults
	var gate *resultGate
	if limit > 0 {
		gate = &resultGate{set: core.NewAnswerSet(), max: limit, bud: bud}
	}
	if workers > len(items) {
		workers = len(items)
	}

	// spans[i] holds item i's answers: sets[w].At(lo), ..., sets[w].At(hi-1).
	type span struct{ w, lo, hi int32 }
	sets := make([]*core.AnswerSet, workers)
	spans := make([]span, len(items))
	errs := make([]error, len(items))
	var next, atomEvals atomic.Int64
	var wg sync.WaitGroup
	for w := range sets {
		sets[w] = core.NewAnswerSet()
		wg.Add(1)
		go func() {
			defer wg.Done()
			set := sets[w]
			wrt := m.newRuntime(set, bud, gate)
			for !bud.stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					break
				}
				lo := int32(set.Len())
				errs[i] = wrt.try(u0, items[i], 0)
				spans[i] = span{int32(w), lo, int32(set.Len())}
				if errs[i] != nil {
					// Real limit errors cancel every goroutine; errStopped
					// means another one's gate already did.
					bud.stop.Store(true)
					break
				}
			}
			wrt.flushSteps()
			atomEvals.Add(wrt.atomEvals)
		}()
	}
	wg.Wait()
	m.stats.AtomEvals += atomEvals.Load()

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
			out.Add(sets[sp.w].At(int(k)))
		}
	}
	for _, err := range errs {
		if err != nil && !errors.Is(err, errStopped) {
			return err
		}
	}
	return nil
}
