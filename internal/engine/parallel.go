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
// from different first-level candidates. It sits off the hot path — one
// lock per *distinct local* answer, not per node.
type resultGate struct {
	mu sync.Mutex
	//lint:ignore internsafety keys are canonical Answer.Key() strings (mirrors core.AnswerSet); touched once per distinct answer, not per node
	seen map[string]bool
	max  int
	bud  *budget
}

// record registers one answer key; reaching max distinct keys trips the
// shared stop flag.
func (rg *resultGate) record(k string) {
	rg.mu.Lock()
	if !rg.seen[k] {
		rg.seen[k] = true
		if len(rg.seen) >= rg.max {
			rg.bud.stop.Store(true)
		}
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
// its items — try leaves the mapping empty on exit — and emits into a
// per-item answer set. Budget (MaxSteps/deadline/ctx) and the MaxResults
// gate are shared. It returns the first error in item order that is not
// errStopped.
func (m *matcher) fanOut(out *core.AnswerSet, bud *budget, u0 int, items []graph.VID, workers int) error {
	limit := m.opts.Limits.MaxResults
	var gate *resultGate
	if limit > 0 {
		//lint:ignore internsafety keys are canonical Answer.Key() strings (mirrors core.AnswerSet); touched once per distinct answer, not per node
		gate = &resultGate{seen: make(map[string]bool), max: limit, bud: bud}
	}
	if workers > len(items) {
		workers = len(items)
	}

	results := make([]*core.AnswerSet, len(items))
	errs := make([]error, len(items))
	var next, atomEvals atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wrt := m.newRuntime(nil, bud, gate)
			for !bud.stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					break
				}
				sub := core.NewAnswerSet()
				results[i] = sub
				wrt.out = sub
				if errs[i] = wrt.try(u0, items[i], 0); errs[i] != nil {
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
	// sequential insertion order whichever goroutine ran an item (results
	// is indexed by item, not by goroutine). Under MaxResults the merge
	// truncates to exactly the limit (goroutines may have banked a few
	// extra answers between the gate tripping and the unwind).
	for _, sub := range results {
		if sub == nil {
			continue
		}
		for _, a := range sub.Answers() {
			if limit > 0 && out.Len() >= limit {
				break
			}
			out.Add(a)
		}
	}
	for _, err := range errs {
		if err != nil && !errors.Is(err, errStopped) {
			return err
		}
	}
	return nil
}
