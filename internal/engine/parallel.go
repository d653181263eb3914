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
// mapped. With Workers > 1 or a Sharder the first decision level is
// fanned out (fanOut); otherwise the recursion runs inline. Both return
// through the same limit/error mapping, so a run reports Truncated and
// maps its sentinels identically in every mode.
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
	sh := m.opts.Sharder
	if sh != nil && sh.Shards() < 1 {
		sh = nil
	}

	// The probe runtime decides the first vertex exactly as the sequential
	// recursion would (over the same frozen candidate sets), then doubles
	// as the sequential runtime when the fan-out degenerates.
	rt := m.newRuntime(out, bud, nil)
	var items []graph.VID
	u0 := -1
	if (workers > 1 || sh != nil) && len(m.p.Vertices) > 0 {
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

	// A Sharder scatters any non-empty first level (one item, one shard
	// included); the pool needs at least two items to be worth a goroutine.
	var err error
	if (sh != nil && len(items) > 0) || (workers > 1 && len(items) >= 2) {
		err = m.fanOut(out, bud, u0, items, workers, sh)
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
// merges their answers into out in item order. The only thing that varies
// is placement — how a goroutine gets its next item index:
//
//   - pool (sh == nil): workers goroutines claim indexes off one shared
//     atomic counter, so a skewed first-level subtree does not idle the
//     others;
//   - sharded: one goroutine per non-empty shard walks a private cursor
//     over the indexes that shard owns. Every item has a fixed owner — the
//     deterministic placement is what a multi-process tier would ship over
//     the wire — and the ⊥ item (always last, never a data vertex) rides
//     with the last shard. Traversal below the first level reads the whole
//     shared graph, so matches crossing shard boundaries need no handling.
//     Stats gains one ShardRuns row per shard.
//
// Each goroutine reuses one runtime (and its BDD evaluation cache) across
// its items — try leaves the mapping empty on exit — and emits into a
// per-item answer set. Budget (MaxSteps/deadline/ctx) and the MaxResults
// gate are shared. It returns the first error in item order that is not
// errStopped.
func (m *matcher) fanOut(out *core.AnswerSet, bud *budget, u0 int, items []graph.VID, workers int, sh Sharder) error {
	limit := m.opts.Limits.MaxResults
	var gate *resultGate
	if limit > 0 {
		//lint:ignore internsafety keys are canonical Answer.Key() strings (mirrors core.AnswerSet); touched once per distinct answer, not per node
		gate = &resultGate{seen: make(map[string]bool), max: limit, bud: bud}
	}

	var next atomic.Int64 // pool placement: the shared claim counter
	var owned [][]int     // sharded placement: owned[w] = item indexes of shard w, in item order
	var shardRuns []ShardRunStats
	if sh == nil {
		if workers > len(items) {
			workers = len(items)
		}
	} else {
		workers = sh.Shards()
		owned = make([][]int, workers)
		for i, v := range items {
			w := workers - 1
			if v != core.Omitted {
				if w = sh.Owner(v); w < 0 || w >= workers {
					w = workers - 1 // defensive: a misbehaving Sharder must not drop items
				}
			}
			owned[w] = append(owned[w], i)
		}
		shardRuns = make([]ShardRunStats, workers)
	}

	results := make([]*core.AnswerSet, len(items))
	errs := make([]error, len(items))
	var atomEvals atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		if sh != nil {
			shardRuns[w] = ShardRunStats{Shard: w, Items: len(owned[w])}
			if len(owned[w]) == 0 {
				continue // empty shard: nothing to seed, no goroutine
			}
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start := time.Now()
			wrt := m.newRuntime(nil, bud, gate)
			answers := 0
			for k := 0; !bud.stop.Load(); k++ {
				var i int
				if sh == nil {
					if i = int(next.Add(1)) - 1; i >= len(items) {
						break
					}
				} else {
					if k >= len(owned[w]) {
						break
					}
					i = owned[w][k]
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
				answers += sub.Len()
			}
			wrt.flushSteps()
			atomEvals.Add(wrt.atomEvals)
			if sh != nil {
				shardRuns[w].Answers = answers
				shardRuns[w].Steps = wrt.flushed
				shardRuns[w].EnumNanos = time.Since(start).Nanoseconds()
			}
		}(w)
	}
	wg.Wait()
	m.stats.AtomEvals += atomEvals.Load()
	m.stats.ShardRuns = shardRuns

	// Merge in item order with global deduplication: identical to the
	// sequential insertion order whatever the placement was (results is
	// indexed by item, not by goroutine). Under MaxResults the merge
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
