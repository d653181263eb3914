package server

import (
	"context"
	"sync"
	"time"

	"ogpa"
)

// batcher is the admission layer for the primary CQ pipeline: in-flight
// /query requests against the same KB are gathered for a short window
// (or until the batch is full) and answered together through
// ogpa.AnswerBatchCached, which pins one snapshot per batch, shares one
// engine run per query shape and memoizes answers per epoch. Requests of
// other kinds (SPARQL, baselines, datalog/saturate) keep the sequential
// path — they have no merged form.
//
// Lifecycle: one gather goroutine owns the in channel; every fired batch
// executes on its own goroutine so gathering never stalls behind
// evaluation. close() stops admission (do falls back to the caller's
// sequential path), closes the channel and waits for the gather loop to
// drain, so no request is ever dropped.
type batcher struct {
	kb     *ogpa.KB
	cfg    Config
	window time.Duration
	max    int
	cache  *batchCache

	in   chan *batchRequest
	done chan struct{} // closed when the gather loop has drained

	gate    admissionGate // serializes admission sends against close
	metrics batchMetrics  // /stats counters
}

// admissionGate serializes admission against shutdown: do holds the read
// side across its channel send, so close (write side) cannot close the
// channel while a send is in flight. Its own struct so locksafety can
// verify closed is only touched under mu.
type admissionGate struct {
	mu     sync.RWMutex
	closed bool
}

// batchMetrics are the batching tier's /stats counters; every field is
// guarded by mu.
type batchMetrics struct {
	mu             sync.Mutex
	batches        uint64
	batchedQueries uint64
	batchGroups    uint64
	sharedBuilds   uint64
	memoHits       uint64
}

func (m *batchMetrics) record(members int, st ogpa.BatchStats) {
	m.mu.Lock()
	m.batches++
	m.batchedQueries += uint64(members)
	m.batchGroups += uint64(st.Groups)
	m.sharedBuilds += uint64(st.SharedBuilds)
	m.memoHits += uint64(st.MemoHits)
	m.mu.Unlock()
}

func (m *batchMetrics) snapshot() (batches, batchedQueries, batchGroups, sharedBuilds, memoHits uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.batches, m.batchedQueries, m.batchGroups, m.sharedBuilds, m.memoHits
}

// batchRequest is one admitted query waiting for its batch.
type batchRequest struct {
	query      string
	maxResults int
	timeout    time.Duration
	resp       chan batchReply // buffered(1): execute never blocks on a gone client
}

type batchReply struct {
	ans       *ogpa.Answers
	truncated bool
	err       error
}

// batchCache adapts two instances of the server's LRU — the plan cache
// (shape-group plans under kind "mqo") and the answer memo — to the
// ogpa.BatchCache interface. The keys arrive fully scoped — fingerprint,
// epoch and canonical pattern are mixed in by ogpa.AnswerBatchCached —
// so this is pure storage. Either LRU may be nil (inert).
type batchCache struct {
	plans *lru
	memo  *lru
}

func (c *batchCache) GetPlan(key string) any       { return c.plans.get("mqo", key) }
func (c *batchCache) PutPlan(key string, plan any) { c.plans.put("mqo", key, plan) }

func (c *batchCache) GetAnswers(key string) ([][]string, bool) {
	rows, ok := c.memo.get("ans", key).([][]string)
	return rows, ok
}

func (c *batchCache) PutAnswers(key string, rows [][]string) { c.memo.put("ans", key, rows) }

// newBatcher starts the gather loop. plans may be nil (plan caching
// disabled); the answer memo is always created.
func newBatcher(kb *ogpa.KB, cfg Config, plans *lru) *batcher {
	b := &batcher{
		kb:     kb,
		cfg:    cfg,
		window: cfg.BatchWindow,
		max:    cfg.batchMax(),
		cache:  &batchCache{plans: plans, memo: newLRU(defaultAnswerMemoSize)},
		in:     make(chan *batchRequest, cfg.batchMax()),
		done:   make(chan struct{}),
	}
	go b.loop()
	return b
}

// do admits one query into the batching tier and waits for its answer.
// ok=false means the batcher is shut down and the caller should answer
// sequentially. A cancelled request context abandons the wait (the batch
// still completes — its work is shared with the other members).
func (b *batcher) do(ctx context.Context, query string, maxResults int, timeout time.Duration) (reply batchReply, ok bool) {
	req := &batchRequest{
		query:      query,
		maxResults: maxResults,
		timeout:    timeout,
		resp:       make(chan batchReply, 1),
	}
	b.gate.mu.RLock()
	if b.gate.closed {
		b.gate.mu.RUnlock()
		return batchReply{}, false
	}
	// The send happens under the read lock: close() cannot close the
	// channel until every in-flight admission has completed its send.
	b.in <- req
	b.gate.mu.RUnlock()
	select {
	case reply = <-req.resp:
		return reply, true
	case <-ctx.Done():
		return batchReply{err: ctx.Err()}, true
	}
}

// loop gathers admitted requests into batches: the first request opens a
// batch, which fires after window (or at max members) and executes on its
// own goroutine so the next batch can start gathering immediately.
func (b *batcher) loop() {
	defer close(b.done)
	for first := range b.in {
		batch := []*batchRequest{first}
		timer := time.NewTimer(b.window)
	gather:
		for len(batch) < b.max {
			select {
			case req, open := <-b.in:
				if !open {
					break gather
				}
				batch = append(batch, req)
			case <-timer.C:
				break gather
			}
		}
		timer.Stop()
		go b.execute(batch)
	}
}

// execute answers one gathered batch through the shared MQO path and
// fans the per-member results back out.
func (b *batcher) execute(batch []*batchRequest) {
	queries := make([]string, len(batch))
	// The batch runs under one deadline: the largest member timeout, and
	// only if every member asked for one — a member that didn't set a
	// timeout must not inherit its neighbors' (engine deadlines are
	// ErrLimit failures, not truncations).
	timeout := time.Duration(0)
	allTimed := true
	for i, req := range batch {
		queries[i] = req.query
		if req.timeout <= 0 {
			allTimed = false
		} else if req.timeout > timeout {
			timeout = req.timeout
		}
	}
	if !allTimed {
		timeout = 0
	}
	opt := ogpa.Options{
		Timeout: timeout,
		Workers: b.cfg.workersFor(0),
		// MaxResults stays 0: per-member caps are applied below so full
		// enumerations remain memoizable.
	}
	results, st := b.kb.AnswerBatchCached(queries, opt, b.cache)
	b.metrics.record(len(batch), st)

	for i, req := range batch {
		res := results[i]
		if res.Err == nil && req.maxResults > 0 && len(res.Answers.Rows) > req.maxResults {
			// Re-slice, never truncate in place: the rows may be shared
			// with the memo and with other members of this batch.
			res.Answers = &ogpa.Answers{Vars: res.Answers.Vars, Rows: res.Answers.Rows[:req.maxResults:req.maxResults]}
			res.Truncated = true
		}
		req.resp <- batchReply{ans: res.Answers, truncated: res.Truncated, err: res.Err}
	}
}

// snapshot reports the batch counters plus the memo's hit/size figures.
func (b *batcher) snapshot() BatchStatsSnapshot {
	var s BatchStatsSnapshot
	s.Batches, s.BatchedQueries, s.BatchGroups, s.SharedBuilds, s.MemoHits = b.metrics.snapshot()
	_, _, size := b.cache.memo.snapshot()
	s.MemoSize = size
	return s
}

// BatchStatsSnapshot is the batching tier's /stats contribution.
type BatchStatsSnapshot struct {
	Batches        uint64
	BatchedQueries uint64
	BatchGroups    uint64
	SharedBuilds   uint64
	MemoHits       uint64
	MemoSize       int
}

// close stops admission and waits for already-admitted requests to be
// batched (their executes run to completion on their own goroutines and
// answer through buffered channels). Idempotent.
func (b *batcher) close() {
	b.gate.mu.Lock()
	if b.gate.closed {
		b.gate.mu.Unlock()
		return
	}
	b.gate.closed = true
	close(b.in)
	b.gate.mu.Unlock()
	<-b.done
}
