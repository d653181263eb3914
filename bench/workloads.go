package main

// The four workloads. Each starts its own server with the flags an operator
// of that deployment would use, drives it, checks every answer and fills in
// the metrics of one pass (untraced: end to end; traced: per layer).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"ogpa"
	"ogpa/internal/server"
)

const (
	// Set-up is the median of at least minColdStarts cold starts; a
	// deployment that starts in tens of milliseconds gets more of them (up
	// to maxColdStarts within coldStartBudget), because at that length the
	// noise of exec and page cache is a fifth of the value.
	minColdStarts   = 7
	maxColdStarts   = 25
	coldStartBudget = 2 * time.Second
	// writeMixThreshold is write_mix's -compact-threshold. The shipped
	// default (4096 overlay ops, 64 mutation batches) would put fewer than
	// three checkpoint cycles in a 10 s window; a quarter of it puts about
	// ten there, so that background work is measured at its steady state.
	writeMixThreshold = 1024
	readsPerWrite     = 19 // 95/5
	readWindow        = 3  // queries a write_mix client cycles between two writes
	deleteLag         = 8  // batches outstanding per client before deletions start
	walRecords        = 32 // records a recovering write_mix server replays
	pollTimeoutMs     = 500
)

var standingQueries = []string{
	// Subscription 0, the one the workload follows: every batch of new
	// graduate students with advisors changes its answer.
	`q(x, y) :- Student(x), advisor(x, y)`,
	`q(x) :- GraduateStudent(x), takesCourse(x, y), GraduateCourse(y)`,
	`q(x, y) :- Professor(x), worksFor(x, y), Department(y)`,
	`q(x) :- Person(x), memberOf(x, y), Department(y)`,
}

// result is one pass of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"` // sample count behind each timing
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Dropped   []droppedQuery     `json:"dropped_queries,omitempty"`
}

// pass carries what the steps of one pass share.
type pass struct {
	cfg    *config
	in     *inputs
	dir    string
	traced bool
	res    *result
	spans  []span
	ctx    context.Context
}

func (p *pass) set(name string, v float64) { p.res.Metrics[name] = v }

// timing records a latency distribution's quantile with its sample count.
func (p *pass) timing(name string, xs []float64, pct float64) {
	p.res.Metrics[name] = percentile(xs, pct)
	p.res.Samples[name] = len(xs)
}

// check counts one post-window verification in attempted/failed.
func (p *pass) check(err error) {
	p.res.Attempted++
	if err != nil {
		p.res.Failed++
		if len(p.res.Failures) < 10 {
			p.res.Failures = append(p.res.Failures, err.Error())
		}
	}
}

func (p *pass) schedule() schedule {
	sch := schedule{
		warmup: time.Duration(p.cfg.warmup * float64(time.Second)),
		window: time.Duration(p.cfg.seconds * float64(time.Second)),
	}
	if p.traced {
		// Short slices, so that both halves see the same mix of queries.
		sch.slice = sch.window / 40
	}
	return sch
}

// clients is the number of closed-loop connections: one per core, at most
// two (the reference box), and one in the traced pass so that the spans of
// consecutive requests never overlap.
func (p *pass) clients() int {
	if p.traced {
		return 1
	}
	return p.cfg.clients
}

// coldStarts measures set-up: exec to ready, where ready is the first 200
// from GET /stats plus whatever the deployment must do before it can serve
// (afterReady). It starts the server several times, killing all but the
// last, and returns the last one running with the median.
func (p *pass) coldStarts(args []string, afterReady func(*serverProc) error) (*serverProc, error) {
	began := time.Now()
	var secs []float64
	for {
		start := time.Now()
		srv, err := startServer(p.cfg.serverBin, args, filepath.Join(p.dir, "server.log"))
		if err != nil {
			return nil, err
		}
		if afterReady != nil {
			if err := afterReady(srv); err != nil {
				srv.kill()
				return nil, err
			}
		}
		secs = append(secs, time.Since(start).Seconds())
		// The traced pass starts once: set-up time is an end-to-end metric.
		if n := len(secs); p.traced || n == maxColdStarts || (n >= minColdStarts && time.Since(began) > coldStartBudget) {
			p.timing("setup_s", secs, 50)
			return srv, nil
		}
		srv.kill()
	}
}

// measure drives the workers through warm-up and window, reads /stats at
// both ends of the window and the server's peak memory at its end, and fills
// in the pass's metrics from what the clients and the server saw.
func (p *pass) measure(srv *serverProc, workers []worker) (*recording, error) {
	ctl := newClient(srv.base)
	defer ctl.close()
	var before server.StatsResponse
	var beforeErr error
	sch := p.schedule()
	sch.atWindow = func() { before, beforeErr = ctl.stats(p.ctx) }
	rec := drive(srv.base, workers, sch)
	p.res.Attempted += rec.attempted
	p.res.Failed += rec.failed
	p.res.Failures = append(p.res.Failures, rec.failures...)
	p.spans = append(p.spans, rec.spans...)
	after, err := ctl.stats(p.ctx)
	if err = errors.Join(beforeErr, err); err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if !p.traced {
		p.set("rss_mb", rss)
		p.set("ops_per_s", rec.opsPerSecond(nil))
		q := rec.inWindow(opQuery, nil)
		p.timing("query_ms_p50", q, 50)
		p.timing("query_ms_p95", q, 95)
		return rec, nil
	}
	untraced := func(s sample) bool { return !rec.traced(s.start) }
	traced := func(s sample) bool { return rec.traced(s.start) }
	if u := rec.opsPerSecond(untraced); u > 0 {
		p.set("trace.overhead_share", (u-rec.opsPerSecond(traced))/u)
	}
	var overhead, sizes []float64
	for _, s := range rec.perClient[0] {
		if s.kind == opQuery && s.ok && traced(s) {
			overhead = append(overhead, s.ms()-s.tookMs)
			sizes = append(sizes, float64(s.bytes))
		}
	}
	p.timing("server.overhead_ms_p50", overhead, 50)
	p.set("server.resp_bytes_mean", mean(sizes))
	p.timing("server.query_ms_p99", rec.inWindow(opQuery, nil), 99)
	p.timing("client.write_ms_p50", rec.inWindow(opWrite, nil), 50)
	p.timing("client.visible_ms_p50", rec.inWindow(opVisible, nil), 50)
	if lookups := (after.PlanCacheHits - before.PlanCacheHits) + (after.PlanCacheMisses - before.PlanCacheMisses); lookups > 0 {
		p.set("server.plan_cache_hit_ratio", float64(after.PlanCacheHits-before.PlanCacheHits)/float64(lookups))
	}
	p.set("server.errors", float64(after.Errors))
	p.set("delta.compactions", float64(after.Compactions-before.Compactions))
	p.set("delta.overlay_ops_max", float64(rec.maxOverlay))
	if after.Incremental != nil {
		p.set("inc.rebuilds", float64(after.Incremental.Rebuilds))
		p.set("inc.deltas", float64(after.Incremental.Deltas))
	}
	return rec, nil
}

func queryBodies(set []query) ([][]byte, error) {
	bodies := make([][]byte, len(set))
	for i, q := range set {
		var err error
		if bodies[i], err = queryBody(q.text, ""); err != nil {
			return nil, err
		}
	}
	return bodies, nil
}

const primaryMethod = "genogp+omatch"

// order yields the sequence of query indices one client cycles through.
type order func(client, clients int) []int

// stridedOrder gives client c of n every n-th query. The clients' working
// sets are then disjoint however their speeds drift; two clients in phase
// on one cycle would feed each other plan-cache hits on read_uncached.
func stridedOrder(queries int) order {
	return func(client, clients int) []int {
		var seq []int
		for q := client; q < queries; q += clients {
			seq = append(seq, q)
		}
		return seq
	}
}

// shuffledOrder gives every client all the slots (query indices, possibly
// repeated), each once per cycle, in an order reshuffled every cycle (64
// cycles, then over again); the sequence depends on the client alone, not on
// -seed. With one
// fixed order two closed-loop clients lock into a phase, so that for a whole
// run each query shares the cores with the same partner (say always with the
// 60 ms one), and the next run locks into another phase: the median of the
// mix then differs by 15 % between runs of one seed.
func shuffledOrder(slots []int) order {
	return func(client, _ int) []int {
		rng := rand.New(rand.NewSource(int64(client) + 1))
		var seq []int
		for cycle := 0; cycle < 64; cycle++ {
			for _, i := range rng.Perm(len(slots)) {
				seq = append(seq, slots[i])
			}
		}
		return seq
	}
}

func identity(n int) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i
	}
	return xs
}

// hotSlots is read_hot's cycle: every hot query once, and the six cheapest
// LUBM queries (Q1, Q3, Q4, Q9, Q11, Q12) a second time. With 30 slots the
// 95th percentile of the mix falls in the middle of the second-heaviest
// query's latency distribution (Q5 is the top 3.3 %, Q8 the next 3.3 %);
// with 24 it sits near the boundary between the two and swings with it.
func hotSlots(queries int) []int {
	return append(identity(queries), 0, 2, 3, 8, 10, 11)
}

// readWorkload is read_hot and read_uncached: a read-only KB and a fixed
// sequence of queries per client, cycled.
func (p *pass) readWorkload(set []query, ord order) error {
	bodies, err := queryBodies(set)
	if err != nil {
		return err
	}
	srv, err := p.coldStarts([]string{"-ontology", p.in.ontologyPath, "-data", p.in.dataPath}, nil)
	if err != nil {
		return err
	}
	defer srv.kill()
	n := p.clients()
	workers := make([]worker, n)
	for c := range workers {
		seq := ord(c, n)
		workers[c] = func(ctx context.Context, cl *client, rec *recorder) {
			for op := 0; ctx.Err() == nil; op++ {
				q := seq[op%len(seq)]
				runQuery(ctx, cl, rec, op, bodies[q], func(status int, resp []byte) (float64, error) {
					return checkAnswer(status, resp, primaryMethod, &set[q].exp)
				})
			}
		}
	}
	rec, err := p.measure(srv, workers)
	if err != nil {
		return err
	}
	if p.traced {
		p.replayReads(set, ord(0, 1), rec)
	}
	return srv.stop()
}

// mutationScript yields one client's mutations: insert new batches until
// deleteLag are outstanding, then alternate inserting the next batch and
// deleting the oldest, so that the KB's size is stationary.
type mutationScript struct {
	next        int
	outstanding []int
	round       int
}

func (m *mutationScript) step() (del bool, batch int) {
	m.round++
	if len(m.outstanding) >= deleteLag && m.round%2 == 0 {
		batch, m.outstanding = m.outstanding[0], m.outstanding[1:]
		return true, batch
	}
	batch = m.next
	m.next++
	m.outstanding = append(m.outstanding, batch)
	return false, batch
}

// writeMixOps is the shared script of write_mix's HTTP clients and its
// in-process replay: rounds of readsPerWrite hot queries, cycling a window
// of readWindow of them so that plans prepared after a commit are reused
// until the next, then one mutation. The windows are consecutive stretches
// of the client's shuffledOrder, so every query gets the same share of the
// reads and no two clients stay in phase.
type writeMixOps struct {
	seq            []int
	muts           mutationScript
	round, inRound int
}

// nextOp returns either a query index or (query < 0) a mutation.
func (w *writeMixOps) nextOp() (query int, del bool, batch int) {
	if w.inRound == readsPerWrite {
		w.inRound = 0
		w.round++
		del, batch = w.muts.step()
		return -1, del, batch
	}
	query = w.seq[(w.round*readWindow+w.inRound%readWindow)%len(w.seq)]
	w.inRound++
	return query, false, 0
}

// writeMix is the durable live KB under a 95/5 read/write mix. Its reads
// are the light hot queries: a quadratic one takes 60 ms where the rest take
// one, and six of those in a round slow every read of the other client for
// half a second, which makes the median a matter of phase, not of the code.
// (They are read_hot's heaviest class; the final checks cover them here.)
func (p *pass) writeMix(hot []query) error {
	var reads []query
	for _, q := range hot {
		if q.light {
			reads = append(reads, q)
		}
	}
	bodies, err := queryBodies(reads)
	if err != nil {
		return err
	}
	dataDir := filepath.Join(p.dir, "data")
	if err := os.RemoveAll(dataDir); err != nil {
		return err
	}
	base := []string{"-ontology", p.in.ontologyPath, "-data", p.in.dataPath, "-data-dir", dataDir}
	// Seed the directory: first start writes the base snapshot, then
	// walRecords acknowledged batches go to the WAL and the server is
	// killed. Every cold start below is therefore a crash recovery of a
	// snapshot plus exactly walRecords records.
	last, err := p.seedDataDir(append(base, "-compact-threshold", "-1"))
	if err != nil {
		return err
	}
	args := append(base, "-compact-threshold", fmt.Sprint(writeMixThreshold))
	srv, err := p.coldStarts(args, func(s *serverProc) error {
		return p.expectEpoch(s, last)
	})
	if err != nil {
		return err
	}
	defer func() { srv.kill() }()

	workers := make([]worker, p.clients())
	for c := range workers {
		workers[c] = func(ctx context.Context, cl *client, rec *recorder) {
			script := writeMixOps{seq: shuffledOrder(identity(len(reads)))(c, 0)}
			for op := 0; ctx.Err() == nil; op++ {
				q, del, batch := script.nextOp()
				if q < 0 {
					runMutation(ctx, cl, rec, op, del, p.in.batch(c, batch, batchStudents))
					continue
				}
				runQuery(ctx, cl, rec, op, bodies[q], func(status int, resp []byte) (float64, error) {
					_, took, err := checkShape(status, resp, primaryMethod)
					return took, err
				})
			}
		}
	}
	rec, err := p.measure(srv, workers)
	if err != nil {
		return err
	}

	// Quiesced: every hot query must agree with the datalog pipeline on
	// the epoch the writes left behind.
	ctl := newClient(srv.base)
	defer ctl.close()
	for _, q := range hot {
		p.check(agree(p.ctx, ctl, q.text))
	}
	srv, err = p.durability(srv, ctl, args, hot)
	if err != nil {
		return err
	}
	if p.traced {
		if err := p.replayWriteMix(reads, rec); err != nil {
			return err
		}
	}
	return srv.stop()
}

// seedDataDir starts a fresh durable server, commits walRecords batches and
// kills it; it returns the last acknowledged epoch.
func (p *pass) seedDataDir(args []string) (uint64, error) {
	srv, err := startServer(p.cfg.serverBin, args, filepath.Join(p.dir, "server.log"))
	if err != nil {
		return 0, err
	}
	defer srv.kill()
	cl := newClient(srv.base)
	defer cl.close()
	var last uint64
	for k := 0; k < walRecords; k++ {
		var mr server.MutationResponse
		if err := cl.getJSON(p.ctx, http.MethodPost, "/insert", p.in.batch(seedClient, k, batchStudents), &mr); err != nil {
			return 0, err
		}
		last = mr.Epoch
	}
	return last, nil
}

// seedClient and probeClient name the batch streams of the set-up seeding
// and of the durability check, apart from the load clients' 0 and 1.
const (
	seedClient  = 8
	probeClient = 9
)

func (p *pass) expectEpoch(s *serverProc, want uint64) error {
	cl := newClient(s.base)
	defer cl.close()
	st, err := cl.stats(p.ctx)
	if err != nil {
		return err
	}
	if st.Epoch != want {
		return fmt.Errorf("recovered epoch %d, last acknowledged epoch was %d", st.Epoch, want)
	}
	return nil
}

// answerOf fetches one query's decoded answer through the given pipeline.
func answerOf(ctx context.Context, cl *client, text, baseline string) (server.QueryResponse, error) {
	var qr server.QueryResponse
	body, err := queryBody(text, baseline)
	if err != nil {
		return qr, err
	}
	if err := cl.getJSON(ctx, http.MethodPost, "/query", body, &qr); err != nil {
		return qr, err
	}
	if qr.Truncated {
		return qr, fmt.Errorf("truncated answer for %s", text)
	}
	return qr, nil
}

// agree checks GenOGP+OMatch against the datalog pipeline over HTTP.
func agree(ctx context.Context, cl *client, text string) error {
	got, err := answerOf(ctx, cl, text, "")
	if err != nil {
		return err
	}
	want, err := answerOf(ctx, cl, text, string(ogpa.BaselineDatalog))
	if err != nil {
		return err
	}
	if len(got.Rows) != len(want.Rows) || rowSetHash(got.Rows) != rowSetHash(want.Rows) {
		return fmt.Errorf("%s: genogp+omatch has %d rows, datalog %d", text, len(got.Rows), len(want.Rows))
	}
	return nil
}

// durability is the crash check at the end of write_mix: checkpoint, commit
// walRecords more batches, SIGKILL, restart on the same directory. The
// recovered epoch must be the last acknowledged one and the hot queries
// must answer as before the crash. SIGKILL leaves the OS page cache intact,
// so this checks the commit protocol, not the device. It returns the
// restarted server.
func (p *pass) durability(srv *serverProc, ctl *client, args []string, hot []query) (*serverProc, error) {
	var cp server.CheckpointResponse
	if err := ctl.getJSON(p.ctx, http.MethodPost, "/checkpoint", nil, &cp); err != nil {
		return srv, err
	}
	last := cp.Epoch
	for k := 0; k < walRecords; k++ {
		// Small batches: walRecords of them stay under the compaction
		// threshold, so the WAL holds exactly these records at the kill.
		var mr server.MutationResponse
		if err := ctl.getJSON(p.ctx, http.MethodPost, "/insert", p.in.batch(probeClient, k, probeStudents), &mr); err != nil {
			return srv, err
		}
		last = mr.Epoch
	}
	if last != cp.Epoch+walRecords {
		return srv, fmt.Errorf("epoch %d after %d batches on checkpoint epoch %d", last, walRecords, cp.Epoch)
	}
	before := make([]server.QueryResponse, len(hot))
	for i, q := range hot {
		var err error
		if before[i], err = answerOf(p.ctx, ctl, q.text, ""); err != nil {
			return srv, err
		}
	}
	ctl.close()
	start := time.Now()
	srv.kill()
	restarted, err := startServer(p.cfg.serverBin, args, filepath.Join(p.dir, "server.log"))
	if err != nil {
		return srv, err
	}
	p.set("client.recover_s", time.Since(start).Seconds())
	p.check(p.expectEpoch(restarted, last))
	cl := newClient(restarted.base)
	defer cl.close()
	for i, q := range hot {
		got, err := answerOf(p.ctx, cl, q.text, "")
		if err == nil && (len(got.Rows) != len(before[i].Rows) || rowSetHash(got.Rows) != rowSetHash(before[i].Rows)) {
			err = fmt.Errorf("%s: %d rows after recovery, %d before the crash", q.text, len(got.Rows), len(before[i].Rows))
		}
		p.check(err)
	}
	return restarted, nil
}

// folded is a standing query's answer set as reconstructed from its delta
// stream, kept as a count and an order-independent hash.
type folded struct {
	epoch uint64
	rows  int
	hash  uint64
	at    time.Time
}

func (f *folded) apply(d ogpa.AnswerDelta, at time.Time) {
	for _, r := range d.Added {
		f.rows++
		f.hash += rowSetHash([][]string{r})
	}
	for _, r := range d.Removed {
		f.rows--
		f.hash -= rowSetHash([][]string{r})
	}
	f.epoch, f.at = d.Epoch, at
}

// subscribeAll registers the standing queries and collects subscription
// 0's initial answer; it is part of standing's set-up.
func (p *pass) subscribeAll(s *serverProc, state *folded, pollPath *string) error {
	cl := newClient(s.base)
	defer cl.close()
	for i, q := range standingQueries {
		body, err := json.Marshal(server.SubscribeRequest{Query: q})
		if err != nil {
			return err
		}
		var sr server.SubscribeResponse
		if err := cl.getJSON(p.ctx, http.MethodPost, "/subscribe", body, &sr); err != nil {
			return err
		}
		if i == 0 {
			*pollPath = fmt.Sprintf("/subscribe/%d/poll?timeoutMs=%d", sr.ID, pollTimeoutMs)
		}
	}
	var d ogpa.AnswerDelta
	if err := cl.getJSON(p.ctx, http.MethodGet, *pollPath, nil, &d); err != nil {
		return err
	}
	*state = folded{}
	state.apply(d, time.Now())
	return nil
}

// standing is the live KB with standing queries: one connection writes,
// the other long-polls subscription 0. A round is: commit a batch, wait
// until its delta arrives, then ask the primary pipeline the same query
// and compare it with the answer folded from the deltas.
func (p *pass) standing(hot []query) error {
	args := []string{"-ontology", p.in.ontologyPath, "-data", p.in.dataPath, "-live", "-subscribe"}
	var state folded
	var pollPath string
	srv, err := p.coldStarts(args, func(s *serverProc) error { return p.subscribeAll(s, &state, &pollPath) })
	if err != nil {
		return err
	}
	defer srv.kill()
	followed, err := queryBody(standingQueries[0], "")
	if err != nil {
		return err
	}

	// The poller hands every folded state to the writer. A delta can
	// overtake the acknowledgement of the write that caused it, so the
	// channel buffers; 64 is far beyond the one delta a closed-loop writer
	// can have in flight.
	events := make(chan folded, 64)
	poller := func(ctx context.Context, cl *client, rec *recorder) {
		defer close(events)
		for ctx.Err() == nil {
			status, resp, err := cl.do(context.WithoutCancel(ctx), http.MethodGet, pollPath, nil)
			at := time.Now()
			switch {
			case err != nil:
				rec.fail("poll: %v", err)
				return
			case status == http.StatusNoContent:
				continue
			case status != http.StatusOK:
				rec.fail("poll: status %d: %.200s", status, resp)
				return
			}
			var d ogpa.AnswerDelta
			if err := json.Unmarshal(resp, &d); err != nil {
				rec.fail("poll: %v", err)
				return
			}
			state.apply(d, at)
			select {
			case events <- state:
			case <-ctx.Done():
				return
			}
		}
	}
	writer := func(ctx context.Context, cl *client, rec *recorder) {
		var muts mutationScript
		for op := 0; ctx.Err() == nil; op += 2 {
			del, batch := muts.step()
			sent := time.Now()
			epoch, ok := runMutation(ctx, cl, rec, op, del, p.in.batch(0, batch, batchStudents))
			if !ok {
				return
			}
			var seen folded
			for seen.epoch < epoch {
				select {
				case ev, open := <-events:
					if !open {
						// The poller stops when the window closes; only a
						// stream that ended early is a failure.
						if ctx.Err() == nil {
							rec.fail("subscription stream ended before epoch %d became visible", epoch)
						}
						return
					}
					seen = ev
				case <-time.After(20 * time.Second):
					rec.fail("epoch %d not visible on the subscription after 20s", epoch)
					return
				}
			}
			rec.samples = append(rec.samples, sample{kind: opVisible, op: op, start: sent, end: seen.at, ok: true})
			runQuery(ctx, cl, rec, op+1, followed, func(status int, resp []byte) (float64, error) {
				_, took, err := checkShape(status, resp, primaryMethod)
				if err != nil {
					return 0, err
				}
				var qr server.QueryResponse
				if err := json.Unmarshal(resp, &qr); err != nil {
					return 0, err
				}
				if len(qr.Rows) != seen.rows || rowSetHash(qr.Rows) != seen.hash {
					return 0, fmt.Errorf("fresh /query has %d rows at epoch %d, the folded delta stream %d", len(qr.Rows), epoch, seen.rows)
				}
				return took, nil
			})
		}
	}
	rec, err := p.measure(srv, []worker{writer, poller})
	if err != nil {
		return err
	}
	ctl := newClient(srv.base)
	defer ctl.close()
	for _, q := range hot {
		p.check(agree(p.ctx, ctl, q.text))
	}
	if p.traced {
		if err := p.replayStanding(rec); err != nil {
			return err
		}
	}
	return srv.stop()
}
