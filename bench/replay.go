package main

// The per-layer half of the traced pass: the workload's script replayed
// in-process, on one goroutine, against the benchmark's own KB, with a span
// (and an allocation count) around each call into a layer's public
// functions. A call that wraps other layers is timed whole first; its
// children are then timed in separate calls on the same input, and the
// wrapper's self time is its span minus theirs.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"ogpa"
	"ogpa/internal/core"
	"ogpa/internal/cq"
	"ogpa/internal/datalog"
	"ogpa/internal/delta"
	"ogpa/internal/dllite"
	"ogpa/internal/graph"
	"ogpa/internal/inc"
	"ogpa/internal/match"
	"ogpa/internal/perfectref"
	"ogpa/internal/rdf"
	"ogpa/internal/rewrite"
	"ogpa/internal/server"
	"ogpa/internal/snap"
)

const (
	maxReplayOps  = 2000
	planCacheSize = 128 // the server's default
)

// benchStart is the origin of every span's clock.
var benchStart = time.Now()

// layerStats accumulates the replay's per-call measurements.
type layerStats struct {
	parseUs, generateUs, condCount                        []float64
	prepareMs, prepareBytes, csCandidates, adjPairs       []float64
	runMs, runBytes, steps, atomEvals                     []float64
	answers, selfUs, renderUs, renderBytes                []float64
	encodeUs                                              []float64
	insertMs, insertBytes, materializeMs, materializeByte []float64
	compactMs, checkpointMs, walAppendUs                  []float64
	walBytes, userBytes                                   float64
	advanceMs, maintainMs, recomputeMs                    []float64
	// totals is, per key (a query index, or 0), the whole-call time of
	// each replayed operation: what the HTTP latency of the same operation
	// is compared with.
	totals map[int][]float64
}

// plan is what the replay's stand-in for the server's plan cache holds.
type plan struct {
	key string
	pq  *ogpa.PreparedQuery
	pr  *match.Prepared // the same plan built directly, for the separately-timed run
}

// planCache evicts in insertion order. The scripts only ever cycle, and on
// a cycle first-in-first-out and the server's least-recently-used evict the
// same entries.
type planCache struct {
	byKey map[string]*plan
	order []string
}

func (c *planCache) put(pl *plan) {
	if len(c.order) == planCacheSize {
		delete(c.byKey, c.order[0])
		c.order = c.order[1:]
	}
	c.byKey[pl.key] = pl
	c.order = append(c.order, pl.key)
}

// replayer replays query operations against one KB.
type replayer struct {
	tr    *tracer
	kb    *ogpa.KB
	cache planCache
	st    layerStats
}

func newReplayer(kb *ogpa.KB, goroutine int) *replayer {
	return &replayer{
		tr:    newTracer(benchStart, goroutine),
		kb:    kb,
		cache: planCache{byKey: map[string]*plan{}},
		st:    layerStats{totals: map[int][]float64{}},
	}
}

// query replays one /query the way the handler serves it: plan-cache
// lookup, KB.Prepare on a miss, PreparedQuery.AnswerWithStats, then the
// JSON encoding. extraMs is added to the operation's total (the snapshot
// materialisation a first read after a commit pays). count says whether the
// operation enters the totals.
func (r *replayer) query(text string, key int, extraMs float64, count bool) error {
	tr := r.tr
	req := tr.add("replay.query", 0, 0, time.Now(), time.Now(), nil)
	root := len(tr.spans) - 1
	tr.spans[root].Req = req
	total := extraMs

	cacheKey := strconv.FormatUint(r.kb.Epoch(), 10) + "|" + text
	pl := r.cache.byKey[cacheKey]
	if pl == nil {
		pl = &plan{key: cacheKey}
		var err error
		prepID, prepMs := tr.timed("ogpa.prepare", req, req, func() { pl.pq, err = r.kb.Prepare(text) })
		if err != nil {
			return err
		}
		total += prepMs
		var q *cq.Query
		_, parseMs := tr.timed("cq.parse", prepID, req, func() { q, err = cq.Parse(text) })
		if err != nil {
			return err
		}
		var res *rewrite.Result
		_, genMs := tr.timed("rewrite.generate", prepID, req, func() { res, err = rewrite.Generate(q, r.kb.TBox()) })
		if err != nil {
			return err
		}
		g := r.kb.Graph()
		_, buildMs, buildBytes := tr.timedAlloc("engine.prepare", prepID, req, func() { pl.pr, err = match.Prepare(res.Pattern, g, match.Options{}) })
		if err != nil {
			return err
		}
		built := pl.pr.Stats()
		r.st.parseUs = append(r.st.parseUs, parseMs*1000)
		r.st.generateUs = append(r.st.generateUs, genMs*1000)
		r.st.condCount = append(r.st.condCount, float64(res.CondCount()))
		r.st.prepareMs = append(r.st.prepareMs, buildMs)
		r.st.prepareBytes = append(r.st.prepareBytes, buildBytes)
		r.st.csCandidates = append(r.st.csCandidates, float64(built.CSCandidates))
		r.st.adjPairs = append(r.st.adjPairs, float64(built.AdjPairs))
		r.st.selfUs = append(r.st.selfUs, (prepMs-parseMs-genMs-buildMs)*1000)
		r.cache.put(pl)
	}

	workers := runtime.GOMAXPROCS(0) // the server's default per-query pool
	var ans *ogpa.Answers
	var err error
	ansID, ansMs, ansBytes := tr.timedAlloc("ogpa.answer", req, req, func() {
		ans, _, err = pl.pq.AnswerWithStats(ogpa.Options{Workers: workers})
	})
	if err != nil {
		return err
	}
	total += ansMs
	var body []byte
	_, encMs := tr.timed("server.encode", req, req, func() {
		body, err = json.Marshal(server.QueryResponse{Vars: ans.Vars, Rows: ans.Rows, Count: ans.Len(), Method: primaryMethod})
	})
	if err != nil {
		return err
	}
	total += encMs
	tr.spans[root].EndNs = int64(time.Since(benchStart))
	tr.spans[root].Counts = map[string]float64{"resp_bytes": float64(len(body))}

	var set *core.AnswerSet
	var run match.Stats
	_, runMs, runBytes := tr.timedAlloc("engine.run", ansID, req, func() { set, run, err = pl.pr.Run(match.Options{Workers: workers}) })
	if err != nil {
		return err
	}
	r.st.runMs = append(r.st.runMs, runMs)
	r.st.runBytes = append(r.st.runBytes, runBytes)
	r.st.steps = append(r.st.steps, float64(run.Steps))
	r.st.atomEvals = append(r.st.atomEvals, float64(run.AtomEvals))
	r.st.answers = append(r.st.answers, float64(set.Len()))
	r.st.renderUs = append(r.st.renderUs, max(ansMs-runMs, 0)*1000)
	r.st.renderBytes = append(r.st.renderBytes, max(ansBytes-runBytes, 0))
	r.st.encodeUs = append(r.st.encodeUs, encMs*1000)
	if count {
		r.st.totals[key] = append(r.st.totals[key], total)
	}
	return nil
}

// publish turns the accumulated measurements into per-layer metrics.
func (p *pass) publish(st *layerStats) {
	p.timing("cq.parse_us_p50", st.parseUs, 50)
	p.timing("rewrite.generate_us_p50", st.generateUs, 50)
	p.set("rewrite.cond_count_mean", mean(st.condCount))
	p.timing("engine.prepare_ms_p50", st.prepareMs, 50)
	p.set("engine.prepare_bytes_mean", mean(st.prepareBytes))
	p.set("engine.cs_candidates_mean", mean(st.csCandidates))
	p.set("engine.adj_pairs_mean", mean(st.adjPairs))
	p.timing("engine.run_ms_p50", st.runMs, 50)
	p.set("engine.run_bytes_mean", mean(st.runBytes))
	p.set("engine.steps_mean", mean(st.steps))
	p.set("engine.atom_evals_mean", mean(st.atomEvals))
	if s := mean(st.steps); s > 0 {
		p.set("engine.answers_per_step", mean(st.answers)/s)
	}
	p.timing("ogpa.prepare_self_us_p50", st.selfUs, 50)
	p.timing("ogpa.render_us_p50", st.renderUs, 50)
	p.set("ogpa.render_bytes_mean", mean(st.renderBytes))
	p.timing("server.encode_us_p50", st.encodeUs, 50)
	p.timing("delta.insert_ms_p50", st.insertMs, 50)
	p.set("delta.insert_bytes_mean", mean(st.insertBytes))
	p.timing("delta.materialize_ms_p50", st.materializeMs, 50)
	p.set("delta.materialize_bytes_mean", mean(st.materializeByte))
	p.timing("delta.compact_ms_p50", st.compactMs, 50)
	p.timing("snap.checkpoint_ms_p50", st.checkpointMs, 50)
	p.timing("snap.wal_append_us_p50", st.walAppendUs, 50)
	if st.userBytes > 0 {
		p.set("snap.wal_bytes_per_user_byte", st.walBytes/st.userBytes)
	}
	p.timing("inc.advance_ms_p50", st.advanceMs, 50)
	p.timing("inc.recompute_ms_p50", st.recomputeMs, 50)
	if m := percentile(st.maintainMs, 50); m > 0 {
		p.set("inc.maintain_speedup", percentile(st.recomputeMs, 50)/m)
	}
}

// coverage is the in-process time of the replayed operations over the
// client-side latency of the same operations in the traced HTTP pass: how
// much of what a client waits for the layer spans account for.
func (p *pass) coverage(rec *recording, kind opKind, keyOf func(op int) int, totals map[int][]float64) {
	var layers, client float64
	for _, s := range rec.perClient[0] {
		if s.kind != kind || !s.ok || !rec.traced(s.start) {
			continue
		}
		if ts := totals[keyOf(s.op)]; len(ts) > 0 {
			layers += mean(ts)
			client += s.ms()
		}
	}
	if client > 0 {
		p.set("trace.coverage", layers/client)
	}
}

func (p *pass) replayBudget() time.Time {
	return time.Now().Add(time.Duration(2 * p.cfg.seconds * float64(time.Second)))
}

// replayReads replays read_hot or read_uncached. A set that fits the plan
// cache is first replayed until every plan is cached, as the server's
// warm-up did.
func (p *pass) replayReads(set []query, seq []int, rec *recording) {
	r := newReplayer(p.in.kb, 100)
	warm := 0
	if len(set) <= planCacheSize {
		for seen := map[int]bool{}; len(seen) < len(set); warm++ {
			seen[seq[warm]] = true
		}
	}
	deadline := p.replayBudget()
	for op := 0; op < warm+maxReplayOps && time.Now().Before(deadline); op++ {
		q := seq[op%len(seq)]
		p.check(r.query(set[q].text, q, 0, op >= warm))
	}
	p.spans = append(p.spans, r.tr.spans...)
	p.publish(&r.st)
	p.coverage(rec, opQuery, func(op int) int { return seq[op%len(seq)] }, r.st.totals)
}

// parseBatch decodes an N-Triples body the way the store will.
func parseBatch(body []byte) ([]rdf.Triple, error) {
	var ts []rdf.Triple
	err := rdf.ParseTriples(bytes.NewReader(body), func(t rdf.Triple) error {
		ts = append(ts, t)
		return nil
	})
	return ts, err
}

func mutate(kb *ogpa.KB, del bool, body []byte) (int, error) {
	if del {
		return kb.DeleteTriples(bytes.NewReader(body))
	}
	return kb.InsertTriples(bytes.NewReader(body))
}

// replayWriteMix replays client 0's write_mix script on a durable KB of the
// benchmark's own. Compaction is explicit here (the background compactor
// would run beside the timed calls): when the overlay reaches the server's
// threshold the replay folds it, then checkpoints.
func (p *pass) replayWriteMix(reads []query, rec *recording) error {
	kb, err := p.in.newKB()
	if err != nil {
		return err
	}
	dir := filepath.Join(p.dir, "replay-data")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := kb.EnableDurableLiveData(dir, -1); err != nil {
		return err
	}
	wal, _, err := snap.OpenWAL(filepath.Join(p.dir, "replay-scratch.wal"))
	if err != nil {
		return err
	}
	r := newReplayer(kb, 100)
	tr, st := r.tr, &r.st
	script := writeMixOps{seq: shuffledOrder(identity(len(reads)))(0, 0)}
	deadline := p.replayBudget()
	var pendingMs float64 // materialisation the next read pays for
	for op := 0; op < maxReplayOps && time.Now().Before(deadline) && err == nil; op++ {
		q, del, batch := script.nextOp()
		if q >= 0 {
			err = r.query(reads[q].text, 0, pendingMs, true)
			pendingMs = 0
			continue
		}
		body := p.in.batch(0, batch, batchStudents)
		walBefore := kb.PersistenceStats().WALBytes
		id, ms, alloc := tr.timedAlloc("delta.insert", 0, 0, func() { _, err = mutate(kb, del, body) })
		if err != nil {
			break
		}
		st.insertMs = append(st.insertMs, ms)
		st.insertBytes = append(st.insertBytes, alloc)
		st.walBytes += float64(kb.PersistenceStats().WALBytes - walBefore)
		st.userBytes += float64(len(body))
		var triples []rdf.Triple
		if triples, err = parseBatch(body); err != nil {
			break
		}
		_, appendMs := tr.timed("snap.wal_append", id, id, func() {
			err = wal.Append(snap.Record{Epoch: kb.Epoch(), Del: del, Triples: triples})
		})
		if err != nil {
			break
		}
		st.walAppendUs = append(st.walAppendUs, appendMs*1000)
		// The first Graph() after a commit merges the overlay into a
		// snapshot graph; every later read of the epoch shares it.
		_, matMs, matBytes := tr.timedAlloc("delta.materialize", 0, 0, func() { kb.Graph() })
		st.materializeMs = append(st.materializeMs, matMs)
		st.materializeByte = append(st.materializeByte, matBytes)
		pendingMs = matMs
		if kb.OverlaySize() >= writeMixThreshold {
			_, ms := tr.timed("delta.compact", 0, 0, kb.Compact)
			st.compactMs = append(st.compactMs, ms)
			_, ms = tr.timed("snap.checkpoint", 0, 0, func() { _, err = kb.Checkpoint() })
			st.checkpointMs = append(st.checkpointMs, ms)
		}
	}
	if err = errors.Join(err, wal.Close()); err != nil {
		return err
	}
	ps := kb.PersistenceStats()
	p.set("snap.snapshot_bytes_per_user_byte", float64(ps.SnapshotBytes)/float64(p.in.dataBytes))
	if err := kb.Close(); err != nil {
		return err
	}
	p.spans = append(p.spans, tr.spans...)
	p.publish(st)
	p.coverage(rec, opQuery, func(int) int { return 0 }, st.totals)
	return p.replayRecovery()
}

// replayRecovery times the two halves of a durable start: loading the base
// snapshot, and opening the WAL plus replaying walRecords records onto it
// up to the first materialised graph.
func (p *pass) replayRecovery() error {
	kb, err := p.in.newKB()
	if err != nil {
		return err
	}
	dir := filepath.Join(p.dir, "replay-recovery")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := kb.EnableDurableLiveData(dir, -1); err != nil {
		return err
	}
	for k := 0; k < walRecords; k++ {
		if _, err := mutate(kb, false, p.in.batch(seedClient, k, batchStudents)); err != nil {
			return err
		}
	}
	if err := kb.Close(); err != nil {
		return err
	}
	tr := newTracer(benchStart, 101)
	snapPath := filepath.Join(dir, ogpa.SnapshotFile)
	var loadMs, replayMs []float64
	for i := 0; i < 5; i++ {
		var base *graph.Graph
		var epoch uint64
		_, ms := tr.timed("snap.load", 0, 0, func() { base, epoch, err = snap.LoadSnapshot(snapPath) })
		if err != nil {
			return err
		}
		loadMs = append(loadMs, ms)
		var store *delta.Store
		_, ms = tr.timed("snap.replay", 0, 0, func() {
			var wal *snap.WAL
			var records []snap.Record
			if wal, records, err = snap.OpenWAL(filepath.Join(dir, ogpa.WALFile)); err != nil {
				return
			}
			store, err = delta.NewStoreRecovered(base, epoch, records, delta.Config{
				CompactThreshold: -1, Name: rdf.LocalName, WAL: wal, SnapshotPath: snapPath,
			})
			if err != nil {
				err = errors.Join(err, wal.Close())
				return
			}
			store.Snapshot().Graph()
		})
		if err != nil {
			return err
		}
		replayMs = append(replayMs, ms)
		if got := store.Epoch(); got != epoch+walRecords {
			return fmt.Errorf("in-process recovery reached epoch %d, want %d", got, epoch+walRecords)
		}
		if err := store.Close(); err != nil {
			return err
		}
	}
	p.spans = append(p.spans, tr.spans...)
	p.timing("snap.load_ms", loadMs, 50)
	p.timing("snap.replay_ms", replayMs, 50)
	return nil
}

// replayStanding replays the writer's script against a delta store with an
// incremental manager holding the four standing queries' datalog chains,
// and beside each maintained step evaluates the same programs from scratch.
func (p *pass) replayStanding(rec *recording) error {
	kb, err := p.in.newKB()
	if err != nil {
		return err
	}
	store := delta.NewStore(kb.Graph(), delta.Config{CompactThreshold: -1, Name: rdf.LocalName})
	mgr := inc.NewManager(store, rdf.LocalName)
	defer mgr.Close()
	var progs []*datalog.Program
	var chains []*inc.DatalogChain
	for _, text := range standingQueries {
		q, err := cq.Parse(text)
		if err != nil {
			return err
		}
		prog, err := datalog.Rewrite(q, kb.TBox(), perfectref.Limits{})
		if err != nil {
			return err
		}
		c, err := mgr.RegisterDatalog(prog, datalog.Limits{})
		if err != nil {
			return err
		}
		progs, chains = append(progs, prog), append(chains, c)
	}
	tr := newTracer(benchStart, 100)
	st := layerStats{totals: map[int][]float64{}}
	var muts mutationScript
	deadline := p.replayBudget()
	for op := 0; op < maxReplayOps && time.Now().Before(deadline); op++ {
		del, batch := muts.step()
		body := p.in.batch(0, batch, batchStudents)
		id, insMs, alloc := tr.timedAlloc("delta.insert", 0, 0, func() {
			if del {
				_, err = store.DeleteTriples(bytes.NewReader(body))
			} else {
				_, err = store.InsertTriples(bytes.NewReader(body))
			}
		})
		if err != nil {
			return err
		}
		st.insertMs = append(st.insertMs, insMs)
		st.insertBytes = append(st.insertBytes, alloc)
		_, advMs := tr.timed("inc.advance", id, id, func() { _, err = mgr.Advance() })
		if err != nil {
			return err
		}
		maintained := make([]int, len(chains))
		_, ansMs := tr.timed("inc.answer", id, id, func() {
			for i, c := range chains {
				var tuples []datalog.Tuple
				if tuples, _, err = c.Answer(); err != nil {
					return
				}
				maintained[i] = len(tuples)
			}
		})
		if err != nil {
			return err
		}
		st.advanceMs = append(st.advanceMs, advMs)
		st.maintainMs = append(st.maintainMs, advMs+ansMs)
		st.totals[0] = append(st.totals[0], insMs+advMs+ansMs)
		_, recMs := tr.timed("inc.recompute", id, id, func() {
			abox := dllite.ABoxFromGraph(store.Snapshot().Graph())
			for i, prog := range progs {
				var tuples []datalog.Tuple
				if tuples, err = datalog.Answer(prog, datalog.LoadABox(abox), datalog.Limits{}); err != nil {
					return
				}
				if len(tuples) != maintained[i] {
					err = fmt.Errorf("standing query %d: maintained chain has %d answers, recomputation %d", i, maintained[i], len(tuples))
					return
				}
			}
		})
		p.check(err)
		st.recomputeMs = append(st.recomputeMs, recMs)
		if store.OverlaySize() >= delta.DefaultCompactThreshold {
			_, ms := tr.timed("delta.compact", 0, 0, store.Compact)
			st.compactMs = append(st.compactMs, ms)
		}
	}
	if err := store.Close(); err != nil {
		return err
	}
	p.spans = append(p.spans, tr.spans...)
	p.publish(&st)
	p.coverage(rec, opVisible, func(int) int { return 0 }, st.totals)
	return nil
}
