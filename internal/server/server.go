// Package server exposes a knowledge base over HTTP — the shape of a small
// OMQA endpoint a downstream user would deploy. JSON in, JSON out, stdlib
// only.
//
//	POST /query        answer a CQ (or SPARQL) query
//	POST /rewrite      return the generated OGP for a query
//	POST /insert       apply an N-Triples body as ABox insertions (live KB)
//	POST /delete       apply an N-Triples body as ABox deletions (live KB)
//	POST /checkpoint   fold the overlay into the base snapshot (durable KB)
//	GET  /stats        knowledge-base statistics
//	GET  /consistency  negative-inclusion check
//
// With Config.Subscriptions (`ogpaserver -subscribe`) the handler also
// serves standing queries, each read from the KB's one maintained
// datalog fixpoint (started by the first POST /subscribe):
//
//	POST   /subscribe              register a standing query
//	GET    /subscribe/{id}/poll    long-poll the next answer delta
//	GET    /subscribe/{id}/events  stream answer deltas (SSE)
//	DELETE /subscribe/{id}         unsubscribe
//
// The mutation and standing-query endpoints require a KB with live data
// enabled (ogpa.KB.EnableLiveData; `ogpaserver -live`); against a
// read-only KB they answer 403. Each accepted batch bumps the store
// epoch, which is part of every plan-cache key, so cached plans never
// serve answers from a superseded version.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	stdruntime "runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"ogpa"
)

// QueryRequest is the body of POST /query and POST /rewrite. Every
// pipeline answers the query's core, so there is no field to switch
// minimization: a body with any field not listed here, such as a
// "minimize" from older clients, is refused with 400.
type QueryRequest struct {
	Query      string `json:"query"`
	SPARQL     bool   `json:"sparql,omitempty"`
	Baseline   string `json:"baseline,omitempty"`
	MaxResults int    `json:"maxResults,omitempty"`
	TimeoutMs  int    `json:"timeoutMs,omitempty"`
	// Workers requests a matcher worker-pool size for this query
	// (0 = server default). The server clamps it to its per-query cap.
	Workers int `json:"workers,omitempty"`
}

// QueryResponse is the body of a successful POST /query.
type QueryResponse struct {
	Vars   []string   `json:"vars"`
	Rows   [][]string `json:"rows"`
	Count  int        `json:"count"`
	TookMs float64    `json:"tookMs"`
	Method string     `json:"method"`
	// Truncated reports that enumeration stopped early — at MaxResults,
	// at the timeout, or because the client disconnected (the request
	// context is wired into the matcher). The rows returned are still
	// sound answers, just not necessarily all of them.
	Truncated bool `json:"truncated,omitempty"`
}

// MutationResponse is the body of a successful POST /insert or /delete.
type MutationResponse struct {
	Applied     int     `json:"applied"`     // triples in the batch
	Epoch       uint64  `json:"epoch"`       // store version after the batch
	OverlaySize int     `json:"overlaySize"` // ops layered over the base
	TookMs      float64 `json:"tookMs"`
}

// RewriteResponse is the body of a successful POST /rewrite. Every query
// path answers the query's core, so Core is the CQ that GenOGP rewrote
// into Pattern: the text without the atoms an endomorphism folds away.
type RewriteResponse struct {
	CondCount int    `json:"condCount"`
	Pattern   string `json:"pattern"`
	Core      string `json:"core"`
}

// ConsistencyResponse is the body of GET /consistency.
type ConsistencyResponse struct {
	Consistent bool     `json:"consistent"`
	Violations []string `json:"violations,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// StatsResponse is the body of GET /stats.
type StatsResponse struct {
	Stats    string `json:"stats"`
	Queries  uint64 `json:"queries"`
	Rewrites uint64 `json:"rewrites"`
	Errors   uint64 `json:"errors"`
	// Plan-cache counters: a hit means the request skipped the rewriter
	// (GenOGP or PerfectRef) and the candidate-space build entirely and
	// went straight to enumeration. PlanCacheByKind splits the counters
	// by query kind ("cq", "sparql", "ucq:<baseline>").
	PlanCacheHits   uint64                        `json:"planCacheHits"`
	PlanCacheMisses uint64                        `json:"planCacheMisses"`
	PlanCacheSize   int                           `json:"planCacheSize"`
	PlanCacheByKind map[string]PlanCacheKindStats `json:"planCacheByKind,omitempty"`
	// Live-data fields: zero/false on a read-only KB.
	Live        bool   `json:"live"`
	Epoch       uint64 `json:"epoch,omitempty"`
	OverlaySize int    `json:"overlaySize,omitempty"`
	Compactions uint64 `json:"compactions,omitempty"`
	Inserts     uint64 `json:"inserts,omitempty"`
	Deletes     uint64 `json:"deletes,omitempty"`
	// Durability fields: zero/false unless the KB runs with a data
	// directory (`ogpaserver -data-dir`).
	Durable             bool   `json:"durable,omitempty"`
	SnapshotBytes       int64  `json:"snapshotBytes,omitempty"`
	WALBytes            int64  `json:"walBytes,omitempty"`
	LastCheckpointEpoch uint64 `json:"lastCheckpointEpoch,omitempty"`
	CheckpointError     string `json:"checkpointError,omitempty"`
	// Standing-query counters: absent until the KB's first subscription
	// (POST /subscribe under `ogpaserver -subscribe`, or an embedder's
	// ogpa.KB.Subscribe).
	Incremental *ogpa.IncrementalStats `json:"incremental,omitempty"`
}

// CheckpointResponse is the body of a successful POST /checkpoint.
type CheckpointResponse struct {
	Epoch    uint64  `json:"epoch"`    // epoch the new snapshot captures
	WALBytes int64   `json:"walBytes"` // log size after truncation (header only)
	TookMs   float64 `json:"tookMs"`
}

// PlanCacheKindStats are one query kind's plan-cache counters.
type PlanCacheKindStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Size   int    `json:"size"`
}

// metrics counts requests served by one handler. Every field access goes
// through mu; the lint locksafety analyzer enforces that discipline.
type metrics struct {
	mu       sync.Mutex
	queries  uint64
	rewrites uint64
	errors   uint64
	inserts  uint64
	deletes  uint64
}

func (m *metrics) recordQuery() {
	m.mu.Lock()
	m.queries++
	m.mu.Unlock()
}

func (m *metrics) recordRewrite() {
	m.mu.Lock()
	m.rewrites++
	m.mu.Unlock()
}

func (m *metrics) recordError() {
	m.mu.Lock()
	m.errors++
	m.mu.Unlock()
}

func (m *metrics) recordMutation(del bool) {
	m.mu.Lock()
	if del {
		m.deletes++
	} else {
		m.inserts++
	}
	m.mu.Unlock()
}

func (m *metrics) snapshot() (queries, rewrites, errors, inserts, deletes uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queries, m.rewrites, m.errors, m.inserts, m.deletes
}

// Config tunes one handler.
type Config struct {
	// MaxWorkersPerQuery caps the matcher worker pool any single request
	// may use; requests asking for more (or for the default) are clamped.
	// 0 means no cap: requests get what they ask for, defaulting to
	// GOMAXPROCS. Under concurrent load a cap keeps one heavy query from
	// monopolizing every core.
	MaxWorkersPerQuery int

	// PlanCacheSize bounds the LRU cache of compiled query plans
	// (rewritten OGP + candidate space + condition BDD) shared across
	// requests. 0 means the default (128 plans); negative disables
	// caching.
	PlanCacheSize int

	// Subscriptions registers the standing-query endpoints (POST
	// /subscribe, GET /subscribe/{id}/poll, GET /subscribe/{id}/events,
	// DELETE /subscribe/{id}). Every subscription reads the KB's one
	// maintained datalog fixpoint, which the first POST /subscribe
	// starts; /query, /consistency and every other one-shot endpoint
	// keep running cold. Against a read-only KB the endpoints answer
	// 403, like the mutation endpoints.
	Subscriptions bool

	// SubscriptionMaxRows caps every subscription's answer-set size;
	// requests asking for more (or for no cap) are clamped. A breach
	// fails that subscription closed rather than truncating a delta.
	// 0 means uncapped.
	SubscriptionMaxRows int
}

// defaultPlanCacheSize is the plan-cache capacity when Config leaves
// PlanCacheSize at zero.
const defaultPlanCacheSize = 128

func (c Config) planCacheSize() int {
	switch {
	case c.PlanCacheSize < 0:
		return 0
	case c.PlanCacheSize == 0:
		return defaultPlanCacheSize
	default:
		return c.PlanCacheSize
	}
}

// workersFor resolves a request's worker count against the server cap.
func (c Config) workersFor(requested int) int {
	w := requested
	if w <= 0 {
		w = stdruntime.GOMAXPROCS(0)
	}
	if c.MaxWorkersPerQuery > 0 && w > c.MaxWorkersPerQuery {
		w = c.MaxWorkersPerQuery
	}
	return w
}

// Handler builds the HTTP handler for one knowledge base with the default
// configuration.
func Handler(kb *ogpa.KB) http.Handler { return HandlerWithConfig(kb, Config{}) }

// HandlerWithConfig builds the HTTP handler for one knowledge base.
//
// The KB's symbol table is frozen here: request handling only ever reads
// it (unknown query labels resolve through Lookup), so freezing makes the
// shared table race-free by construction and turns any accidental
// query-time Intern into a loud panic instead of a data race. On a live
// KB the table has been thawed (EnableLiveData) and Freeze is a no-op for
// writers: mutation batches keep interning through the table's
// mutex-guarded extension, which queries read lock-free up to their
// snapshot's vertices.
func HandlerWithConfig(kb *ogpa.KB, cfg Config) http.Handler {
	kb.Graph().Symbols.Freeze()
	m := &metrics{}
	cache := newLRU(cfg.planCacheSize()) // nil (inert) when caching is disabled
	fingerprint := kb.Fingerprint()      // constant per handler; part of every cache key
	// plan is the one plan lookup for every kind with a prepared form:
	// the cached plan, or a fresh Prepare on a miss.
	plan := func(kind, query string, opt ogpa.Options) (*ogpa.PreparedQuery, error) {
		// The epoch is in the key: a mutation bumps it, so every plan built
		// against the superseded snapshot misses from then on, and the
		// first put at the new epoch drops them. On a read-only KB the
		// epoch is constantly 0.
		epoch := kb.Epoch()
		key := ogpa.CacheKey(fingerprint, epoch, kind, query)
		if pq := cache.get(kind, key); pq != nil {
			return pq, nil
		}
		var pq *ogpa.PreparedQuery
		var err error
		switch baseline, isUCQ := strings.CutPrefix(kind, "ucq:"); {
		case kind == "sparql":
			pq, err = kb.PrepareSPARQL(query)
		case isUCQ:
			// The request timeout bounds PerfectRef; a rewriting that
			// fails caches nothing, one that completes is the same plan
			// whatever the timeout was.
			pq, err = kb.PrepareBaseline(ogpa.Baseline(baseline), query, opt.Timeout)
		default:
			pq, err = kb.Prepare(query)
		}
		if err != nil {
			return nil, err
		}
		cache.put(kind, key, epoch, pq)
		return pq, nil
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) {
		m.recordQuery()
		req, ok := decode[QueryRequest](w, r, m)
		if !ok {
			return
		}
		opt := ogpa.Options{
			MaxResults: req.MaxResults,
			Timeout:    time.Duration(req.TimeoutMs) * time.Millisecond,
			Workers:    cfg.workersFor(req.Workers),
			// A dropped connection cancels enumeration at the matcher's
			// next step-flush instead of burning cores on a dead request.
			Context: r.Context(),
		}
		method := "genogp+omatch"
		start := time.Now()
		var pq *ogpa.PreparedQuery
		var ans *ogpa.Answers // the answer of a baseline without a prepared form
		var err error
		switch {
		case req.SPARQL:
			method = "genogp+omatch (sparql)"
			pq, err = plan("sparql", req.Query, opt)
		case req.Baseline != "":
			method = req.Baseline
			switch b := ogpa.Baseline(req.Baseline); b {
			case ogpa.BaselineUCQ, ogpa.BaselineUCQOpt:
				// UCQ baselines have a Prepared form (PerfectRef + per-
				// disjunct engine plans), so their plans are cached too.
				pq, err = plan("ucq:"+req.Baseline, req.Query, opt)
			default:
				// Datalog/saturation (and unknown baselines, which error
				// inside) have no prepared form and bypass the cache.
				ans, err = kb.AnswerBaseline(b, req.Query, opt)
			}
		default:
			pq, err = plan("cq", req.Query, opt)
		}
		if err != nil {
			m.recordError()
			writeError(w, http.StatusBadRequest, err)
			return
		}
		// The body is written in one pass into a pooled buffer: prepared
		// plans render their rows straight from the packed answer tuples.
		buf := getBody()
		defer putBody(buf)
		resp := QueryResponse{Method: method}
		if pq != nil {
			*buf = appendQueryHead(*buf, pq.Vars())
			var st ogpa.MatchStats
			*buf, resp.Count, st, err = pq.AppendRows(*buf, opt, appendRow)
			if err != nil {
				m.recordError()
				writeError(w, http.StatusBadRequest, err)
				return
			}
			resp.Truncated = st.Truncated
		} else {
			*buf = appendQueryHead(*buf, ans.Vars)
			for _, row := range ans.Rows {
				*buf = appendRow(*buf, row)
			}
			// These baselines report no statistics, so their rows count as
			// cut by the rule the engine applies: MaxResults answers were
			// kept.
			resp.Count, resp.Truncated = ans.Len(), opt.MaxResults > 0 && ans.Len() >= opt.MaxResults
		}
		resp.TookMs = float64(time.Since(start).Microseconds()) / 1000
		*buf = appendQueryTail(*buf, &resp)
		writeBody(w, http.StatusOK, *buf)
	})

	mutate := func(w http.ResponseWriter, r *http.Request, del bool) {
		start := time.Now()
		body := http.MaxBytesReader(w, r.Body, maxMutationBytes)
		var n int
		var err error
		if del {
			n, err = kb.DeleteTriples(body)
		} else {
			n, err = kb.InsertTriples(body)
		}
		if err != nil {
			m.recordError()
			code := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				code, err = http.StatusRequestEntityTooLarge, fmt.Errorf("request body over %d bytes", maxMutationBytes)
			}
			writeError(w, code, err)
			return
		}
		m.recordMutation(del)
		writeJSON(w, MutationResponse{
			Applied:     n,
			Epoch:       kb.Epoch(),
			OverlaySize: kb.OverlaySize(),
			TookMs:      float64(time.Since(start).Microseconds()) / 1000,
		})
	}
	mux.HandleFunc("POST /insert", liveOnly(kb, m, func(w http.ResponseWriter, r *http.Request) { mutate(w, r, false) }))
	mux.HandleFunc("POST /delete", liveOnly(kb, m, func(w http.ResponseWriter, r *http.Request) { mutate(w, r, true) }))

	mux.HandleFunc("POST /checkpoint", func(w http.ResponseWriter, r *http.Request) {
		if !kb.Durable() {
			m.recordError()
			writeError(w, http.StatusForbidden,
				fmt.Errorf("knowledge base is not durable: start the server with -data-dir"))
			return
		}
		start := time.Now()
		epoch, err := kb.Checkpoint()
		if err != nil {
			m.recordError()
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, CheckpointResponse{
			Epoch:    epoch,
			WALBytes: kb.PersistenceStats().WALBytes,
			TookMs:   float64(time.Since(start).Microseconds()) / 1000,
		})
	})

	mux.HandleFunc("POST /rewrite", func(w http.ResponseWriter, r *http.Request) {
		m.recordRewrite()
		req, ok := decode[QueryRequest](w, r, m)
		if !ok {
			return
		}
		rewrite := kb.Rewrite
		if req.SPARQL {
			rewrite = kb.RewriteSPARQL
		}
		rw, err := rewrite(req.Query)
		if err != nil {
			m.recordError()
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, RewriteResponse{CondCount: rw.CondCount(), Pattern: rw.Explain(), Core: rw.Query.String()})
	})

	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		q, rw, e, ins, del := m.snapshot()
		hits, misses, size := cache.snapshot()
		ps := kb.PersistenceStats()
		resp := StatsResponse{
			Stats: kb.Stats(), Queries: q, Rewrites: rw, Errors: e,
			PlanCacheHits: hits, PlanCacheMisses: misses, PlanCacheSize: size,
			PlanCacheByKind:     cache.snapshotByKind(),
			Live:                kb.Live(),
			Epoch:               kb.Epoch(),
			OverlaySize:         kb.OverlaySize(),
			Compactions:         kb.Compactions(),
			Inserts:             ins,
			Deletes:             del,
			Durable:             ps.Durable,
			SnapshotBytes:       ps.SnapshotBytes,
			WALBytes:            ps.WALBytes,
			LastCheckpointEpoch: ps.LastCheckpointEpoch,
			CheckpointError:     ps.CheckpointErr,
		}
		if ist := kb.IncrementalStats(); ist.Enabled {
			resp.Incremental = &ist
		}
		writeJSON(w, resp)
	})

	if cfg.Subscriptions {
		registerSubscribeRoutes(mux, kb, cfg, m)
	}

	mux.HandleFunc("GET /consistency", consistencyHandler(kb.CheckConsistency, m))

	return mux
}

// consistencyHandler serves GET /consistency from check (the KB's
// CheckConsistency; a parameter so a test can make it fail).
func consistencyHandler(check func() ([]string, error), m *metrics) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		vs, err := check()
		if err != nil {
			m.recordError()
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, ConsistencyResponse{Consistent: len(vs) == 0, Violations: vs})
	}
}

// liveOnly guards an endpoint that needs live data (the mutation and
// standing-query endpoints): on a read-only KB it answers 403.
func liveOnly(kb *ogpa.KB, m *metrics, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !kb.Live() {
			m.recordError()
			writeError(w, http.StatusForbidden,
				fmt.Errorf("knowledge base is read-only: start the server with live data enabled"))
			return
		}
		h(w, r)
	}
}

// maxBodyBytes bounds a JSON request body; a larger one gets 413.
const maxBodyBytes = 1 << 20

// maxMutationBytes bounds a POST /insert or /delete N-Triples body; a
// larger one gets 413 and commits nothing, as a batch parses whole
// before it commits. It is below rdf.ParseTriples' 16 MiB line limit, so
// the cap, not the line limit, is what any body over it runs into.
const maxMutationBytes = 8 << 20

// request is a JSON request body that names a query.
type request interface{ query() string }

func (q QueryRequest) query() string     { return q.Query }
func (q SubscribeRequest) query() string { return q.Query }

// decode reads r's JSON body into a T: at most maxBodyBytes of it, no
// unknown field, and a query. On failure it counts the error, writes the
// response and reports false.
func decode[T request](w http.ResponseWriter, r *http.Request, m *metrics) (T, bool) {
	var req T
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	code, err := http.StatusBadRequest, dec.Decode(&req)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		code, err = http.StatusRequestEntityTooLarge, fmt.Errorf("request body over %d bytes", maxBodyBytes)
	case err != nil:
		err = fmt.Errorf("bad request body: %w", err)
	case req.query() == "":
		err = errors.New("missing query")
	default:
		return req, true
	}
	m.recordError()
	writeError(w, code, err)
	return req, false
}

// writeBody sends a complete response body with its length.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	//lint:ignore droppederr best-effort response write; the client may be gone and there is no channel left to report on
	_, _ = w.Write(body)
}

func writeJSON(w http.ResponseWriter, v any) { writeStatus(w, http.StatusOK, v) }

func writeError(w http.ResponseWriter, code int, err error) {
	writeStatus(w, code, errorResponse{Error: err.Error()})
}

// writeStatus sends v's encoding, as json.Encoder writes it, with code.
// A value that cannot be encoded is a server bug: it answers 500.
func writeStatus(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("encoding the response: %w", err))
		return
	}
	writeBody(w, code, append(body, '\n'))
}
