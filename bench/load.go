package main

// The load: closed-loop clients (application back-ends that wait for each
// reply), one connection each, at most one per core. Workers run straight
// through warm-up and the measured window; what belongs to the window is
// decided afterwards from each sample's completion time.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"ogpa/internal/server"
)

type opKind uint8

const (
	opQuery   opKind = iota // POST /query
	opWrite                 // POST /insert or /delete
	opVisible               // mutation sent -> its delta received on the subscription
)

// sample is one completed operation as the client saw it.
type sample struct {
	kind   opKind
	op     int // position in the client's script
	start  time.Time
	end    time.Time
	tookMs float64 // the response's own tookMs
	bytes  int
	ok     bool
	// overlay is the overlay size a mutation's acknowledgement reported.
	overlay int
}

func (s sample) ms() float64 { return float64(s.end.Sub(s.start)) / 1e6 }

// recorder collects one client's samples, its first few failures and, in
// the traced slices of a traced pass, its spans.
type recorder struct {
	samples  []sample
	failures []string
	// traced reports whether an operation starting now records spans.
	traced func(time.Time) bool
	tr     *tracer
}

// span records a finished request as http.roundtrip with the server's own
// tookMs as its child, centred: the client cannot see where inside the
// round trip the handler ran.
func (r *recorder) span(s sample) {
	req := r.tr.add("http.roundtrip", 0, int64(s.op), s.start, s.end, map[string]float64{"resp_bytes": float64(s.bytes)})
	r.tr.spans[len(r.tr.spans)-1].Req = req
	took := time.Duration(s.tookMs * 1e6)
	lead := (s.end.Sub(s.start) - took) / 2
	r.tr.add("server.took", req, req, s.start.Add(lead), s.start.Add(lead+took), nil)
}

func (r *recorder) fail(format string, args ...any) {
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// worker is one client's script; it returns when ctx is done.
type worker func(ctx context.Context, cl *client, rec *recorder)

// phases of one drive.
type schedule struct {
	warmup, window time.Duration
	// slice > 0 alternates untraced and traced slices through the window
	// (the traced pass); 0 leaves tracing off.
	slice time.Duration
	// atWindow, when set, runs as the measured window opens.
	atWindow func()
}

type recording struct {
	t0, t1    time.Time // the measured window
	slice     time.Duration
	perClient [][]sample
	spans     []span
	failures  []string
	attempted int
	failed    int
	// maxOverlay is the largest overlay any acknowledged mutation reported.
	maxOverlay int
}

func (r *recording) traced(t time.Time) bool {
	return r.slice > 0 && t.After(r.t0) && int(t.Sub(r.t0)/r.slice)%2 == 1
}

// drive runs the workers against base for warm-up plus window.
func drive(base string, workers []worker, sch schedule) *recording {
	start := time.Now()
	rec := &recording{t0: start.Add(sch.warmup), slice: sch.slice}
	rec.t1 = rec.t0.Add(sch.window)
	ctx, cancel := context.WithDeadline(context.Background(), rec.t1)
	defer cancel()
	recs := make([]*recorder, len(workers))
	var wg sync.WaitGroup
	if sch.atWindow != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Until(rec.t0))
			sch.atWindow()
		}()
	}
	for i, w := range workers {
		recs[i] = &recorder{traced: rec.traced, tr: newTracer(start, i+1)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(base)
			defer cl.close()
			w(ctx, cl, recs[i])
		}()
	}
	wg.Wait()
	for _, r := range recs {
		rec.perClient = append(rec.perClient, r.samples)
		rec.failures = append(rec.failures, r.failures...)
		rec.spans = append(rec.spans, r.tr.spans...)
		for _, s := range r.samples {
			rec.attempted++
			rec.maxOverlay = max(rec.maxOverlay, s.overlay)
			if !s.ok {
				rec.failed++
			}
		}
	}
	return rec
}

// inWindow returns the latencies (ms) of the successful samples of one
// kind that completed inside the window, optionally only the traced or
// only the untraced ones.
func (r *recording) inWindow(kind opKind, keep func(sample) bool) []float64 {
	var out []float64
	for _, ss := range r.perClient {
		for _, s := range ss {
			if s.kind == kind && s.ok && !s.end.Before(r.t0) && !s.end.After(r.t1) && (keep == nil || keep(s)) {
				out = append(out, s.ms())
			}
		}
	}
	return out
}

// opsPerSecond counts completed requests (queries and writes; a visibility
// wait is not a request of its own).
func (r *recording) opsPerSecond(keep func(sample) bool) float64 {
	n := len(r.inWindow(opQuery, keep)) + len(r.inWindow(opWrite, keep))
	return float64(n) / r.t1.Sub(r.t0).Seconds()
}

// percentile is nearest-rank on a copy; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// Response checks. The server encodes a QueryResponse as
// {"vars":..,"rows":..,"count":N,"tookMs":T,"method":"M"}; everything
// before tookMs is a function of the answer alone.

// checkShape accepts a complete, untruncated answer from the given
// pipeline, whatever its rows (the in-window check on the workloads whose
// data changes under the queries), and returns the bytes before tookMs and
// the tookMs value.
func checkShape(status int, resp []byte, method string) (answer []byte, tookMs float64, err error) {
	if status != http.StatusOK {
		return nil, 0, fmt.Errorf("status %d: %.200s", status, resp)
	}
	i := bytes.LastIndex(resp, tookKey)
	if i < 0 {
		return nil, 0, fmt.Errorf("no tookMs in response: %.200s", resp)
	}
	rest := resp[i+len(tookKey):]
	j := bytes.IndexByte(rest, ',')
	if j < 0 {
		return nil, 0, fmt.Errorf("nothing after tookMs: %.200s", rest)
	}
	if tookMs, err = strconv.ParseFloat(string(rest[:j]), 64); err != nil {
		return nil, 0, err
	}
	if want := `,"method":"` + method + `"}` + "\n"; string(rest[j:]) != want {
		// A truncated or rewritten answer carries fields after method.
		return nil, 0, fmt.Errorf("response ends %.120q, want %q", rest[j:], want)
	}
	return resp[:i], tookMs, nil
}

// checkAnswer verifies a /query response against the oracle's answer.
func checkAnswer(status int, resp []byte, method string, exp *expected) (tookMs float64, err error) {
	answer, took, err := checkShape(status, resp, method)
	if err != nil {
		return 0, err
	}
	if len(answer) == exp.size && fnv64(answer) == exp.hash {
		return took, nil
	}
	// Not byte-identical to the canonical encoding: decode and compare as
	// a set before calling it wrong.
	var qr server.QueryResponse
	if err := json.Unmarshal(resp, &qr); err != nil {
		return 0, err
	}
	if qr.Count != exp.rows || len(qr.Rows) != exp.rows || rowSetHash(qr.Rows) != exp.setHash {
		return 0, fmt.Errorf("wrong answer: %d rows (count %d), oracle has %d", len(qr.Rows), qr.Count, exp.rows)
	}
	return took, nil
}

// runQuery is one timed POST /query with its check.
func runQuery(ctx context.Context, cl *client, rec *recorder, op int, body []byte, check func(int, []byte) (float64, error)) {
	s := sample{kind: opQuery, op: op, start: time.Now()}
	traced := rec.traced(s.start)
	status, resp, err := cl.do(context.WithoutCancel(ctx), http.MethodPost, "/query", body)
	s.end = time.Now()
	s.bytes = len(resp)
	if err == nil {
		s.tookMs, err = check(status, resp)
	}
	if err != nil {
		rec.fail("query #%d %s: %v", op, body, err)
	}
	s.ok = err == nil
	rec.samples = append(rec.samples, s)
	if traced && s.ok {
		rec.span(s)
	}
}

// runMutation is one timed POST /insert or /delete; it returns the epoch
// the server acknowledged.
func runMutation(ctx context.Context, cl *client, rec *recorder, op int, del bool, body []byte) (uint64, bool) {
	path := "/insert"
	if del {
		path = "/delete"
	}
	s := sample{kind: opWrite, op: op, start: time.Now()}
	traced := rec.traced(s.start)
	status, resp, err := cl.do(context.WithoutCancel(ctx), http.MethodPost, path, body)
	s.end = time.Now()
	s.bytes = len(resp)
	var mr server.MutationResponse
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", status, resp)
	}
	if err == nil {
		err = json.Unmarshal(resp, &mr)
	}
	if err == nil && mr.Applied != bytes.Count(body, []byte("\n")) {
		err = fmt.Errorf("applied %d triples of %d", mr.Applied, bytes.Count(body, []byte("\n")))
	}
	if err != nil {
		rec.fail("%s #%d: %v", path, op, err)
	}
	s.tookMs, s.overlay = mr.TookMs, mr.OverlaySize
	s.ok = err == nil
	rec.samples = append(rec.samples, s)
	if traced && s.ok {
		rec.span(s)
	}
	return mr.Epoch, s.ok
}
