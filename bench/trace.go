package main

// Spans are recorded from the benchmark's side of each layer boundary (the
// program under test carries no timers of its own yet), kept in memory and
// written out when the workload ends.

import (
	"bufio"
	"encoding/json"
	"errors"
	"os"
	"runtime"
	"time"
)

// span is one timed interval. Spans of one request share Req; Parent names
// the span that caused this one (0 for a request's root). A span whose
// children were timed in separate calls (Separate) still nests by Parent:
// its self time is its duration minus its children's durations.
type span struct {
	ID      int64              `json:"id"`
	Parent  int64              `json:"parent,omitempty"`
	Req     int64              `json:"req"`
	Name    string             `json:"name"`
	StartNs int64              `json:"start_ns"`
	EndNs   int64              `json:"end_ns"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

func (s span) ms() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }

// tracer hands out span ids and keeps the spans of one goroutine.
type tracer struct {
	origin time.Time
	next   int64 // ids are next+1, next+2, ...; each tracer owns its own range
	spans  []span
}

// newTracer returns the tracer of goroutine n; ids of different tracers
// never collide.
func newTracer(origin time.Time, n int) *tracer {
	return &tracer{origin: origin, next: int64(n) << 40}
}

func (t *tracer) add(name string, parent, req int64, start, end time.Time, counts map[string]float64) int64 {
	t.next++
	t.spans = append(t.spans, span{
		ID: t.next, Parent: parent, Req: req, Name: name,
		StartNs: int64(start.Sub(t.origin)), EndNs: int64(end.Sub(t.origin)), Counts: counts,
	})
	return t.next
}

// timed records a span around f and returns its id and duration in ms.
func (t *tracer) timed(name string, parent, req int64, f func()) (int64, float64) {
	start := time.Now()
	f()
	end := time.Now()
	return t.add(name, parent, req, start, end, nil), float64(end.Sub(start)) / 1e6
}

// timedAlloc is timed plus the bytes the call allocated (single-goroutine
// replay only: the counter is process-wide). The two ReadMemStats calls
// sit outside the timed interval.
func (t *tracer) timedAlloc(name string, parent, req int64, f func()) (id int64, ms, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	f()
	end := time.Now()
	runtime.ReadMemStats(&after)
	bytes = float64(after.TotalAlloc - before.TotalAlloc)
	id = t.add(name, parent, req, start, end, map[string]float64{"alloc_bytes": bytes})
	return id, float64(end.Sub(start)) / 1e6, bytes
}

// writeTrace writes one span per line.
func writeTrace(path string, spans []span) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, f.Close()) }()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return w.Flush()
}
