//go:build !race

// The race detector changes allocation counts, so these guards build only
// without it; run them with go test -run Allocs ./internal/server.

package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ogpa"
	"ogpa/internal/match"
)

// discardWriter is a ResponseWriter that keeps only the body's length, so
// the guard counts the handler's allocations, not a recorder's.
type discardWriter struct {
	h    http.Header
	n    int
	code int
}

func (d *discardWriter) Header() http.Header { return d.h }

func (d *discardWriter) Write(b []byte) (int, error) {
	d.n += len(b)
	return len(b), nil
}

func (d *discardWriter) WriteHeader(code int) { d.code = code }

// TestQueryResponseAllocs: rendering and encoding a /query response
// allocates no more objects for more answers. The handler's allocations
// at 1,000 and 4,000 answers, less those of the engine run that produced
// the answers (whose stores grow by doubling), differ by at most 2.
func TestQueryResponseAllocs(t *testing.T) {
	const query = "q(x) :- A(x)"
	response := func(n int) float64 {
		var data strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&data, "A(http://www.Department%d.University0.edu/Student%d)\n", i%15, i)
		}
		kb, err := ogpa.NewKB(strings.NewReader(""), strings.NewReader(data.String()))
		if err != nil {
			t.Fatal(err)
		}
		h := Handler(kb)
		w := &discardWriter{h: http.Header{}}
		serve := func() {
			w.n = 0
			req := httptest.NewRequest("POST", "/query", strings.NewReader(`{"query":"`+query+`","workers":1}`))
			h.ServeHTTP(w, req)
			if w.code != http.StatusOK || w.n < 40*n {
				t.Fatalf("%d answers: status %d, %d bytes", n, w.code, w.n)
			}
		}
		serve() // fills the plan cache
		handler := testing.AllocsPerRun(50, serve)

		rw, err := kb.Rewrite(query)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := match.Prepare(rw.Pattern, kb.Graph(), match.Options{})
		if err != nil {
			t.Fatal(err)
		}
		run := testing.AllocsPerRun(50, func() {
			if res, _, err := pl.Run(match.Options{Workers: 1}); err != nil || res.Len() != n {
				t.Fatalf("run: %v answers, err %v", res.Len(), err)
			}
		})
		return handler - run
	}
	small, large := response(1000), response(4000)
	if large-small > 2 {
		t.Fatalf("a /query response allocates %v objects beyond its run at 1,000 answers, %v at 4,000", small, large)
	}
	t.Logf("allocations beyond the run: %v at 1,000 answers, %v at 4,000", small, large)
}
