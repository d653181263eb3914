package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ogpa"
)

// SubscribeRequest is the body of POST /subscribe.
type SubscribeRequest struct {
	Query string `json:"query"`
	// MaxRows caps this subscription's answer-set size; exceeding it
	// fails the subscription closed. 0 takes the server's configured
	// cap (Config.SubscriptionMaxRows), which also clamps larger asks.
	MaxRows int `json:"maxRows,omitempty"`
}

// SubscribeResponse is the body of a successful POST /subscribe.
type SubscribeResponse struct {
	ID    uint64   `json:"id"`
	Query string   `json:"query"`
	Vars  []string `json:"vars"`
}

// UnsubscribeResponse is the body of a successful DELETE /subscribe/{id}.
type UnsubscribeResponse struct {
	ID     uint64 `json:"id"`
	Closed bool   `json:"closed"`
}

// defaultPollTimeout bounds GET /subscribe/{id}/poll when the request
// does not pass timeoutMs: the long poll returns 204 after this long
// with no delta so intermediaries never see an unbounded request.
const defaultPollTimeout = 30 * time.Second

// registerSubscribeRoutes wires the standing-query endpoints:
//
//	POST   /subscribe              register a standing query
//	GET    /subscribe/{id}/poll    long-poll the next answer delta
//	GET    /subscribe/{id}/events  stream answer deltas as SSE
//	DELETE /subscribe/{id}         unsubscribe
//
// All four answer 403 on a read-only KB, like the mutation endpoints;
// the first POST /subscribe starts the KB's incremental maintenance.
func registerSubscribeRoutes(mux *http.ServeMux, kb *ogpa.KB, cfg Config, m *metrics) {
	// resolve looks the path's subscription up; a miss is 404 (the id
	// never existed, was unsubscribed, or failed closed and was culled).
	resolve := func(w http.ResponseWriter, r *http.Request) (*ogpa.Subscription, bool) {
		id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
		if err != nil {
			m.recordError()
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad subscription id: %w", err))
			return nil, false
		}
		s, ok := kb.SubscriptionByID(id)
		if !ok {
			m.recordError()
			writeError(w, http.StatusNotFound, fmt.Errorf("no subscription %d", id))
			return nil, false
		}
		return s, true
	}

	mux.HandleFunc("POST /subscribe", liveOnly(kb, m, func(w http.ResponseWriter, r *http.Request) {
		req, ok := decode[SubscribeRequest](w, r, m)
		if !ok {
			return
		}
		maxRows := req.MaxRows
		if cfg.SubscriptionMaxRows > 0 && (maxRows == 0 || maxRows > cfg.SubscriptionMaxRows) {
			maxRows = cfg.SubscriptionMaxRows
		}
		sub, err := kb.Subscribe(req.Query, ogpa.SubscribeOptions{MaxRows: maxRows})
		if err != nil {
			m.recordError()
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, SubscribeResponse{ID: sub.ID(), Query: sub.Query(), Vars: sub.Vars()})
	}))

	mux.HandleFunc("GET /subscribe/{id}/poll", liveOnly(kb, m, func(w http.ResponseWriter, r *http.Request) {
		sub, ok := resolve(w, r)
		if !ok {
			return
		}
		timeout := defaultPollTimeout
		if ms := r.URL.Query().Get("timeoutMs"); ms != "" {
			n, err := strconv.Atoi(ms)
			if err != nil || n <= 0 {
				m.recordError()
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad timeoutMs %q", ms))
				return
			}
			timeout = time.Duration(n) * time.Millisecond
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		d, err := sub.Next(ctx)
		switch {
		case err == nil:
			writeJSON(w, d)
		case errors.Is(err, ogpa.ErrSubscriptionClosed):
			m.recordError()
			writeError(w, http.StatusGone, err)
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			// No delta within the window (or the client went away):
			// an empty long poll, not an error.
			w.WriteHeader(http.StatusNoContent)
		default:
			// Sticky evaluation failure: the subscription has failed
			// closed; surface the cause once per poll.
			m.recordError()
			writeError(w, http.StatusInternalServerError, err)
		}
	}))

	mux.HandleFunc("GET /subscribe/{id}/events", liveOnly(kb, m, func(w http.ResponseWriter, r *http.Request) {
		sub, ok := resolve(w, r)
		if !ok {
			return
		}
		fl, canFlush := w.(http.Flusher)
		if !canFlush {
			m.recordError()
			writeError(w, http.StatusInternalServerError, fmt.Errorf("response writer cannot stream"))
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.WriteHeader(http.StatusOK)
		fl.Flush()
		for {
			d, err := sub.Next(r.Context())
			if err != nil {
				if errors.Is(err, ogpa.ErrSubscriptionClosed) {
					//lint:ignore droppederr best-effort stream write; the client may be gone and there is no channel left to report on
					_, _ = fmt.Fprint(w, "event: closed\ndata: {}\n\n")
					fl.Flush()
				} else if r.Context().Err() == nil {
					m.recordError()
					//lint:ignore droppederr best-effort stream write; the client may be gone and there is no channel left to report on
					_, _ = fmt.Fprintf(w, "event: error\ndata: %s\n\n", jsonString(err.Error()))
					fl.Flush()
				}
				return
			}
			body, err := json.Marshal(d)
			if err != nil {
				m.recordError()
				return
			}
			//lint:ignore droppederr best-effort stream write; a failed write surfaces as the request context closing
			_, _ = fmt.Fprintf(w, "event: delta\ndata: %s\n\n", body)
			fl.Flush()
		}
	}))

	mux.HandleFunc("DELETE /subscribe/{id}", liveOnly(kb, m, func(w http.ResponseWriter, r *http.Request) {
		sub, ok := resolve(w, r)
		if !ok {
			return
		}
		sub.Close()
		writeJSON(w, UnsubscribeResponse{ID: sub.ID(), Closed: true})
	}))
}

// jsonString renders one string as a JSON literal for SSE data lines.
func jsonString(s string) []byte {
	b, err := json.Marshal(s)
	if err != nil {
		return []byte(`""`)
	}
	return b
}
