// The HTTP face of the farm: a small JSON API with explicit
// backpressure. Admission failures map onto status codes — 429 for a
// full queue, 503 while draining — so clients can implement retry
// policies without parsing error prose.
//
//	POST /api/v1/jobs              submit a Spec     → 200 Job (202-like; includes cache hits)
//	GET  /api/v1/jobs/{id}         job status        → 200 Job | 404
//	GET  /api/v1/jobs/{id}/result  result bytes      → 200 | 202 still running | 404 | 500 failed
//	GET  /api/v1/jobs/{id}/events  lifecycle events  → 200 {trace_id, events}
//	GET  /api/v1/metrics/stream    SSE delta stream  → 200 text/event-stream (its head is the full snapshot)
//	GET  /healthz                  liveness          → 200 "ok"
package farm

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// ServerOptions tunes the HTTP layer.
type ServerOptions struct {
	// StreamInterval is the SSE sampling cadence (default 1s).
	StreamInterval time.Duration
}

// NewServer returns the HTTP handler serving f with default options.
func NewServer(f *Farm) http.Handler {
	return NewServerWith(f, ServerOptions{})
}

// NewServerWith returns the HTTP handler serving f.
func NewServerWith(f *Farm, so ServerOptions) http.Handler {
	mux := http.NewServeMux()
	hub := newMetricsHub(f, so.StreamInterval)
	mux.HandleFunc("POST /api/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec Spec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("farm: bad spec: %w", err))
			return
		}
		job, err := f.Submit(&spec)
		switch {
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrDraining):
			httpError(w, http.StatusServiceUnavailable, err)
		case err != nil:
			httpError(w, http.StatusBadRequest, err)
		default:
			writeJSON(w, http.StatusOK, job)
		}
	})
	mux.HandleFunc("GET /api/v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := lookupJob(f, w, r)
		if ok {
			writeJSON(w, http.StatusOK, job)
		}
	})
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		job, ok := lookupJob(f, w, r)
		if !ok {
			return
		}
		switch job.State {
		case StateDone:
			out, err := f.Result(job.ID)
			if err != nil {
				httpError(w, http.StatusInternalServerError, err)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			w.Write(out)
		case StateFailed, StateQuarantined:
			writeJSON(w, http.StatusInternalServerError, job)
		default:
			writeJSON(w, http.StatusAccepted, job) // not done yet: poll again
		}
	})
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		job, ok := lookupJob(f, w, r)
		if !ok {
			return
		}
		writeJSON(w, http.StatusOK, struct {
			ID      uint64     `json:"id"`
			TraceID string     `json:"trace_id"`
			State   JobState   `json:"state"`
			Events  []JobEvent `json:"events"`
		}{job.ID, job.TraceID, job.State, job.Events})
	})
	mux.HandleFunc("GET /api/v1/metrics/stream", func(w http.ResponseWriter, r *http.Request) {
		serveSSE(hub, w, r)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// serveSSE streams hub deltas as Server-Sent Events. Each event's id is
// the delta's sequence number; Last-Event-ID resumes after it.
func serveSSE(hub *metricsHub, w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("farm: streaming unsupported by connection"))
		return
	}
	lastSeen := int64(-1)
	if s := r.Header.Get("Last-Event-ID"); s != "" {
		if v, err := strconv.ParseUint(s, 10, 63); err == nil {
			lastSeen = int64(v)
		}
	}
	ch, backlog, unsubscribe := hub.subscribe(lastSeen)
	defer unsubscribe()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	emit := func(ev hubEvent) {
		fmt.Fprintf(w, "id: %d\ndata: %s\n\n", ev.seq, ev.data)
	}
	for _, ev := range backlog {
		emit(ev)
	}
	fl.Flush()
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return // hub shut down or declared us stalled; client reconnects
			}
			emit(ev)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// lookupJob parses {id} and fetches its status, writing the error
// response itself when the job cannot be served.
func lookupJob(f *Farm, w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("farm: bad job id %q", r.PathValue("id")))
		return nil, false
	}
	job, err := f.Status(id)
	if errors.Is(err, ErrNotFound) {
		httpError(w, http.StatusNotFound, err)
		return nil, false
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return nil, false
	}
	return job, true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
