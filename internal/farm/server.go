// The HTTP face of the farm: a small JSON API with explicit
// backpressure. Admission failures map onto status codes — 429 for a
// full queue, 503 while draining, 413 for a body over 1 MiB — so clients
// can implement retry policies without parsing error prose.
//
//	POST /api/v1/jobs              submit a Spec     → 200 Job (202-like; includes cache hits) | 400 | 413 | 429 | 503
//	GET  /api/v1/jobs/{id}         job status        → 200 Job | 404
//	GET  /api/v1/jobs/{id}/result  waits, then bytes → 200 | 500 failed | 202 farm stopped first | 404
//	GET  /api/v1/jobs/{id}/events  lifecycle events  → 200 {trace_id, events}
//	GET  /api/v1/metrics/stream    SSE snapshots     → 200 text/event-stream (each event is the whole snapshot)
//	GET  /healthz                  liveness          → 200 "ok"
//
// A /result request is held until the job is done or failed, so waiting
// for a result is one request. The wait ends early, with a 202, only when
// the farm stops (Drain or Kill). Every answer that names the job (200,
// 202, 500 failed) carries it in a Farm-Job header: the JSON that
// GET /api/v1/jobs/{id} serves, without its trailing newline. A 200's
// body is the job's cache entry, sent from its file with an explicit
// Content-Length; a 202's and a 500's is the job again.
package farm

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// maxSpecBytes bounds a submitted spec's body; a spec is under 2 KB.
const maxSpecBytes = 1 << 20

// ServerOptions tunes the HTTP layer.
type ServerOptions struct {
	// StreamInterval is how often an SSE connection re-reads the farm's
	// metrics (default 1s).
	StreamInterval time.Duration
}

// NewServer returns the HTTP handler serving f with default options.
func NewServer(f *Farm) http.Handler {
	return NewServerWith(f, ServerOptions{})
}

// NewServerWith returns the HTTP handler serving f.
func NewServerWith(f *Farm, so ServerOptions) http.Handler {
	mux := http.NewServeMux()
	if so.StreamInterval <= 0 {
		so.StreamInterval = time.Second
	}
	mux.HandleFunc("POST /api/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec Spec
		err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes)).Decode(&spec)
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			httpError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("farm: spec over %d bytes", tooBig.Limit))
			return
		case err != nil:
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
		id, ok := jobID(w, r)
		if !ok {
			return
		}
		job, err := f.WaitJob(r.Context(), id)
		switch {
		case errors.Is(err, ErrNotFound):
			httpError(w, http.StatusNotFound, err)
		case errors.Is(err, ErrStopped):
			writeJob(w, http.StatusAccepted, job) // a restarted farm recovers the job
		case err != nil:
			// The request ended first: its client has gone.
		case job.State == StateFailed:
			writeJob(w, http.StatusInternalServerError, job)
		default:
			entry, size, err := f.openResult(job)
			if err != nil {
				httpError(w, http.StatusInternalServerError, err)
				return
			}
			defer entry.Close()
			setJobHeader(w, job)
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
			w.WriteHeader(http.StatusOK)
			// The limit wraps the file in an io.LimitedReader, which has
			// no WriteTo, so the copy goes to the response's ReadFrom and
			// net/http sends the file with sendfile. A failed copy cannot
			// be reported: the 200 and its Content-Length are committed.
			io.CopyN(w, entry, size)
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
		serveSSE(f, so.StreamInterval, w, r)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// serveSSE streams the farm's metrics as Server-Sent Events. Every event
// is the whole telemetry.Snapshot: one on connect, then one per interval
// whenever its JSON differs from what this connection last sent. It
// returns when the farm drains or stops, or when the client goes away.
func serveSSE(f *Farm, interval time.Duration, w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("farm: streaming unsupported by connection"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	var last []byte
	for {
		data, err := json.Marshal(f.MetricsSnapshot())
		if err != nil {
			return
		}
		if !bytes.Equal(data, last) {
			fmt.Fprintf(w, "data: %s\n\n", data)
			fl.Flush()
			last = data
		}
		select {
		case <-tick.C:
		case <-f.stopCh:
			return
		case <-r.Context().Done():
			return
		}
	}
}

// jobID parses {id}, answering 400 itself when it is not a job id.
func jobID(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("farm: bad job id %q", r.PathValue("id")))
		return 0, false
	}
	return id, true
}

// lookupJob parses {id} and fetches its status, writing the error
// response itself when the job cannot be served.
func lookupJob(f *Farm, w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id, ok := jobID(w, r)
	if !ok {
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

// setJobHeader puts the job in the Farm-Job header, as the status
// endpoint serves it minus the trailing newline.
func setJobHeader(w http.ResponseWriter, job *Job) {
	var meta strings.Builder
	json.NewEncoder(&meta).Encode(job) // a Job always marshals
	w.Header().Set("Farm-Job", strings.TrimSuffix(meta.String(), "\n"))
}

// writeJob answers with the job in both the Farm-Job header and the body.
func writeJob(w http.ResponseWriter, code int, job *Job) {
	setJobHeader(w, job)
	writeJSON(w, code, job)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
