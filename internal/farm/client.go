// The farm client: what `virec-experiments -farm URL` and
// `virec-difftest -farm URL` speak. Submission honors the server's
// backpressure — a 429 backs off and retries rather than failing the
// sweep. WaitResult is one request: the server holds GET .../result
// until the job ends and answers with the job in its Farm-Job header, so
// nothing polls status. Result bytes are read into a buffer sized from
// Content-Length.
package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Client talks to a virec-farm server.
type Client struct {
	// Base is the server root, e.g. "http://localhost:7741".
	Base string
	// HTTP is the underlying client (http.DefaultClient when nil).
	HTTP *http.Client
	// PollInterval is unused: WaitResult sends one request and never
	// polls. cmd/virec-bench still sets it, so it goes with the next
	// change to the benchmark (ROADMAP item 8).
	PollInterval time.Duration
	// SubmitBackoff spaces retries after a 429 (default 500ms); a
	// rejected submission retries until ctx expires.
	SubmitBackoff time.Duration
}

// NewClient returns a client for the given base URL.
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) submitBackoff() time.Duration {
	if c.SubmitBackoff > 0 {
		return c.SubmitBackoff
	}
	return 500 * time.Millisecond
}

// Submit posts a job spec, retrying on 429 backpressure until admitted
// or ctx ends. The returned Job may already be done (cache hit).
func (c *Client) Submit(ctx context.Context, spec *Spec) (*Job, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			c.Base+"/api/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.http().Do(req)
		if err != nil {
			return nil, fmt.Errorf("farm: submit: %w", err)
		}
		switch resp.StatusCode {
		case http.StatusOK:
			out, err := readBody(resp)
			resp.Body.Close()
			var job Job
			if err == nil {
				err = json.Unmarshal(out, &job)
			}
			if err != nil {
				return nil, fmt.Errorf("farm: submit: %w", err)
			}
			return &job, nil
		case http.StatusTooManyRequests:
			resp.Body.Close()
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("farm: submit: %w after backpressure", ctx.Err())
			case <-time.After(c.submitBackoff()):
			}
			continue
		default:
			defer resp.Body.Close()
			return nil, decodeError(resp)
		}
	}
}

// Status fetches a job's current state.
func (c *Client) Status(ctx context.Context, id uint64) (*Job, error) {
	resp, err := c.get(ctx, "status", fmt.Sprintf("/api/v1/jobs/%d", id))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		return nil, fmt.Errorf("farm: status: %w", err)
	}
	return &job, nil
}

// WaitResult waits for the job to end and returns its result bytes and
// the job, or the job's failure as an error. It sends one request, which
// the server holds until the job ends. If the farm stops first, the
// server answers 202 and WaitResult returns the job as it stands with
// ErrStopped.
func (c *Client) WaitResult(ctx context.Context, id uint64) ([]byte, *Job, error) {
	resp, err := c.get(ctx, "result", fmt.Sprintf("/api/v1/jobs/%d/result", id))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	meta := resp.Header.Get("Farm-Job")
	switch {
	case meta == "" && resp.StatusCode == http.StatusOK:
		return nil, nil, fmt.Errorf("farm: result: %s without a Farm-Job header", resp.Status)
	case meta == "":
		return nil, nil, decodeError(resp)
	}
	var job Job
	if err := json.Unmarshal([]byte(meta), &job); err != nil {
		return nil, nil, fmt.Errorf("farm: result: bad Farm-Job header: %w", err)
	}
	switch resp.StatusCode {
	case http.StatusOK:
		out, err := readBody(resp)
		return out, &job, err
	case http.StatusAccepted:
		return nil, &job, ErrStopped
	}
	return nil, &job, fmt.Errorf("farm: job %d %s after %d attempts: %s",
		job.ID, job.State, job.Attempts, job.Error)
}

// get sends GET Base+path; what names the call in a transport error.
func (c *Client) get(ctx context.Context, what, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, fmt.Errorf("farm: %s: %w", what, err)
	}
	return resp, nil
}

// maxSizedRead caps the buffer a Content-Length header may size, so a
// bogus header cannot force a huge allocation. A longer body still
// reads, growing as it goes.
const maxSizedRead = 16 << 20

// readBody reads a response body into a buffer of its Content-Length.
func readBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 || n > maxSizedRead {
		return io.ReadAll(resp.Body)
	}
	out := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, out); err != nil {
		return nil, err
	}
	return out, nil
}

// JobEvents fetches a job's lifecycle event history.
func (c *Client) JobEvents(ctx context.Context, id uint64) (traceID string, events []JobEvent, err error) {
	resp, err := c.get(ctx, "events", fmt.Sprintf("/api/v1/jobs/%d/events", id))
	if err != nil {
		return "", nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", nil, decodeError(resp)
	}
	var doc struct {
		TraceID string     `json:"trace_id"`
		Events  []JobEvent `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return "", nil, fmt.Errorf("farm: events: %w", err)
	}
	return doc.TraceID, doc.Events, nil
}

// decodeError turns a non-200 response into a useful error.
func decodeError(resp *http.Response) error {
	var doc struct {
		Error string `json:"error"`
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if json.Unmarshal(body, &doc) == nil && doc.Error != "" {
		return fmt.Errorf("farm: server %s: %s", resp.Status, doc.Error)
	}
	return fmt.Errorf("farm: server %s: %s", resp.Status, bytes.TrimSpace(body))
}
