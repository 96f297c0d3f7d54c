// The farm client: what `virec-experiments -farm URL` and
// `virec-difftest -farm URL` speak. Submission honors the server's
// backpressure — a 429 backs off and retries rather than failing the
// sweep — and WaitResult polls status until the job reaches a terminal
// state.
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
	// PollInterval spaces status polls in WaitResult (default 250ms).
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

func (c *Client) pollInterval() time.Duration {
	if c.PollInterval > 0 {
		return c.PollInterval
	}
	return 250 * time.Millisecond
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
			var job Job
			err := json.NewDecoder(resp.Body).Decode(&job)
			resp.Body.Close()
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
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/api/v1/jobs/%d", c.Base, id), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, fmt.Errorf("farm: status: %w", err)
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

// Result fetches a done job's result bytes.
func (c *Client) Result(ctx context.Context, id uint64) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/api/v1/jobs/%d/result", c.Base, id), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, fmt.Errorf("farm: result: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	return io.ReadAll(resp.Body)
}

// WaitResult polls until the job is terminal, then returns its result
// bytes (or the job's failure as an error).
func (c *Client) WaitResult(ctx context.Context, id uint64) ([]byte, *Job, error) {
	for {
		job, err := c.Status(ctx, id)
		if err != nil {
			return nil, nil, err
		}
		switch {
		case job.State == StateDone:
			out, err := c.Result(ctx, id)
			return out, job, err
		case job.State.Terminal():
			return nil, job, fmt.Errorf("farm: job %d %s after %d attempts: %s",
				id, job.State, job.Attempts, job.Error)
		}
		select {
		case <-ctx.Done():
			return nil, job, ctx.Err()
		case <-time.After(c.pollInterval()):
		}
	}
}

// JobEvents fetches a job's lifecycle event history.
func (c *Client) JobEvents(ctx context.Context, id uint64) (traceID string, events []JobEvent, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/api/v1/jobs/%d/events", c.Base, id), nil)
	if err != nil {
		return "", nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return "", nil, fmt.Errorf("farm: events: %w", err)
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
