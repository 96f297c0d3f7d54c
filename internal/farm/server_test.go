package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// testServer wires a farm behind httptest and returns a fast-polling
// client for it.
func testServer(t *testing.T, opt Options) (*Farm, *Client) {
	t.Helper()
	f := openFarm(t, opt)
	srv := httptest.NewServer(NewServer(f))
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL)
	c.PollInterval = 2 * time.Millisecond
	c.SubmitBackoff = 2 * time.Millisecond
	return f, c
}

func TestHTTPSubmitAndWaitMatchesInline(t *testing.T) {
	_, client := testServer(t, testOptions(t))
	ctx := context.Background()

	spec := testSpec(0xe0)
	want, err := Execute(ctx, spec)
	if err != nil {
		t.Fatalf("inline Execute: %v", err)
	}

	job, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	out, final, err := client.WaitResult(ctx, job.ID)
	if err != nil {
		t.Fatalf("WaitResult: %v", err)
	}
	if final.State != StateDone {
		t.Fatalf("state = %s, want done", final.State)
	}
	if !bytes.Equal(out, want) {
		t.Fatalf("HTTP result differs from inline (%d vs %d bytes)", len(out), len(want))
	}

	// Resubmission over HTTP coalesces onto the done job and serves the
	// identical bytes again.
	again, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("re-Submit: %v", err)
	}
	if again.ID != job.ID {
		t.Fatalf("resubmit made a new job %d, want dedup onto %d", again.ID, job.ID)
	}
	out2, _, err := client.WaitResult(ctx, again.ID)
	if err != nil {
		t.Fatalf("WaitResult(again): %v", err)
	}
	if !bytes.Equal(out2, want) {
		t.Fatal("resubmitted result bytes differ")
	}
}

func TestHTTPBadSpecRejected(t *testing.T) {
	_, client := testServer(t, testOptions(t))
	_, err := client.Submit(context.Background(), &Spec{Kind: "sim"})
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("bad spec: err = %v, want a 400", err)
	}
	_, err = client.Submit(context.Background(), &Spec{
		Kind: KindSim,
		Sim:  &SimSpec{CoreKind: "virec", Workload: "no-such-kernel"},
	})
	if err == nil || !strings.Contains(err.Error(), "no-such-kernel") {
		t.Fatalf("unknown workload: err = %v, want the workload named", err)
	}
}

func TestHTTPUnknownJob404(t *testing.T) {
	_, client := testServer(t, testOptions(t))
	if _, err := client.Status(context.Background(), 999); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown job: err = %v, want a 404", err)
	}
}

func TestHTTPBackpressure429(t *testing.T) {
	opt := testOptions(t)
	opt.Workers = 1
	opt.QueueCap = 1
	gate := make(chan struct{})
	opt.ExecWrap = func(job *Job, attempt int, next func() ([]byte, error)) ([]byte, error) {
		<-gate
		return next()
	}
	f, client := testServer(t, opt)

	first, err := client.Submit(context.Background(), testSpec(0xe1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	// The raw protocol: a full queue answers 429 with Retry-After.
	body, _ := json.Marshal(testSpec(0xe2))
	resp, err := http.Post(client.Base+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("raw POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// The client's behavior: Submit keeps retrying through the 429s and
	// is admitted once capacity frees up.
	admitted := make(chan error, 1)
	go func() {
		_, err := client.Submit(context.Background(), testSpec(0xe2))
		admitted <- err
	}()
	close(gate)
	if err := <-admitted; err != nil {
		t.Fatalf("Submit through backpressure: %v", err)
	}
	waitDone(t, f, first.ID)
}

func TestHTTPResultLifecycle(t *testing.T) {
	opt := testOptions(t)
	opt.Workers = 1
	gate := make(chan struct{})
	opt.ExecWrap = func(job *Job, attempt int, next func() ([]byte, error)) ([]byte, error) {
		<-gate
		return next()
	}
	f, client := testServer(t, opt)
	job, err := client.Submit(context.Background(), testSpec(0xe3))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	// Result before completion: 202, not an error body masquerading as one.
	resp, err := http.Get(fmt.Sprintf("%s/api/v1/jobs/%d/result", client.Base, job.ID))
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("in-progress result status = %d, want 202", resp.StatusCode)
	}
	close(gate)
	waitDone(t, f, job.ID)
	out, err := client.Result(context.Background(), job.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if len(out) == 0 {
		t.Fatal("empty result")
	}
}

// TestHTTPWaitResultReportsQuarantine: a job that ends in a terminal
// failure comes back from WaitResult as an error naming its state,
// together with the job, and its raw result endpoint answers 500.
func TestHTTPWaitResultReportsQuarantine(t *testing.T) {
	opt := testOptions(t)
	opt.ExecWrap = func(job *Job, attempt int, next func() ([]byte, error)) ([]byte, error) {
		panic("deterministic bug: injected over HTTP")
	}
	_, client := testServer(t, opt)
	ctx := context.Background()
	job, err := client.Submit(ctx, testSpec(0xe6))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	out, final, err := client.WaitResult(ctx, job.ID)
	if err == nil || !strings.Contains(err.Error(), string(StateQuarantined)) {
		t.Fatalf("WaitResult err = %v, want one naming %s", err, StateQuarantined)
	}
	if out != nil || final == nil || final.State != StateQuarantined {
		t.Fatalf("WaitResult = %d bytes, job %+v; want no bytes and the quarantined job", len(out), final)
	}

	resp, err := http.Get(fmt.Sprintf("%s/api/v1/jobs/%d/result", client.Base, job.ID))
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("quarantined result status = %d, want 500", resp.StatusCode)
	}
}

// TestHTTPMetricsAndHealth checks liveness; the metrics are read from
// the stream's head (TestSSEStreamFoldsToPullSnapshot).
func TestHTTPMetricsAndHealth(t *testing.T) {
	_, client := testServer(t, testOptions(t))
	resp, err := http.Get(client.Base + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
}

func TestHTTPDraining503(t *testing.T) {
	f, client := testServer(t, testOptions(t))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := f.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	_, err := client.Submit(context.Background(), testSpec(0xe5))
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("submit while draining: err = %v, want a 503", err)
	}
}
