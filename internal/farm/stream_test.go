package farm

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/virec/virec/internal/telemetry"
)

// streamServer wires a farm with a fast-sampling hub behind httptest.
func streamServer(t *testing.T, opt Options) (*Farm, *Client) {
	t.Helper()
	f := openFarm(t, opt)
	srv := httptest.NewServer(NewServerWith(f, ServerOptions{StreamInterval: 2 * time.Millisecond}))
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL)
	c.PollInterval = 2 * time.Millisecond
	c.SubmitBackoff = 2 * time.Millisecond
	return f, c
}

// streamDeltas consumes the SSE metrics stream, invoking fn for every
// delta until the connection ends (server shutdown, subscriber overflow)
// or ctx is cancelled; it returns nil on a clean server-side close so
// the caller can reconnect. fromSeq >= 0 resumes after that sequence
// number via Last-Event-ID (the hub replays the gap when it still can,
// or re-heads the stream with a Reset delta). fn returning an error
// stops the stream and propagates it.
func (c *Client) streamDeltas(ctx context.Context, fromSeq int64, fn func(d *telemetry.Delta) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.Base+"/api/v1/metrics/stream", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	if fromSeq >= 0 {
		req.Header.Set("Last-Event-ID", fmt.Sprintf("%d", fromSeq))
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return fmt.Errorf("farm: stream: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue // id: lines and blank separators
		}
		var d telemetry.Delta
		if err := json.Unmarshal([]byte(line[len("data: "):]), &d); err != nil {
			return fmt.Errorf("farm: stream: bad delta: %w", err)
		}
		if err := fn(&d); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return fmt.Errorf("farm: stream: %w", err)
	}
	return nil
}

// TestSSEStreamFoldsToPullSnapshot: consume the live stream while jobs
// run; the folded stream must validate under the protocol rules and its
// counters must agree with a pull snapshot taken after quiescence.
func TestSSEStreamFoldsToPullSnapshot(t *testing.T) {
	f, client := streamServer(t, testOptions(t))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var fold telemetry.Fold
	deltas := 0
	headSeen := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		errCh <- client.streamDeltas(ctx, -1, func(d *telemetry.Delta) error {
			if deltas == 0 {
				close(headSeen)
			}
			deltas++
			return fold.Apply(d)
		})
	}()
	// Only submit once the subscriber holds its head, so the job churn
	// below is guaranteed to arrive as follow-up deltas.
	select {
	case <-headSeen:
	case err := <-errCh:
		t.Fatalf("stream ended before its head: %v", err)
	}

	for seed := uint64(0xf0); seed < 0xf3; seed++ {
		job, err := f.Submit(testSpec(seed))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		waitDone(t, f, job.ID)
	}
	// Let the hub observe the final state, then stop consuming.
	time.Sleep(30 * time.Millisecond)
	cancel()
	if err := <-errCh; err != nil && ctx.Err() == nil {
		t.Fatalf("streamDeltas: %v", err)
	}
	if deltas < 2 {
		t.Fatalf("stream produced %d deltas, want at least a head and one change", deltas)
	}
	if fold.Snap == nil {
		t.Fatal("fold is empty")
	}
	if got := fold.Snap.Counters["farm/completed"]; got != 3 {
		t.Fatalf("folded farm/completed = %d, want 3", got)
	}
	snap := f.MetricsSnapshot()
	if fold.Snap.Counters["farm/submitted"] != snap.Counters["farm/submitted"] {
		t.Fatalf("folded submitted %d != pulled %d",
			fold.Snap.Counters["farm/submitted"], snap.Counters["farm/submitted"])
	}
}

// TestSSEReconnectResumes is the satellite reconnect test: disconnect
// mid-stream, reconnect with the last-seen sequence number, and require
// the merged client view to have no gaps and no duplicates (the Fold
// enforces contiguity; a duplicate would be a seq regression error).
func TestSSEReconnectResumes(t *testing.T) {
	f, client := streamServer(t, testOptions(t))

	var fold telemetry.Fold
	lastSeq := int64(-1)
	consume := func(ctx context.Context, stopAfter int) error {
		n := 0
		streamCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		return ignoreCanceled(streamCtx, client.streamDeltas(streamCtx, lastSeq, func(d *telemetry.Delta) error {
			if err := fold.Apply(d); err != nil {
				return err
			}
			lastSeq = int64(d.Seq)
			if n++; stopAfter > 0 && n >= stopAfter {
				cancel() // simulate the connection dropping
			}
			return nil
		}))
	}

	job, err := f.Submit(testSpec(0xf8))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// First connection: take the head (and whatever follows), then drop.
	if err := consume(context.Background(), 1); err != nil {
		t.Fatalf("first connection: %v", err)
	}
	waitDone(t, f, job.ID)
	time.Sleep(20 * time.Millisecond) // let broadcasts advance past lastSeq

	// Second connection resumes from lastSeq. Any gap or duplicate would
	// surface as a Fold error (sequence gap / counter regression).
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := consume(ctx, 0); err != nil {
		t.Fatalf("resumed connection: %v", err)
	}
	if fold.Snap == nil || fold.Snap.Counters["farm/completed"] != 1 {
		t.Fatalf("resumed fold incomplete: %+v", fold.Snap)
	}
}

func ignoreCanceled(ctx context.Context, err error) error {
	if err != nil && ctx.Err() != nil {
		return nil
	}
	return err
}

// TestSSEStaleCursorGetsReset: reconnecting with a sequence far behind
// the replay ring must yield a fresh Reset head, not an error or a gap.
func TestSSEStaleCursorGetsReset(t *testing.T) {
	f, client := streamServer(t, testOptions(t))
	job, err := f.Submit(testSpec(0xf9))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitDone(t, f, job.ID)

	// The hub has never broadcast seq 0 relative to this cursor's claim
	// of 10_000; the ring cannot bridge it.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	var first *telemetry.Delta
	err = client.streamDeltas(ctx, 10_000, func(d *telemetry.Delta) error {
		first = d
		cancel()
		return nil
	})
	if err := ignoreCanceled(ctx, err); err != nil {
		t.Fatalf("streamDeltas: %v", err)
	}
	if first == nil || !first.Reset {
		t.Fatalf("stale cursor got %+v, want a Reset head", first)
	}
}

func TestJobsListAndEventsEndpoints(t *testing.T) {
	f, client := streamServer(t, testOptions(t))
	var first *Job
	for seed := uint64(0xfc); seed < 0xfe; seed++ {
		job, err := f.Submit(testSpec(seed))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if done := waitDone(t, f, job.ID); first == nil {
			first = done
		}
	}
	// Ids start at 1, so a client reads the first job's events by id,
	// without a listing.
	traceID, events, err := client.JobEvents(context.Background(), 1)
	if err != nil {
		t.Fatalf("JobEvents: %v", err)
	}
	if traceID != first.TraceID || len(events) != 3 {
		t.Fatalf("events endpoint: trace %q, %d events; want %q and 3",
			traceID, len(events), first.TraceID)
	}
}
