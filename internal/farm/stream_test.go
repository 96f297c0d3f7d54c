package farm

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"testing"
	"time"

	"github.com/virec/virec/internal/telemetry"
)

// streamServer wires a farm behind httptest with a fast stream cadence.
func streamServer(t *testing.T, opt Options) (*Farm, *Client) {
	t.Helper()
	return serveFarm(t, openFarm(t, opt), func(f *Farm) http.Handler {
		return NewServerWith(f, ServerOptions{StreamInterval: 2 * time.Millisecond})
	})
}

// streamSnapshots reads the SSE metrics stream at base until the server
// closes it (nil), ctx ends (ctx's error) or fn fails (fn's error). Every
// non-blank line must be a data line holding exactly a
// telemetry.Snapshot; fn gets it decoded and as sent.
func streamSnapshots(ctx context.Context, base string, fn func(s *telemetry.Snapshot, data []byte) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v1/metrics/stream", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
		if !ok {
			return fmt.Errorf("stream: line %q is not a data line", sc.Bytes())
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var s telemetry.Snapshot
		if err := dec.Decode(&s); err != nil {
			return fmt.Errorf("stream: event is not a snapshot: %w", err)
		}
		if err := fn(&s, bytes.Clone(data)); err != nil {
			return err
		}
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return sc.Err()
}

// TestSSEStreamSendsWholeSnapshots: the first event is the snapshot the
// farm holds at connect time, later events follow the jobs to
// farm/completed == 3 without any counter falling or an unchanged
// snapshot repeating, and the last event equals a pull snapshot.
func TestSSEStreamSendsWholeSnapshots(t *testing.T) {
	f, client := streamServer(t, testOptions(t))
	job, err := f.Submit(testSpec(0xf0))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitDone(t, f, job.ID)
	want, err := json.Marshal(f.MetricsSnapshot())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errAllDone := errors.New("three jobs completed")
	first := make(chan []byte, 1)
	errCh := make(chan error, 1)
	var prev *telemetry.Snapshot
	var last []byte
	go func() {
		errCh <- streamSnapshots(ctx, client.Base, func(s *telemetry.Snapshot, data []byte) error {
			if prev == nil {
				first <- data
			} else {
				if bytes.Equal(data, last) {
					return fmt.Errorf("unchanged snapshot sent twice: %s", data)
				}
				for _, name := range slices.Sorted(maps.Keys(prev.Counters)) {
					if s.Counters[name] < prev.Counters[name] {
						return fmt.Errorf("counter %s fell from %d to %d", name, prev.Counters[name], s.Counters[name])
					}
				}
			}
			prev, last = s, data
			if s.Counters["farm/completed"] == 3 {
				return errAllDone
			}
			return nil
		})
	}()
	select {
	case got := <-first:
		if !bytes.Equal(got, want) {
			t.Fatalf("first event is not the current snapshot:\n got %s\nwant %s", got, want)
		}
	case err := <-errCh:
		t.Fatalf("stream ended before its first event: %v", err)
	}
	// Ten stream intervals with nothing changing: a stream that resent
	// an unchanged snapshot would fail the callback above.
	time.Sleep(20 * time.Millisecond)

	for seed := uint64(0xf1); seed < 0xf3; seed++ {
		job, err := f.Submit(testSpec(seed))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		waitDone(t, f, job.ID)
	}
	if err := <-errCh; !errors.Is(err, errAllDone) {
		t.Fatalf("stream ended before farm/completed reached 3: %v", err)
	}
	pulled, err := json.Marshal(f.MetricsSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(last, pulled) {
		t.Fatalf("last event disagrees with a pull snapshot:\nstream %s\n  pull %s", last, pulled)
	}
}

// TestStreamEndsWhenFarmDrains: an open stream must not outlive the farm,
// or it would hold an HTTP server shutdown for its whole timeout.
func TestStreamEndsWhenFarmDrains(t *testing.T) {
	f, client := streamServer(t, testOptions(t))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	connected := make(chan struct{})
	ended := make(chan error, 1)
	go func() {
		events := 0
		ended <- streamSnapshots(ctx, client.Base, func(*telemetry.Snapshot, []byte) error {
			if events++; events == 1 {
				close(connected)
			}
			return nil
		})
	}()
	select {
	case <-connected:
	case err := <-ended:
		t.Fatalf("stream ended before its first event: %v", err)
	}

	if err := f.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	select {
	case err := <-ended:
		if err != nil {
			t.Fatalf("stream ended with %v, want a clean close", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream still open 5s after Drain")
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
