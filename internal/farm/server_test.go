package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// testServer wires a farm behind httptest and returns a client for it.
func testServer(t *testing.T, opt Options) (*Farm, *Client) {
	t.Helper()
	return serveFarm(t, openFarm(t, opt), NewServer)
}

// serveFarm serves f through the handler wrap builds from it and returns
// a client for it that backs off 2 ms after a 429. Cleanup kills the farm before it closes
// the server: Close waits for every request, and a held /result returns
// only once its job ends or the farm stops.
func serveFarm(t *testing.T, f *Farm, wrap func(*Farm) http.Handler) (*Farm, *Client) {
	t.Helper()
	srv := httptest.NewServer(wrap(f))
	t.Cleanup(srv.Close)
	t.Cleanup(f.Kill)
	c := NewClient(srv.URL)
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

// gatedOptions runs one worker whose executions wait for the returned
// gate, each announcing itself on started first.
func gatedOptions(t *testing.T) (opt Options, started chan uint64, gate chan struct{}) {
	opt = testOptions(t)
	opt.Workers = 1
	started = make(chan uint64, 8)
	gate = make(chan struct{})
	opt.ExecWrap = func(job *Job, attempt int, next func() ([]byte, error)) ([]byte, error) {
		started <- job.ID
		<-gate
		return next()
	}
	return opt, started, gate
}

// heldServer serves f and reports, on the returned channel, each /result
// request once its handler has begun.
func heldServer(t *testing.T, f *Farm) (*Client, chan struct{}) {
	t.Helper()
	entered := make(chan struct{}, 8)
	_, c := serveFarm(t, f, func(f *Farm) http.Handler {
		h := NewServer(f)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/result") {
				entered <- struct{}{}
			}
			h.ServeHTTP(w, r)
		})
	})
	return c, entered
}

// awaitDraining returns once Drain has stopped admission, and with it
// claiming. spec is a running job's: resubmitting it coalesces onto that
// job until then.
func awaitDraining(f *Farm, spec *Spec) {
	for {
		if _, err := f.Submit(spec); errors.Is(err, ErrDraining) {
			return
		}
		runtime.Gosched()
	}
}

type heldAnswer struct {
	resp *http.Response
	body []byte
	err  error
}

// getAsync sends GET url on its own goroutine and delivers the answer.
func getAsync(url string) chan heldAnswer {
	ch := make(chan heldAnswer, 1)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			ch <- heldAnswer{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		ch <- heldAnswer{resp, body, err}
	}()
	return ch
}

// TestHTTPResultLifecycle: a /result request sent while the job runs is
// held until the job ends. It cannot answer before the gate opens: the
// job is not done until then, and the answer is a 200 with the bytes
// Farm.Result returns and a Farm-Job header equal to the status JSON.
func TestHTTPResultLifecycle(t *testing.T) {
	opt, started, gate := gatedOptions(t)
	f := openFarm(t, opt)
	client, entered := heldServer(t, f)
	job, err := client.Submit(context.Background(), testSpec(0xe3))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started

	answer := getAsync(fmt.Sprintf("%s/api/v1/jobs/%d/result", client.Base, job.ID))
	<-entered // the request reached the handler while the job was gated
	close(gate)
	a := <-answer
	if a.err != nil {
		t.Fatalf("GET result: %v", a.err)
	}
	if a.resp.StatusCode != http.StatusOK {
		t.Fatalf("held result status = %d, want 200 (body %s)", a.resp.StatusCode, a.body)
	}
	want, err := f.Result(job.ID)
	if err != nil {
		t.Fatalf("Farm.Result: %v", err)
	}
	if !bytes.Equal(a.body, want) {
		t.Fatalf("held result: %d bytes differ from Farm.Result's %d", len(a.body), len(want))
	}
	if got := a.resp.Header.Get("Content-Length"); got != strconv.Itoa(len(want)) {
		t.Fatalf("Content-Length = %q, want %d", got, len(want))
	}

	resp, err := http.Get(fmt.Sprintf("%s/api/v1/jobs/%d", client.Base, job.ID))
	if err != nil {
		t.Fatalf("GET status: %v", err)
	}
	status, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read status: %v", err)
	}
	if got, want := a.resp.Header.Get("Farm-Job"), strings.TrimSuffix(string(status), "\n"); got != want {
		t.Fatalf("Farm-Job header\n  %s\nwant the status JSON\n  %s", got, want)
	}
}

// TestResultServedFromCacheFile: /result sends a done job's cache entry
// from its file, so serving an 8 MiB result allocates under 1 MiB in the
// process, server and client together. The body is the entry, and
// Content-Length is its size.
func TestResultServedFromCacheFile(t *testing.T) {
	const size = 8 << 20
	opt := testOptions(t)
	opt.ExecWrap = func(job *Job, attempt int, next func() ([]byte, error)) ([]byte, error) {
		return bytes.Repeat([]byte("0123456789abcdef"), size/16), nil
	}
	f, client := testServer(t, opt)
	job, err := f.Submit(testSpec(0xeb))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	done := waitDone(t, f, job.ID)
	if done.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", done.State, done.Error)
	}
	entry, err := os.ReadFile(f.cache.path(done.Key))
	if err != nil {
		t.Fatalf("reading the cache entry: %v", err)
	}
	url := fmt.Sprintf("%s/api/v1/jobs/%d/result", client.Base, job.ID)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("reading the result: %v", err)
	}
	if resp.StatusCode != http.StatusOK || n != size || resp.ContentLength != int64(len(entry)) {
		t.Fatalf("status %d, %d bytes, Content-Length %d; want 200 and the entry's %d bytes",
			resp.StatusCode, n, resp.ContentLength, len(entry))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("serving the %d-byte result allocated %d bytes, want under 1 MiB", size, alloc)
	}

	a := <-getAsync(url)
	if a.err != nil {
		t.Fatalf("GET result: %v", a.err)
	}
	if !bytes.Equal(a.body, entry) {
		t.Fatalf("result body (%d bytes) differs from the cache entry (%d bytes)", len(a.body), len(entry))
	}
	if got := a.resp.Header.Get("Content-Length"); got != strconv.Itoa(len(entry)) {
		t.Fatalf("Content-Length = %q, want %d", got, len(entry))
	}
}

// TestHTTPResultReleasedByDrain: once Drain stops the farm, a /result
// held on a job that is still pending answers 202, so a waiting client
// never holds up SIGTERM, and WaitResult turns that 202 into the pending
// job with ErrStopped. One held on the in-flight job answers 200 when
// the job finishes.
func TestHTTPResultReleasedByDrain(t *testing.T) {
	opt, started, gate := gatedOptions(t)
	f := openFarm(t, opt)
	client, entered := heldServer(t, f)
	ctx := context.Background()
	running, err := client.Submit(ctx, testSpec(0xe7))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started
	pending, err := client.Submit(ctx, testSpec(0xe8))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	result := func(id uint64) chan heldAnswer {
		ch := getAsync(fmt.Sprintf("%s/api/v1/jobs/%d/result", client.Base, id))
		<-entered
		return ch
	}
	runningAnswer, pendingAnswer := result(running.ID), result(pending.ID)
	type waited struct {
		job *Job
		err error
	}
	waiting := make(chan waited, 1)
	go func() {
		_, job, err := client.WaitResult(ctx, pending.ID)
		waiting <- waited{job, err}
	}()
	<-entered
	drained := make(chan error, 1)
	go func() {
		dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		drained <- f.Drain(dctx)
	}()
	awaitDraining(f, testSpec(0xe7))
	close(gate)

	for _, c := range []struct {
		answer chan heldAnswer
		id     uint64
		code   int
		state  JobState
	}{
		{runningAnswer, running.ID, http.StatusOK, StateDone},
		{pendingAnswer, pending.ID, http.StatusAccepted, StatePending},
	} {
		a := <-c.answer
		if a.err != nil {
			t.Fatalf("job %d: GET result: %v", c.id, a.err)
		}
		var held Job
		if err := json.Unmarshal([]byte(a.resp.Header.Get("Farm-Job")), &held); err != nil {
			t.Fatalf("job %d: Farm-Job header: %v", c.id, err)
		}
		if a.resp.StatusCode != c.code || held.ID != c.id || held.State != c.state {
			t.Fatalf("job %d after Drain: status %d naming job %d %s; want %d naming it %s",
				c.id, a.resp.StatusCode, held.ID, held.State, c.code, c.state)
		}
	}
	if w := <-waiting; !errors.Is(w.err, ErrStopped) || w.job == nil || w.job.ID != pending.ID || w.job.State != StatePending {
		t.Fatalf("WaitResult on job %d after Drain = job %+v, err %v; want it pending with ErrStopped", pending.ID, w.job, w.err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// countingTransport counts the requests a client sends and announces
// each one as it starts.
type countingTransport struct {
	n    atomic.Int64
	sent chan struct{}
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.n.Add(1)
	select {
	case c.sent <- struct{}{}:
	default:
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestWaitResultIsOneRequest: waiting for a running job and for a done
// one each costs exactly one request, and the job WaitResult returns is
// the one Status returns.
func TestWaitResultIsOneRequest(t *testing.T) {
	opt, started, gate := gatedOptions(t)
	f, client := testServer(t, opt)
	ctx := context.Background()
	job, err := client.Submit(ctx, testSpec(0xe9))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started
	tr := &countingTransport{sent: make(chan struct{}, 1)}
	client.HTTP = &http.Client{Transport: tr}

	type waited struct {
		out []byte
		job *Job
		err error
	}
	ch := make(chan waited, 1)
	go func() {
		out, job, err := client.WaitResult(ctx, job.ID)
		ch <- waited{out, job, err}
	}()
	<-tr.sent // sent while the job was still gated
	close(gate)
	running := <-ch
	if running.err != nil {
		t.Fatalf("WaitResult on a running job: %v", running.err)
	}
	if n := tr.n.Load(); n != 1 {
		t.Fatalf("WaitResult on a running job sent %d requests, want 1", n)
	}

	tr.n.Store(0)
	out, done, err := client.WaitResult(ctx, job.ID)
	if err != nil {
		t.Fatalf("WaitResult on a done job: %v", err)
	}
	if n := tr.n.Load(); n != 1 {
		t.Fatalf("WaitResult on a done job sent %d requests, want 1", n)
	}

	want, err := f.Result(job.ID)
	if err != nil {
		t.Fatalf("Farm.Result: %v", err)
	}
	status, err := client.Status(ctx, job.ID)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	for _, w := range []waited{running, {out, done, nil}} {
		if !bytes.Equal(w.out, want) {
			t.Fatalf("WaitResult bytes differ from Farm.Result's (%d vs %d)", len(w.out), len(want))
		}
		if !reflect.DeepEqual(w.job, status) {
			t.Fatalf("WaitResult job\n  %+v\nwant Status's\n  %+v", w.job, status)
		}
	}
}

// TestWaitResultNeedsFarmJobHeader: client and server ship together, so a
// 200 without the Farm-Job header is an error, not a result.
func TestWaitResultNeedsFarmJobHeader(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	out, job, err := NewClient(srv.URL).WaitResult(context.Background(), 1)
	if err == nil || !strings.Contains(err.Error(), "Farm-Job") {
		t.Fatalf("WaitResult = %q, job %+v, err %v; want an error naming the missing Farm-Job header", out, job, err)
	}
}

// TestHTTPSubmitBodyBounded: a submission over 1 MiB is refused with 413
// before it is decoded whole, and the next one is served normally.
func TestHTTPSubmitBodyBounded(t *testing.T) {
	_, client := testServer(t, testOptions(t))
	spec, err := json.Marshal(testSpec(0xea))
	if err != nil {
		t.Fatal(err)
	}
	padded := fmt.Sprintf(`{"pad":"%s",%s`, strings.Repeat("x", 2<<20), spec[1:])
	resp, err := http.Post(client.Base+"/api/v1/jobs", "application/json", strings.NewReader(padded))
	if err != nil {
		t.Fatalf("POST padded spec: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB spec: status %d, want 413", resp.StatusCode)
	}
	if _, err := client.Submit(context.Background(), testSpec(0xea)); err != nil {
		t.Fatalf("Submit after the 413: %v", err)
	}
}

// TestHTTPWaitResultReportsFailure: a job that fails comes back from
// WaitResult as an error naming its state, together with the job, its
// raw result endpoint answers 500, and resubmitting the spec makes a new
// job.
func TestHTTPWaitResultReportsFailure(t *testing.T) {
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
	if err == nil || !strings.Contains(err.Error(), string(StateFailed)) {
		t.Fatalf("WaitResult err = %v, want one naming %s", err, StateFailed)
	}
	if out != nil || final == nil || final.State != StateFailed || final.Attempts != 1 {
		t.Fatalf("WaitResult = %d bytes, job %+v; want no bytes and the job failed after 1 attempt", len(out), final)
	}

	resp, err := http.Get(fmt.Sprintf("%s/api/v1/jobs/%d/result", client.Base, job.ID))
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failed result status = %d, want 500", resp.StatusCode)
	}

	again, err := client.Submit(ctx, testSpec(0xe6))
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if again.ID == job.ID {
		t.Fatalf("resubmission coalesced onto failed job %d", job.ID)
	}
}

// TestHTTPMetricsAndHealth checks liveness; the metrics are read from
// the stream, whose every event is the whole snapshot
// (TestSSEStreamSendsWholeSnapshots).
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
