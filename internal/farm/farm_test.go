package farm

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testSpec returns a small, fast sim job; distinct seeds give distinct
// cache keys.
func testSpec(seed uint64) *Spec {
	return &Spec{
		Kind: KindSim,
		Sim: &SimSpec{
			CoreKind: "virec",
			Threads:  2,
			Workload: "vecadd",
			Iters:    16,
			Seed:     seed,
		},
	}
}

// testOptions returns farm options tuned for test speed: no fsync, a
// temp dir per test.
func testOptions(t *testing.T) Options {
	t.Helper()
	return Options{Dir: t.TempDir(), Workers: 2}
}

// openFarm opens and starts a farm, closing it (crash-style, which is
// always safe) when the test ends.
func openFarm(t *testing.T, opt Options) *Farm {
	t.Helper()
	f, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	f.Start()
	t.Cleanup(f.Kill)
	return f
}

func waitDone(t *testing.T, f *Farm, id uint64) *Job {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	job, err := f.WaitJob(ctx, id)
	if err != nil {
		t.Fatalf("WaitJob(%d): %v", id, err)
	}
	return job
}

func TestSubmitRunsJobToDone(t *testing.T) {
	f := openFarm(t, testOptions(t))
	job, err := f.Submit(testSpec(1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	got := waitDone(t, f, job.ID)
	if got.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", got.State, got.Error)
	}
	out, err := f.Result(job.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if len(out) == 0 {
		t.Fatal("empty result bytes")
	}
	st := f.StatsSnapshot()
	if st.Completed != 1 || st.CacheMisses != 1 {
		t.Fatalf("stats = %+v, want Completed=1 CacheMisses=1", st)
	}
}

// TestDeadlineAbandonsAttemptAndFails: an attempt that overruns the job
// deadline is abandoned and the job fails with it, after one attempt;
// resubmitting the spec makes a new job, which runs.
func TestDeadlineAbandonsAttemptAndFails(t *testing.T) {
	opt := testOptions(t)
	opt.Workers = 1
	opt.JobDeadline = 20 * time.Millisecond
	hang := make(chan struct{})
	t.Cleanup(func() { close(hang) })
	var calls atomic.Int32
	opt.ExecWrap = func(job *Job, attempt int, next func() ([]byte, error)) ([]byte, error) {
		if calls.Add(1) == 1 {
			<-hang // overrun the deadline; released at test end
			return nil, fmt.Errorf("abandoned attempt finally finished")
		}
		return next()
	}
	f := openFarm(t, opt)
	job, err := f.Submit(testSpec(5))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	got := waitDone(t, f, job.ID)
	if got.State != StateFailed {
		t.Fatalf("state = %s (error %q), want failed", got.State, got.Error)
	}
	if got.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", got.Attempts)
	}
	if !strings.Contains(got.Error, "deadline") || got.Fingerprint != "" {
		t.Fatalf("deadline failure: error %q fingerprint %q, want a deadline error without fingerprint", got.Error, got.Fingerprint)
	}
	if st := f.StatsSnapshot(); st.Deadlines != 1 || st.Failed != 1 {
		t.Fatalf("stats = %+v, want Deadlines=1 Failed=1", st)
	}

	again, err := f.Submit(testSpec(5))
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if again.ID == job.ID {
		t.Fatalf("resubmission coalesced onto failed job %d", job.ID)
	}
	if got := waitDone(t, f, again.ID); got.State != StateDone || got.Attempts != 1 {
		t.Fatalf("resubmitted job: state %s after %d attempts (error %q), want done after 1", got.State, got.Attempts, got.Error)
	}
}

func TestPanicBecomesStructuredFailure(t *testing.T) {
	// A panic in the executor must surface as a structured, fingerprinted
	// job failure — never kill the worker pool or the process.
	opt := testOptions(t)
	opt.ExecWrap = func(job *Job, attempt int, next func() ([]byte, error)) ([]byte, error) {
		if job.Spec.Sim.Seed == 6 {
			panic("executor bug in the sim job path")
		}
		return next()
	}
	f := openFarm(t, opt)
	job, err := f.Submit(testSpec(6))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	got := waitDone(t, f, job.ID)
	if got.State != StateFailed || got.Attempts != 1 {
		t.Fatalf("state = %s after %d attempts, want failed after 1", got.State, got.Attempts)
	}
	if got.Error == "" || got.Fingerprint == "" {
		t.Fatalf("panic failure lost its diagnosis: error %q fingerprint %q", got.Error, got.Fingerprint)
	}
	// The fingerprint names the crash site, not just the message, so two
	// different bugs with the same panic text stay distinguishable.
	if !strings.Contains(got.Fingerprint, "executor bug") || !strings.Contains(got.Fingerprint, "@") {
		t.Fatalf("fingerprint %q missing message or crash site", got.Fingerprint)
	}
	// The pool survived: a fresh job still completes.
	ok, err := f.Submit(testSpec(7))
	if err != nil {
		t.Fatalf("Submit after panic: %v", err)
	}
	if got := waitDone(t, f, ok.ID); got.State != StateDone {
		t.Fatalf("job after panic: state %s (error %q), want done", got.State, got.Error)
	}
}

func TestQueueFullRejectsSubmission(t *testing.T) {
	opt := testOptions(t)
	opt.Workers = 1
	opt.QueueCap = 2
	gate := make(chan struct{})
	opt.ExecWrap = func(job *Job, attempt int, next func() ([]byte, error)) ([]byte, error) {
		<-gate
		return next()
	}
	f := openFarm(t, opt)
	for seed := uint64(10); seed < 12; seed++ {
		if _, err := f.Submit(testSpec(seed)); err != nil {
			t.Fatalf("Submit(%d): %v", seed, err)
		}
	}
	if _, err := f.Submit(testSpec(12)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit over capacity: err = %v, want ErrQueueFull", err)
	}
	if st := f.StatsSnapshot(); st.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", st.Rejected)
	}
	close(gate) // let the queued work finish before Kill
}

func TestDedupCoalescesLiveSubmissions(t *testing.T) {
	opt := testOptions(t)
	gate := make(chan struct{})
	opt.ExecWrap = func(job *Job, attempt int, next func() ([]byte, error)) ([]byte, error) {
		<-gate
		return next()
	}
	f := openFarm(t, opt)
	first, err := f.Submit(testSpec(20))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	second, err := f.Submit(testSpec(20))
	if err != nil {
		t.Fatalf("re-Submit: %v", err)
	}
	if second.ID != first.ID {
		t.Fatalf("identical spec got a new job: id %d then %d", first.ID, second.ID)
	}
	if st := f.StatsSnapshot(); st.Deduped != 1 {
		t.Fatalf("Deduped = %d, want 1", st.Deduped)
	}
	close(gate)
	waitDone(t, f, first.ID)
}

func TestDrainFinishesInFlightAndKeepsPending(t *testing.T) {
	opt := testOptions(t)
	opt.Workers = 1
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	opt.ExecWrap = func(job *Job, attempt int, next func() ([]byte, error)) ([]byte, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return next()
	}
	f, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	f.Start()
	j1, err := f.Submit(testSpec(30))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	j2, err := f.Submit(testSpec(31))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started // job 1 is in flight

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- f.Drain(ctx)
	}()
	// Draining: admission refuses, the in-flight job finishes once
	// released, the queued job stays pending for the next generation.
	var submitErr error
	for i := 0; i < 1000; i++ {
		if _, submitErr = f.Submit(testSpec(32)); errors.Is(submitErr, ErrDraining) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(submitErr, ErrDraining) {
		t.Fatalf("Submit during drain: err = %v, want ErrDraining", submitErr)
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// Next generation: the in-flight job is done, the pending one is
	// recovered and completes.
	opt2 := opt
	opt2.ExecWrap = nil
	f2 := openFarm(t, opt2)
	got1, err := f2.Status(j1.ID)
	if err != nil {
		t.Fatalf("Status(j1): %v", err)
	}
	if got1.State != StateDone {
		t.Fatalf("j1 after drain+reopen: %s, want done", got1.State)
	}
	got2 := waitDone(t, f2, j2.ID)
	if got2.State != StateDone {
		t.Fatalf("j2 after reopen: %s (error %q), want done", got2.State, got2.Error)
	}
}

func TestMetricsRegistryCoversStats(t *testing.T) {
	f := openFarm(t, testOptions(t))
	job, err := f.Submit(testSpec(40))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitDone(t, f, job.ID)
	snap := f.MetricsSnapshot()
	for _, name := range []string{
		"farm/submitted", "farm/completed", "farm/cache_misses", "farm/failed",
	} {
		if _, ok := snap.Counters[name]; !ok {
			t.Fatalf("counter %s missing from snapshot", name)
		}
	}
	for _, name := range []string{"farm/queue_depth", "farm/running", "farm/jobs_total"} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Fatalf("gauge %s missing from snapshot", name)
		}
	}
	if v := snap.Counters["farm/submitted"]; v != 1 {
		t.Fatalf("farm/submitted = %v, want 1", v)
	}
	if v := snap.Gauges["farm/jobs_total"]; v != 1 {
		t.Fatalf("farm/jobs_total = %v, want 1", v)
	}
}

// TestConcurrentSubmitters hammers admission from many goroutines while
// workers run, checking the farm under -race.
func TestConcurrentSubmitters(t *testing.T) {
	opt := testOptions(t)
	opt.Workers = 4
	opt.QueueCap = 64
	f := openFarm(t, opt)
	var wg sync.WaitGroup
	ids := make([]uint64, 16)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				job, err := f.Submit(testSpec(100 + uint64(i)%4)) // contended keys
				if errors.Is(err, ErrQueueFull) {
					time.Sleep(time.Millisecond)
					continue
				}
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				ids[i] = job.ID
				return
			}
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		if t.Failed() {
			break
		}
		if got := waitDone(t, f, id); got.State != StateDone {
			t.Fatalf("job %d: state %s (error %q)", id, got.State, got.Error)
		}
	}
}

// TestKillDuringDrain: a Kill while Drain waits for an in-flight job ends
// the drain instead of stopping the farm a second time.
func TestKillDuringDrain(t *testing.T) {
	opt, started, gate := gatedOptions(t)
	defer close(gate) // let the abandoned attempt finish
	f := openFarm(t, opt)
	if _, err := f.Submit(testSpec(0xeb)); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started
	drained := make(chan error, 1)
	go func() { drained <- f.Drain(context.Background()) }()
	awaitDraining(f, testSpec(0xeb))
	f.Kill()
	if err := <-drained; err != nil {
		t.Fatalf("Drain after Kill: %v", err)
	}
}
