// Package farm is the simulation service: a crash-safe persistent job
// queue, a worker pool and a content-addressed result cache, behind an
// HTTP API (server.go) and an in-process API (this file).
//
// The durability contract: once Submit acknowledges a job it survives
// process crashes — the journal (journal.go) replays it on restart; a
// completed job is never re-run (its bytes are in the cache); an
// in-flight job at crash time is re-queued and runs again. The
// determinism contract: a job's result bytes are identical whether
// computed inline, by a worker, on a re-run after a crash, or served from
// cache — asserted in determinism_test.go the way parallel_test.go
// asserts serial ≡ parallel.
//
// The failure policy: a failed attempt is final. Execute is a pure
// function of (spec, code version), so an attempt that failed would fail
// again the same way. The job ends failed with its error and crash
// fingerprint (sim.CrashError and friends; a deadline overrun has none),
// and resubmitting the spec is the retry: a failed job never absorbs a
// resubmission. A crash is the only thing that re-runs a job.
package farm

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"github.com/virec/virec/internal/harden"
	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/telemetry"
)

// JobState is a job's position in its lifecycle.
type JobState string

// Job lifecycle states.
const (
	StatePending JobState = "pending" // queued, awaiting a worker
	StateRunning JobState = "running" // claimed by a worker
	StateDone    JobState = "done"    // result bytes in the cache
	StateFailed  JobState = "failed"  // the attempt failed; resubmit to retry
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed
}

// Job is the queue's record of one submission. Fields are exported for
// JSON serialization (checkpoints, the HTTP status endpoint); mutate only
// under the farm mutex.
type Job struct {
	ID          uint64   `json:"id"`
	Spec        *Spec    `json:"spec"`
	Key         string   `json:"key"` // content-address of the result
	State       JobState `json:"state"`
	Attempts    int      `json:"attempts"`              // execution attempts started
	Error       string   `json:"error,omitempty"`       // the failure (truncated)
	Fingerprint string   `json:"fingerprint,omitempty"` // the failure's crash fingerprint
	ResultHash  string   `json:"result_hash,omitempty"` // sha256 of result bytes
	FromCache   bool     `json:"from_cache,omitempty"`  // completed without executing

	// TraceID is the job's trace identity, minted at submission
	// (TraceIDFor), journaled with its enqueue record and served with its
	// lifecycle events.
	TraceID string `json:"trace_id,omitempty"`
	// Events is the job's lifecycle history (see events.go). Folded into
	// the checkpoint with the job, so it survives restarts intact.
	Events []JobEvent `json:"events,omitempty"`
}

// clone returns a snapshot safe to use outside the farm mutex.
func (j *Job) clone() *Job {
	c := *j
	c.Events = append([]JobEvent(nil), j.Events...)
	return &c
}

// Stats counts farm-level events; every field is registered in the
// telemetry registry under the farm/ prefix and its metric tag.
type Stats struct {
	Submitted   uint64 `metric:"submitted"`         // specs accepted into the queue (including cache hits)
	Deduped     uint64 `metric:"deduped"`           // submissions coalesced onto a still-running job
	Rejected    uint64 `metric:"rejected"`          // submissions refused: queue full (HTTP 429)
	CacheHits   uint64 `metric:"cache_hits"`        // submissions served from the result cache (no execution)
	CacheMisses uint64 `metric:"cache_misses"`      // jobs that had to execute
	Completed   uint64 `metric:"completed"`         // jobs that reached done (executed, not cached)
	Failed      uint64 `metric:"failed"`            // jobs whose attempt failed
	Deadlines   uint64 `metric:"deadline_abandons"` // attempts abandoned at the per-job deadline
}

// Options configures a Farm.
type Options struct {
	// Dir is the persistence root: journal, checkpoint and result cache
	// all live under it. Required.
	Dir string

	// Workers is the worker count; <= 0 selects GOMAXPROCS.
	Workers int

	// QueueCap bounds the live jobs (pending + running).
	// Submissions beyond it are rejected — the admission-control /
	// backpressure signal the HTTP layer turns into 429. <= 0 means 1024.
	QueueCap int

	// JobDeadline bounds one execution attempt; past it the job fails
	// with a deadline error (no fingerprint) and the worker moves on.
	// Zero disables.
	JobDeadline time.Duration

	// SyncJournal fsyncs every journal append. The daemon turns this on;
	// tests leave it off for speed (the journal is still crash-safe
	// against process death either way — fsync guards power loss).
	SyncJournal bool

	// CheckpointEvery folds the journal into the checkpoint after this
	// many appends. <= 0 means 256.
	CheckpointEvery int

	// ExecWrap, when set, interposes on every execution attempt: tests
	// use it to inject panics, hangs and failures. next runs the real
	// executor.
	ExecWrap func(job *Job, attempt int, next func() ([]byte, error)) ([]byte, error)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Workers <= 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	if out.QueueCap <= 0 {
		out.QueueCap = 1024
	}
	if out.CheckpointEvery <= 0 {
		out.CheckpointEvery = 256
	}
	return out
}

// Sentinel errors the admission path returns; the HTTP layer maps them
// onto status codes.
var (
	ErrQueueFull = errors.New("farm: queue full")                   // → 429
	ErrDraining  = errors.New("farm: draining, not accepting jobs") // → 503
	ErrNotFound  = errors.New("farm: no such job")                  // → 404
	ErrStopped   = errors.New("farm: stopped before the job ended") // → 202
)

// Farm is the running service.
type Farm struct {
	opt     Options
	journal *journal
	cache   *Cache

	mu      sync.Mutex
	cond    *sync.Cond // wakes idle workers: ready work, or shutdown
	jobs    map[uint64]*Job
	byKey   map[string]uint64 // cache key → newest job id (dedup)
	ready   []uint64          // FIFO of pending job ids
	nextID  uint64
	running int
	stats   Stats

	draining bool
	closed   bool
	stopCh   chan struct{} // closed on Kill/Drain: abandons in-flight waits
	ended    chan struct{} // closed and replaced each time a worker finishes a job

	registry *telemetry.Registry
	wg       sync.WaitGroup // workers
}

// Open recovers (or initializes) a farm from dir. Workers do not run
// until Start.
func Open(opt Options) (*Farm, error) {
	if opt.Dir == "" {
		return nil, fmt.Errorf("farm: Options.Dir is required")
	}
	opt = opt.withDefaults()
	jobs, nextID, err := recoverState(opt.Dir)
	if err != nil {
		return nil, err
	}
	j, err := openJournal(opt.Dir, opt.SyncJournal)
	if err != nil {
		return nil, err
	}
	// Fold the recovered state into a fresh checkpoint before the first
	// append: recovery may have stopped at a torn or corrupt record, and a
	// record appended after those bytes would be lost with them.
	if err := j.checkpoint(nextID, jobs); err != nil {
		j.close()
		return nil, err
	}
	cache, err := OpenCache(filepath.Join(opt.Dir, "cache"))
	if err != nil {
		j.close()
		return nil, err
	}
	f := &Farm{
		opt:     opt,
		journal: j,
		cache:   cache,
		jobs:    jobs,
		byKey:   make(map[string]uint64),
		nextID:  nextID,
		stopCh:  make(chan struct{}),
		ended:   make(chan struct{}),
	}
	f.cond = sync.NewCond(&f.mu)
	f.registry = telemetry.NewRegistry()
	f.registerMetrics(f.registry, "farm")

	// Re-queue recovered pending work in job-id order (deterministic and
	// FIFO-faithful: ids are assigned in submission order).
	ids := make([]uint64, 0, len(jobs))
	for id := range jobs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		job := jobs[id]
		f.byKey[job.Key] = id
		if job.State == StatePending {
			f.ready = append(f.ready, id)
		}
	}
	return f, nil
}

// Start launches the workers.
func (f *Farm) Start() {
	for w := 0; w < f.opt.Workers; w++ {
		f.wg.Add(1)
		go f.worker()
	}
}

// worker claims and runs jobs until shutdown. It recovers no panic:
// execute turns an executor panic into a job failure, so the only panic
// that reaches a worker is append's on a failed journal write, and that
// one must end the process.
func (f *Farm) worker() {
	defer f.wg.Done()
	for job := f.claim(); job != nil; job = f.claim() {
		f.runJob(job)
	}
}

// claim blocks until a pending job is available (nil on shutdown/drain).
func (f *Farm) claim() *Job {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if f.closed || f.draining {
			return nil
		}
		if len(f.ready) > 0 {
			job := f.jobs[f.ready[0]]
			f.ready = f.ready[1:]
			job.State = StateRunning
			job.Attempts++
			f.running++
			f.record(job, &record{Op: "start", ID: job.ID, Attempt: job.Attempts})
			return job
		}
		f.cond.Wait()
	}
}

// runJob executes one claimed job and records its outcome: done, or a
// final failure.
func (f *Farm) runJob(job *Job) {
	out, err := f.execute(job)

	f.mu.Lock()
	defer f.mu.Unlock()
	f.running--
	// Wake every WaitJob and Drain. They re-read the farm under the
	// mutex, so they see the outcome recorded below.
	close(f.ended)
	f.ended = make(chan struct{})
	if f.closed {
		// Kill() raced with the execution: the journal still says
		// "running", so recovery re-queues the job. Recording nothing is
		// exactly the crash semantics being simulated.
		return
	}

	if err == nil {
		if err = f.cache.Put(job.Key, out); err == nil {
			sum := sha256.Sum256(out)
			job.State = StateDone
			job.ResultHash = hex.EncodeToString(sum[:])
			job.Error = ""
			f.stats.Completed++
			f.record(job, &record{Op: "done", ID: job.ID, ResultHash: job.ResultHash})
			return
		}
		err = fmt.Errorf("farm: persisting result: %w", err)
	}

	job.State = StateFailed
	job.Error = truncateErr(err)
	job.Fingerprint = failureFingerprint(err)
	f.stats.Failed++
	if errors.Is(err, context.DeadlineExceeded) {
		f.stats.Deadlines++
	}
	f.record(job, &record{Op: "fail", ID: job.ID, Attempt: job.Attempts,
		Err: job.Error, Fingerprint: job.Fingerprint})
}

// execute runs one attempt with deadline enforcement and panic capture.
// It holds no locks: the work happens on a child goroutine so a deadline
// or shutdown can abandon it (the simulator cannot be preempted
// mid-cycle; the abandoned goroutine finishes into a buffered channel
// and its result is discarded).
func (f *Farm) execute(job *Job) ([]byte, error) {
	ctx := context.Background()
	cancel := func() {}
	if f.opt.JobDeadline > 0 {
		ctx, cancel = context.WithTimeout(ctx, f.opt.JobDeadline)
	}
	defer cancel()

	type outcome struct {
		out []byte
		err error
	}
	ch := make(chan outcome, 1)
	// Snapshot the job before spawning: an abandoned attempt (deadline,
	// shutdown) leaves the child goroutine running while runJob mutates
	// the live Job, so the child may only touch this copy.
	snap := job.clone()
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{nil, &workerPanicError{value: r, stack: debug.Stack()}}
			}
		}()
		next := func() ([]byte, error) { return Execute(ctx, snap.Spec) }
		if f.opt.ExecWrap != nil {
			out, err := f.opt.ExecWrap(snap, snap.Attempts, next)
			ch <- outcome{out, err}
			return
		}
		out, err := next()
		ch <- outcome{out, err}
	}()

	select {
	case o := <-ch:
		return o.out, o.err
	case <-ctx.Done():
		return nil, fmt.Errorf("farm: job %d attempt %d abandoned after %v: %w",
			snap.ID, snap.Attempts, f.opt.JobDeadline, ctx.Err())
	case <-f.stopCh:
		return nil, fmt.Errorf("farm: job %d attempt %d abandoned: farm stopping", snap.ID, snap.Attempts)
	}
}

// workerPanicError wraps a panic that escaped the executor (as opposed
// to one sim.Run already converted to a CrashError).
type workerPanicError struct {
	value any
	stack []byte
}

func (e *workerPanicError) Error() string {
	return fmt.Sprintf("farm: job execution panicked: %v", e.value)
}

// fingerprint is stable for a deterministic panic: message + crash site.
func (e *workerPanicError) fingerprint() string {
	return harden.Fingerprint(e.value, e.stack)
}

// failureFingerprint classifies an execution error into a stable crash
// identity, or "" for deadline and cancellation errors, which say nothing
// about the job itself.
func failureFingerprint(err error) string {
	var ce *sim.CrashError
	if errors.As(err, &ce) {
		return ce.Fingerprint
	}
	var le *sim.LivelockError
	if errors.As(err, &le) {
		// Deterministic for a deterministic sim: same window, same stall.
		return fmt.Sprintf("livelock: window=%d last-progress=%d", le.Window, le.LastProgress)
	}
	var ie *sim.InvariantError
	if errors.As(err, &ie) {
		return fmt.Sprintf("invariant@%d: %s", ie.Cycle, firstLine(ie.Violation))
	}
	var wp *workerPanicError
	if errors.As(err, &wp) {
		return wp.fingerprint()
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return ""
	}
	if err != nil {
		// Other errors (config resolution, verification mismatches…) are
		// deterministic in practice: fingerprint on the message.
		return firstLine(err.Error())
	}
	return ""
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}

// truncateErr bounds journal/status error text: crash errors embed
// multi-kilobyte diagnostic dumps that belong in artifacts, not in every
// journal record.
func truncateErr(err error) string {
	const max = 400
	s := err.Error()
	if len(s) > max {
		s = s[:max] + " …(truncated)"
	}
	return s
}

// append writes a journal record and triggers a checkpoint when due.
// Called with the farm mutex held. Journal failures panic: continuing to
// mutate queue state that can no longer be persisted would silently void
// the durability contract. Workers do not recover the panic, so it ends
// the process, and a restart recovers from what the journal holds.
func (f *Farm) append(rec *record) {
	if err := f.journal.append(rec); err != nil {
		panic(err)
	}
	if f.journal.appends >= f.opt.CheckpointEvery {
		if err := f.journal.checkpoint(f.nextID, f.jobs); err != nil {
			panic(err)
		}
	}
}

// Submit validates and admits a job, returning its status snapshot. The
// same spec coalesces onto the existing live (or completed) job; a spec
// whose result is already cached completes instantly; a full queue
// returns ErrQueueFull.
func (f *Farm) Submit(spec *Spec) (*Job, error) {
	key, err := spec.CacheKey(CodeVersion)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed || f.draining {
		return nil, ErrDraining
	}

	// Dedup: a live or successful job for the same content key absorbs
	// the submission. Coalescing onto a *done* job is a cache hit — the
	// submission is satisfied without execution, from bytes the cache
	// already holds. Failed jobs do not absorb — resubmission is the
	// retry and gets a fresh job.
	if id, ok := f.byKey[key]; ok {
		if job := f.jobs[id]; job != nil && job.State != StateFailed {
			if job.State == StateDone {
				f.stats.CacheHits++
			} else {
				f.stats.Deduped++
			}
			return job.clone(), nil
		}
	}

	if out, ok := f.cache.Get(key); ok {
		// Result already computed (this generation or a predecessor's):
		// admit the job directly into done.
		id := f.nextID
		f.nextID++
		sum := sha256.Sum256(out)
		job := &Job{
			ID: id, Spec: spec, Key: key,
			State:      StateDone,
			ResultHash: hex.EncodeToString(sum[:]),
			FromCache:  true,
			TraceID:    TraceIDFor(id, key),
		}
		f.jobs[id] = job
		f.byKey[key] = id
		f.stats.Submitted++
		f.stats.CacheHits++
		f.record(job, &record{Op: "enqueue", ID: id, Spec: spec, Key: key, TraceID: job.TraceID})
		f.record(job, &record{Op: "done", ID: id, ResultHash: job.ResultHash, FromCache: true})
		return job.clone(), nil
	}

	if f.liveLocked() >= f.opt.QueueCap {
		f.stats.Rejected++
		return nil, ErrQueueFull
	}

	id := f.nextID
	f.nextID++
	job := &Job{ID: id, Spec: spec, Key: key, State: StatePending, TraceID: TraceIDFor(id, key)}
	f.jobs[id] = job
	f.byKey[key] = id
	f.stats.Submitted++
	f.stats.CacheMisses++
	f.record(job, &record{Op: "enqueue", ID: id, Spec: spec, Key: key, TraceID: job.TraceID})
	f.ready = append(f.ready, id)
	f.cond.Signal()
	return job.clone(), nil
}

// liveLocked counts jobs occupying queue capacity (mutex held): pending
// and running jobs each hold a slot.
func (f *Farm) liveLocked() int {
	return f.running + len(f.ready)
}

// Status returns a snapshot of one job.
func (f *Farm) Status(id uint64) (*Job, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	job := f.jobs[id]
	if job == nil {
		return nil, ErrNotFound
	}
	return job.clone(), nil
}

// Result returns a done job's result bytes from the cache.
func (f *Farm) Result(id uint64) ([]byte, error) {
	job, err := f.Status(id)
	if err != nil {
		return nil, err
	}
	if job.State != StateDone {
		return nil, fmt.Errorf("farm: job %d is %s, no result", id, job.State)
	}
	out, ok := f.cache.Get(job.Key)
	if !ok {
		return nil, fmt.Errorf("farm: job %d done but result %s missing from cache", id, job.Key)
	}
	return out, nil
}

// WaitJob blocks until the job reaches a terminal state and returns it.
// If ctx ends or the farm stops first, it returns the job as it stands
// with ctx's error or ErrStopped. Between reads it sleeps until some
// worker finishes a job.
func (f *Farm) WaitJob(ctx context.Context, id uint64) (*Job, error) {
	var early error // why the wait ends before the job does
	for {
		f.mu.Lock()
		job, ended := f.jobs[id], f.ended
		if job != nil {
			job = job.clone()
		}
		f.mu.Unlock()
		switch {
		case job == nil:
			return nil, ErrNotFound
		case job.State.Terminal():
			return job, nil
		case early != nil:
			return job, early
		}
		// After an early end, read the job once more: it may have ended
		// at the same instant.
		select {
		case <-ended:
		case <-ctx.Done():
			early = ctx.Err()
		case <-f.stopCh:
			early = ErrStopped
		}
	}
}

// Drain performs the graceful-shutdown sequence SIGTERM triggers: stop
// admitting (Submit returns ErrDraining), stop claiming (pending jobs
// stay queued for the next generation), finish in-flight jobs, fold
// everything into the checkpoint, and close the journal. Respects ctx as
// an upper bound on the wait; in-flight jobs still running then are
// abandoned (and recover as re-queued).
func (f *Farm) Drain(ctx context.Context) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.draining = true
	f.cond.Broadcast()
	for f.running > 0 && ctx.Err() == nil {
		ended := f.ended
		f.mu.Unlock()
		select {
		case <-ended:
		case <-ctx.Done():
		case <-f.stopCh:
		}
		f.mu.Lock()
		if f.closed { // Kill stopped the farm while we waited
			f.mu.Unlock()
			return nil
		}
	}
	timedOut := f.running > 0
	f.closed = true
	close(f.stopCh)
	err := f.journal.checkpoint(f.nextID, f.jobs)
	if cerr := f.journal.close(); err == nil {
		err = cerr
	}
	f.cond.Broadcast()
	f.mu.Unlock()

	f.wg.Wait()
	if err != nil {
		return err
	}
	if timedOut {
		return fmt.Errorf("farm: drain timed out with jobs in flight (they will be re-queued on restart): %w", ctx.Err())
	}
	return nil
}

// Kill simulates a process crash: no drain, no checkpoint — the journal
// is abandoned exactly as it stands, in-flight jobs record nothing
// further, and workers exit at their next transition. Crash/restart
// tests reopen the same directory afterwards and must observe zero lost
// and zero duplicated jobs.
func (f *Farm) Kill() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	close(f.stopCh)
	f.journal.close()
	f.cond.Broadcast()
	f.mu.Unlock()
	f.wg.Wait()
}

// QueueDepth returns the jobs currently occupying queue capacity.
func (f *Farm) QueueDepth() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.liveLocked()
}

// StatsSnapshot returns a copy of the farm counters.
func (f *Farm) StatsSnapshot() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// MetricsSnapshot captures the farm's telemetry registry. Taken under
// the farm mutex so counters and gauges are mutually consistent.
func (f *Farm) MetricsSnapshot() *telemetry.Snapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.registry.Snapshot()
}

// registerMetrics places every farm counter and gauge in the registry.
// Gauge closures read farm state without locking: they only run inside
// MetricsSnapshot, which holds the mutex.
func (f *Farm) registerMetrics(r *telemetry.Registry, prefix string) {
	r.Stats(prefix, &f.stats)
	r.Gauge(prefix+"/queue_depth", func() float64 { return float64(f.liveLocked()) })
	r.Gauge(prefix+"/running", func() float64 { return float64(f.running) })
	r.Gauge(prefix+"/jobs_total", func() float64 { return float64(len(f.jobs)) })
}
