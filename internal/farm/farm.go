// Package farm is the fault-tolerant simulation service: a crash-safe
// persistent job queue, supervised worker pools, and a content-addressed
// result cache, behind an HTTP API (server.go) and an in-process API
// (this file).
//
// The durability contract: once Submit acknowledges a job it survives
// process crashes — the journal (journal.go) replays it on restart; a
// completed job is never re-run (its bytes are in the cache); an
// in-flight job at crash time is re-queued and retried. The determinism
// contract: a job's result bytes are identical whether computed inline,
// by a worker, on a post-crash retry, or served from cache — asserted in
// determinism_test.go the way parallel_test.go asserts serial ≡ parallel.
//
// The failure policy: structured crashes (sim.CrashError and friends)
// retry under exponential backoff with seeded jitter, up to MaxRetries;
// a job that fails twice with the same crash fingerprint is failing
// deterministically and is quarantined by the circuit breaker instead of
// burning retries; deadline overruns carry no fingerprint and always
// retry (flaky infrastructure, not a reproducible bug).
package farm

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand/v2"
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
	StatePending     JobState = "pending"     // queued, awaiting a worker
	StateRunning     JobState = "running"     // claimed by a worker
	StateBackoff     JobState = "backoff"     // failed, waiting out the retry delay
	StateDone        JobState = "done"        // result bytes in the cache
	StateFailed      JobState = "failed"      // retries exhausted
	StateQuarantined JobState = "quarantined" // deterministic crash, circuit broken
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateQuarantined
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
	Error       string   `json:"error,omitempty"`       // last failure (truncated)
	Fingerprint string   `json:"fingerprint,omitempty"` // last crash fingerprint
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
// telemetry registry under the farm/ prefix.
type Stats struct {
	Submitted   uint64 // specs accepted into the queue (including cache hits)
	Deduped     uint64 // submissions coalesced onto a still-running job
	Rejected    uint64 // submissions refused: queue full (HTTP 429)
	CacheHits   uint64 // submissions served from the result cache (no execution)
	CacheMisses uint64 // jobs that had to execute
	Completed   uint64 // jobs that reached done (executed, not cached)
	Retries     uint64 // failed attempts that were re-queued
	Failed      uint64 // jobs that exhausted their retries
	Quarantined uint64 // jobs circuit-broken on a repeated fingerprint
	Deadlines   uint64 // attempts abandoned at the per-job deadline
	Restarts    uint64 // worker goroutines restarted after a panic escape
}

// Options configures a Farm.
type Options struct {
	// Dir is the persistence root: journal, checkpoint and result cache
	// all live under it. Required.
	Dir string

	// Workers is the supervised worker count; <= 0 selects GOMAXPROCS.
	Workers int

	// QueueCap bounds the live jobs (pending + running + backoff).
	// Submissions beyond it are rejected — the admission-control /
	// backpressure signal the HTTP layer turns into 429. <= 0 means 1024.
	QueueCap int

	// MaxRetries is the number of re-executions a failing job gets after
	// its first attempt (so MaxRetries+1 attempts total). Negative means
	// zero.
	MaxRetries int

	// BackoffBase and BackoffMax shape the retry delay: attempt k waits
	// BackoffBase·2^(k-1), capped at BackoffMax, with ±50% seeded jitter.
	// Zero bases default to 100ms / 10s.
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// JobDeadline bounds one execution attempt; past it the attempt is
	// recorded as a deadline failure (retryable, no fingerprint) and the
	// worker moves on. Zero disables.
	JobDeadline time.Duration

	// JitterSeed seeds the backoff jitter stream. Zero selects a fixed
	// default — all farm randomness is explicitly seeded.
	JitterSeed uint64

	// CodeVersion replaces the package CodeVersion in cache keys.
	CodeVersion string

	// SyncJournal fsyncs every journal append. The daemon turns this on;
	// tests leave it off for speed (the journal is still crash-safe
	// against process death either way — fsync guards power loss).
	SyncJournal bool

	// CheckpointEvery folds the journal into the checkpoint after this
	// many appends. <= 0 means 256.
	CheckpointEvery int

	// ExecWrap, when set, interposes on every execution attempt: tests
	// use it to inject panic schedules, hangs and failures. next runs the
	// real executor.
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
	if out.MaxRetries < 0 {
		out.MaxRetries = 0
	}
	if out.BackoffBase <= 0 {
		out.BackoffBase = 100 * time.Millisecond
	}
	if out.BackoffMax <= 0 {
		out.BackoffMax = 10 * time.Second
	}
	if out.JitterSeed == 0 {
		out.JitterSeed = 0x9e3779b97f4a7c15
	}
	if out.CodeVersion == "" {
		out.CodeVersion = CodeVersion
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
	timers  map[uint64]*time.Timer // pending backoff re-queues
	rng     *rand.Rand             // seeded jitter stream
	stats   Stats

	draining bool
	closed   bool
	stopCh   chan struct{} // closed on Kill/Drain: abandons in-flight waits

	registry *telemetry.Registry
	wg       sync.WaitGroup // supervisors
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
		timers:  make(map[uint64]*time.Timer),
		rng:     rand.New(rand.NewPCG(opt.JitterSeed, 0x5eed)),
		stopCh:  make(chan struct{}),
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

// Start launches the supervised workers.
func (f *Farm) Start() {
	for w := 0; w < f.opt.Workers; w++ {
		f.wg.Add(1)
		go f.supervise(w)
	}
}

// supervise runs one worker slot, restarting its loop whenever a panic
// escapes (worker death must not shrink the pool).
func (f *Farm) supervise(w int) {
	defer f.wg.Done()
	for {
		done := f.workerLoop(w)
		if done {
			return
		}
		f.mu.Lock()
		f.stats.Restarts++
		f.mu.Unlock()
	}
}

// workerLoop claims and runs jobs until shutdown. Returns true on clean
// shutdown, false when a panic was recovered and the loop must restart.
func (f *Farm) workerLoop(_ int) (done bool) {
	defer func() {
		if r := recover(); r != nil {
			done = false
		}
	}()
	for {
		job := f.claim()
		if job == nil {
			return true
		}
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
			id := f.ready[0]
			f.ready = f.ready[1:]
			job := f.jobs[id]
			if job == nil || job.State != StatePending {
				continue // superseded while queued
			}
			job.State = StateRunning
			job.Attempts++
			f.running++
			f.record(job, &record{Op: "start", ID: id, Attempt: job.Attempts})
			return job
		}
		f.cond.Wait()
	}
}

// runJob executes one claimed job and applies the outcome policy.
func (f *Farm) runJob(job *Job) {
	out, err := f.execute(job)

	f.mu.Lock()
	defer f.mu.Unlock()
	f.running--
	if f.closed {
		// Kill() raced with the execution: the journal still says
		// "running", so recovery re-queues the job. Recording nothing is
		// exactly the crash semantics being simulated.
		f.cond.Broadcast()
		return
	}
	defer f.cond.Broadcast() // wake Drain/WaitJob watchers

	if err == nil {
		sum := sha256.Sum256(out)
		if perr := f.cache.Put(job.Key, out); perr != nil {
			// Result computed but not persistable: fail the attempt so
			// the retry ladder gets another go at the filesystem.
			err = fmt.Errorf("farm: persisting result: %w", perr)
		} else {
			job.State = StateDone
			job.ResultHash = hex.EncodeToString(sum[:])
			job.Error = ""
			f.stats.Completed++
			f.record(job, &record{Op: "done", ID: job.ID, ResultHash: job.ResultHash})
			return
		}
	}

	fp := failureFingerprint(err)
	msg := truncateErr(err)
	if errors.Is(err, context.DeadlineExceeded) {
		f.stats.Deadlines++
	}

	// Circuit breaker: the same fingerprint twice in a row means the
	// failure is deterministic — retrying cannot help, quarantine with
	// the repro pointer instead.
	if fp != "" && fp == job.Fingerprint {
		job.State = StateQuarantined
		job.Error = msg
		f.stats.Quarantined++
		f.record(job, &record{Op: "quarantine", ID: job.ID, Err: msg, Fingerprint: fp})
		return
	}
	job.Error = msg
	job.Fingerprint = fp

	if job.Attempts > f.opt.MaxRetries {
		job.State = StateFailed
		f.stats.Failed++
		f.record(job, &record{Op: "fail", ID: job.ID, Attempt: job.Attempts,
			Err: msg, Fingerprint: fp, Terminal: true})
		return
	}

	job.State = StateBackoff
	f.stats.Retries++
	f.record(job, &record{Op: "fail", ID: job.ID, Attempt: job.Attempts,
		Err: msg, Fingerprint: fp})
	delay := f.backoff(job.Attempts)
	id := job.ID
	f.timers[id] = time.AfterFunc(delay, func() { f.requeue(id) })
}

// backoff computes the retry delay for the k-th failed attempt:
// base·2^(k-1) capped at max, jittered ±50% from the seeded stream.
// Called with the farm mutex held (the rng is not concurrency-safe).
func (f *Farm) backoff(attempt int) time.Duration {
	d := f.opt.BackoffBase
	for i := 1; i < attempt && d < f.opt.BackoffMax; i++ {
		d *= 2
	}
	if d > f.opt.BackoffMax {
		d = f.opt.BackoffMax
	}
	// jitter in [0.5, 1.5)
	return time.Duration(float64(d) * (0.5 + f.rng.Float64()))
}

// requeue moves a backoff job back to pending when its timer fires.
func (f *Farm) requeue(id uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.timers, id)
	if f.closed || f.draining {
		return // recovery/drain will re-queue from the journal state
	}
	job := f.jobs[id]
	if job == nil || job.State != StateBackoff {
		return
	}
	job.State = StatePending
	f.ready = append(f.ready, id)
	f.cond.Signal()
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
// identity, or "" for failures that must always retry (deadlines,
// shutdown races) because they say nothing about the job itself.
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
		return "" // flaky infrastructure: always worth a retry
	}
	if err != nil {
		// Other errors (config resolution, verification mismatches…) are
		// deterministic in practice: fingerprint on the message so the
		// circuit breaker stops the second identical failure.
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
// the durability contract.
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
	key, err := spec.CacheKey(f.opt.CodeVersion)
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
	// already holds. Failed/quarantined jobs do not absorb — resubmission
	// is the operator's "try again" signal and gets a fresh job.
	if id, ok := f.byKey[key]; ok {
		if job := f.jobs[id]; job != nil && job.State != StateFailed && job.State != StateQuarantined {
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

// liveLocked counts jobs occupying queue capacity (mutex held): ready,
// running, and backoff jobs waiting on a retry timer all hold a slot.
func (f *Farm) liveLocked() int {
	return f.running + len(f.ready) + len(f.timers)
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

// WaitJob blocks until the job reaches a terminal state (or ctx ends).
func (f *Farm) WaitJob(ctx context.Context, id uint64) (*Job, error) {
	for {
		job, err := f.Status(id)
		if err != nil {
			return nil, err
		}
		if job.State.Terminal() {
			return job, nil
		}
		select {
		case <-ctx.Done():
			return job, ctx.Err()
		case <-time.After(2 * time.Millisecond):
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
		f.mu.Unlock()
		select {
		case <-ctx.Done():
		case <-time.After(2 * time.Millisecond):
		}
		f.mu.Lock()
	}
	timedOut := f.running > 0
	f.closed = true
	close(f.stopCh)
	err := f.journal.checkpoint(f.nextID, f.jobs)
	if cerr := f.journal.close(); err == nil {
		err = cerr
	}
	for _, t := range f.timers {
		t.Stop()
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
	for _, t := range f.timers {
		t.Stop()
	}
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
	r.Counter(prefix+"/submitted", &f.stats.Submitted)
	r.Counter(prefix+"/deduped", &f.stats.Deduped)
	r.Counter(prefix+"/rejected", &f.stats.Rejected)
	r.Counter(prefix+"/cache_hits", &f.stats.CacheHits)
	r.Counter(prefix+"/cache_misses", &f.stats.CacheMisses)
	r.Counter(prefix+"/completed", &f.stats.Completed)
	r.Counter(prefix+"/retries", &f.stats.Retries)
	r.Counter(prefix+"/failed", &f.stats.Failed)
	r.Counter(prefix+"/quarantined", &f.stats.Quarantined)
	r.Counter(prefix+"/deadline_abandons", &f.stats.Deadlines)
	r.Counter(prefix+"/worker_restarts", &f.stats.Restarts)
	r.Gauge(prefix+"/queue_depth", func() float64 { return float64(f.liveLocked()) })
	r.Gauge(prefix+"/running", func() float64 { return float64(f.running) })
	r.Gauge(prefix+"/jobs_total", func() float64 { return float64(len(f.jobs)) })
}
