// Package sweep is the parallel sweep engine behind the experiment
// harness: a fixed worker pool that fans fully independent, deterministic
// simulation jobs across GOMAXPROCS workers while preserving the exact
// observable behaviour of a serial loop.
//
// The determinism contract:
//
//   - Jobs must be independent (no shared mutable state) and individually
//     deterministic. Every sim.Simulate call satisfies both: each run
//     builds its own memory, cores and caches from a Config.
//   - Results are collected in submission order, indexed by job number,
//     so reduction code observes exactly the sequence a serial loop would
//     have produced. Parallel and serial execution of the same job list
//     yield byte-identical reports.
//   - Errors propagate fail-fast: after the first failure no new job is
//     started, and the error returned is the failure with the lowest job
//     index among those that ran — again matching what a serial loop
//     would have reported (a serial loop stops at the lowest-index
//     failure; any higher-index failures it would never have seen are
//     discarded here).
//   - A panicking job does not kill the worker goroutine silently: the
//     panic value is captured and re-raised on the caller's goroutine.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/telemetry"
)

// Engine is a sweep executor with a fixed worker count. The zero value is
// not useful; construct with New. Engines are stateless and cheap — they
// carry only the worker count — so they can be freely copied.
type Engine struct {
	workers int
}

// New returns an engine running up to workers jobs concurrently.
// workers <= 0 selects GOMAXPROCS (all available cores).
func New(workers int) Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return Engine{workers: workers}
}

// Serial is the single-worker engine: jobs run inline on the caller's
// goroutine in submission order, with no goroutines spawned. It is the
// reference semantics the parallel path must reproduce.
var Serial = Engine{workers: 1}

// Workers returns the engine's concurrency.
func (e Engine) Workers() int {
	if e.workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.workers
}

// panicError carries a captured worker panic to the caller's goroutine.
type panicError struct {
	index int
	value any
}

// ForEach runs fn(i) for every i in [0, n), fanning calls across the
// engine's workers. It returns the lowest-index error, or nil when every
// job succeeds. With one worker the calls happen inline and in order.
func (e Engine) ForEach(n int, fn func(i int) error) error {
	return e.ForEachCtx(context.Background(), n, fn)
}

// ForEachCtx is ForEach with cancellation: once ctx is done, no new job
// starts — workers stop claiming promptly instead of finishing the whole
// batch — and ctx.Err() is returned (job errors from jobs that did run
// still take precedence, preserving the lowest-index contract). Jobs
// already in flight run to completion; fn itself is responsible for
// observing ctx if it wants to stop mid-job. With context.Background()
// the behaviour — including every byte of the serial path — is identical
// to ForEach.
func (e Engine) ForEachCtx(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := e.Workers()
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next    atomic.Int64 // next job index to claim
		stopped atomic.Bool  // set on first failure: no new jobs start
		wg      sync.WaitGroup
	)
	errs := make([]error, n)
	panics := make([]*panicError, workers)

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if stopped.Load() || ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				err, pv := runJob(fn, i)
				if pv != nil {
					panics[w] = pv
					stopped.Store(true)
					return
				}
				if err != nil {
					errs[i] = err
					stopped.Store(true)
				}
			}
		}(w)
	}
	wg.Wait()

	// Re-raise the lowest-index captured panic on the caller's goroutine
	// so a crashing job behaves like it would in a serial loop.
	var repanic *panicError
	for _, pv := range panics {
		if pv != nil && (repanic == nil || pv.index < repanic.index) {
			repanic = pv
		}
	}
	if repanic != nil {
		panic(fmt.Sprintf("sweep: job %d panicked: %v", repanic.index, repanic.value))
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// runJob invokes fn(i), converting a panic into a captured panicError.
func runJob(fn func(int) error, i int) (err error, pv *panicError) {
	defer func() {
		if r := recover(); r != nil {
			pv = &panicError{index: i, value: r}
		}
	}()
	return fn(i), nil
}

// Map applies fn to every item, in parallel across the engine's workers,
// and returns the results in item order. On error the partial results are
// discarded and the lowest-index error is returned.
func Map[In, Out any](e Engine, items []In, fn func(item In, i int) (Out, error)) ([]Out, error) {
	return MapCtx(context.Background(), e, items, fn)
}

// MapCtx is Map with cancellation (see ForEachCtx).
func MapCtx[In, Out any](ctx context.Context, e Engine, items []In, fn func(item In, i int) (Out, error)) ([]Out, error) {
	out := make([]Out, len(items))
	err := e.ForEachCtx(ctx, len(items), func(i int) error {
		v, err := fn(items[i], i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Sims runs one simulation per config and returns the results in config
// order — the workhorse call behind every experiment sweep.
func Sims(e Engine, cfgs []sim.Config) ([]*sim.Result, error) {
	return SimsCtx(context.Background(), e, cfgs)
}

// SimsCtx is Sims with cancellation: once ctx is done no new simulation
// starts (a simulation already ticking runs to completion — individual
// runs are not interruptible). Farm job deadlines and SIGTERM drains use
// this to stop a sweep between sims instead of waiting out the batch.
func SimsCtx(ctx context.Context, e Engine, cfgs []sim.Config) ([]*sim.Result, error) {
	return MapCtx(ctx, e, cfgs, func(cfg sim.Config, _ int) (*sim.Result, error) {
		return sim.Simulate(cfg)
	})
}

// SimsDeltas runs one simulation per config with heartbeat streaming
// enabled at the given cadence, collecting each job's delta stream
// alongside its result, both indexed in submission order. Each job's
// stream starts with a Reset head (seq 0) and ends with the final delta
// sim.Run derives from the same snapshot stored in Result.Metrics, so
// folding stream[i] reproduces results[i].Metrics exactly. A job's
// OnHeartbeat callback only ever appends to that job's own slice — one
// job runs on one goroutine — so no synchronization is needed, and the
// collected streams are byte-identical between serial and parallel
// execution.
func SimsDeltas(ctx context.Context, e Engine, cfgs []sim.Config, every uint64) ([]*sim.Result, [][]*telemetry.Delta, error) {
	if every == 0 {
		every = 1 << 20
	}
	streams := make([][]*telemetry.Delta, len(cfgs))
	results := make([]*sim.Result, len(cfgs))
	err := e.ForEachCtx(ctx, len(cfgs), func(i int) error {
		cfg := cfgs[i]
		cfg.HeartbeatEvery = every
		cfg.OnHeartbeat = func(d *telemetry.Delta) { streams[i] = append(streams[i], d) }
		r, err := sim.Simulate(cfg)
		if err != nil {
			return err
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return results, streams, nil
}

// SimsMerged runs one simulation per config and additionally folds every
// job's telemetry snapshot into one aggregate, merged in submission order
// (counters and histogram buckets add element-wise; the aggregate's Cycle
// is the maximum job cycle). Because each job registers the same metric
// names, the merge is well-defined, and submission-order folding keeps the
// aggregate byte-identical between serial and parallel execution. The
// aggregate is nil when cfgs is empty.
func SimsMerged(e Engine, cfgs []sim.Config) ([]*sim.Result, *telemetry.Snapshot, error) {
	results, err := Sims(e, cfgs)
	if err != nil {
		return nil, nil, err
	}
	var agg *telemetry.Snapshot
	for _, r := range results {
		if r.Metrics == nil {
			continue
		}
		if agg == nil {
			agg = &telemetry.Snapshot{}
		}
		agg.Merge(r.Metrics)
	}
	return results, agg, nil
}
