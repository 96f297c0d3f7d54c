// Package experiments regenerates every table and figure of the ViReC
// paper's evaluation (Section 6). Each experiment produces machine-
// readable rows (stats.Table) with the same series the paper plots, plus
// notes summarizing the headline comparisons. Absolute numbers differ
// from the paper's gem5/CACTI setup; the experiments are judged on shape:
// who wins, by roughly what factor, and where the crossovers fall.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/stats"
	"github.com/virec/virec/internal/sweep"
	"github.com/virec/virec/internal/telemetry"
)

// Options tunes experiment size. Quick shrinks iteration counts and sweep
// densities for smoke runs; the defaults match the reported results.
type Options struct {
	Iters int  // per-thread inner iterations (0 = default per experiment)
	Quick bool // smaller sweeps for fast runs

	// Parallel is the number of sweep workers simulations fan out over:
	// 1 runs everything serially inline, 0 or negative uses all CPUs.
	// Results are byte-identical at any setting (see internal/sweep).
	Parallel int

	// OnResult, when set, observes every simulation result an experiment
	// produces, in submission order regardless of Parallel (so a telemetry
	// merge over it is deterministic). It runs on the caller's goroutine
	// after each sweep completes.
	OnResult func(*sim.Result)

	// Ctx, when non-nil, cancels the experiment's sweeps: once done, no
	// new simulation starts and the experiment returns the context error.
	// Farm job deadlines and graceful drains use this; nil means no
	// cancellation and leaves behaviour (and output bytes) unchanged.
	Ctx context.Context

	// MetricsEvery, when > 0 together with OnDeltas, streams heartbeat
	// deltas from every simulation at that cycle cadence. OnDeltas
	// receives each job's complete delta stream on the caller's
	// goroutine after the sweep, in submission order regardless of
	// Parallel, so the concatenated output is byte-identical between
	// serial and parallel runs. Each stream starts with a Reset head and
	// folds to that job's final Result.Metrics.
	MetricsEvery uint64
	// OnDeltas observes one finished job's heartbeat stream (see
	// MetricsEvery). It fires before OnResult for the same sweep.
	OnDeltas func(stream []*telemetry.Delta)
}

// ctx returns the cancellation context in effect.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// engine returns the sweep engine the Parallel setting selects.
func (o Options) engine() sweep.Engine {
	if o.Parallel == 1 {
		return sweep.Serial
	}
	return sweep.New(o.Parallel)
}

// batch queues simulation configs so an experiment can declare every run
// up front, execute them in one parallel sweep, and then reduce results
// in the same order a serial loop would have produced them.
type batch struct {
	cfgs []sim.Config
}

// add enqueues a config and returns its job index into run's results.
func (b *batch) add(cfg sim.Config) int {
	b.cfgs = append(b.cfgs, cfg)
	return len(b.cfgs) - 1
}

// run executes every queued sim with opt's engine.
func (b *batch) run(opt Options) ([]*sim.Result, error) {
	var results []*sim.Result
	var err error
	if opt.MetricsEvery > 0 && opt.OnDeltas != nil {
		var streams [][]*telemetry.Delta
		results, streams, err = sweep.SimsDeltas(opt.ctx(), opt.engine(), b.cfgs, opt.MetricsEvery)
		if err != nil {
			return nil, err
		}
		for _, s := range streams {
			opt.OnDeltas(s)
		}
	} else {
		results, err = sweep.SimsCtx(opt.ctx(), opt.engine(), b.cfgs)
		if err != nil {
			return nil, err
		}
	}
	if opt.OnResult != nil {
		for _, r := range results {
			opt.OnResult(r)
		}
	}
	return results, nil
}

// Report is the output of one experiment.
type Report struct {
	Name   string
	Title  string
	Tables []*stats.Table
	Notes  []string
}

func (r *Report) String() string {
	out := fmt.Sprintf("== %s: %s ==\n", r.Name, r.Title)
	for _, t := range r.Tables {
		out += "\n" + t.String()
	}
	if len(r.Notes) > 0 {
		out += "\n"
		for _, n := range r.Notes {
			out += "note: " + n + "\n"
		}
	}
	return out
}

func (r *Report) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// CSV renders every table as comma-separated values with a comment line
// naming the experiment and table index.
func (r *Report) CSV() string {
	out := ""
	for i, t := range r.Tables {
		out += fmt.Sprintf("# %s table %d\n%s", r.Name, i, t.CSV())
	}
	for _, n := range r.Notes {
		out += "# note: " + n + "\n"
	}
	return out
}

// MarshalJSON emits {name, title, tables: [{header, rows}], notes}.
func (r *Report) MarshalJSON() ([]byte, error) {
	type jsonTable struct {
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}
	tables := make([]jsonTable, len(r.Tables))
	for i, t := range r.Tables {
		tables[i] = jsonTable{Header: t.Header(), Rows: t.Rows()}
	}
	return json.Marshal(struct {
		Name   string      `json:"name"`
		Title  string      `json:"title"`
		Tables []jsonTable `json:"tables"`
		Notes  []string    `json:"notes"`
	}{r.Name, r.Title, tables, r.Notes})
}

// runner is one experiment implementation.
type runner struct {
	title string
	run   func(opt Options) (*Report, error)
}

var registry = map[string]runner{}

func register(name, title string, run func(opt Options) (*Report, error)) {
	registry[name] = runner{title: title, run: run}
}

// Names lists available experiments in a stable order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Title returns an experiment's description.
func Title(name string) string { return registry[name].title }

// Run executes the named experiment.
func Run(name string, opt Options) (*Report, error) {
	r, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	rep, err := r.run(opt)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", name, err)
	}
	rep.Name = name
	rep.Title = r.title
	return rep, nil
}

// iters picks the iteration count: option override, quick, or default.
func (o Options) iters(def int) int {
	if o.Iters > 0 {
		return o.Iters
	}
	if o.Quick {
		return def / 4
	}
	return def
}
