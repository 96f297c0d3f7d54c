// The executor: one job spec in, canonical result bytes out. Execute is
// deliberately a pure function of (spec, code version) — no farm state,
// no clocks, no randomness beyond the seeds in the spec — so the same
// spec produces the same bytes whether it runs inline in a CLI, on a
// farm worker, on a re-run after a crash, or never (served from cache).
package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"github.com/virec/virec/internal/difftest"
	"github.com/virec/virec/internal/experiments"
	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/telemetry"
)

// Execute runs the job described by spec and returns its canonical
// result bytes. ctx cancels between simulations (a single simulation is
// not interruptible); on cancellation the error wraps ctx.Err().
// Simulation crashes surface as the structured errors sim.Run produces
// (*sim.CrashError and friends), whose message the farm records with the
// job's failure.
func Execute(ctx context.Context, spec *Spec) ([]byte, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	switch spec.Kind {
	case KindSim:
		return execSim(spec.Sim)
	case KindDifftest:
		return execDifftest(ctx, spec.Difftest)
	case KindExperiment:
		return execExperiment(ctx, spec.Experiment)
	}
	return nil, fmt.Errorf("farm: unknown job kind %q", spec.Kind)
}

// SimResult is the canonical result document of a sim job. A sim job
// writes it without building it (simResult), in the bytes
// marshalCanonical gives it; clients decode results into it.
type SimResult struct {
	Spec    *SimSpec            `json:"spec"`
	Cycles  uint64              `json:"cycles"`
	Insts   uint64              `json:"insts"`
	IPC     string              `json:"ipc"` // fixed 6-decimal rendering
	Metrics *telemetry.Snapshot `json:"metrics"`
}

func execSim(s *SimSpec) ([]byte, error) {
	cfg, err := s.simConfig()
	if err != nil {
		return nil, err
	}
	return simResult(s, cfg)
}

// resultBufs holds the buffers sim results are written into.
var resultBufs = sync.Pool{New: func() any { return new([]byte) }}

// simResult runs cfg and returns the result document of spec s: the
// bytes marshalCanonical gives the SimResult of sim.Simulate(cfg), with
// Run's cycles, instructions and IPC. It builds neither the Result nor its
// snapshot: the run's registry writes the metrics into a pooled buffer,
// and the document leaves as a copy of its length.
func simResult(s *SimSpec, cfg sim.Config) ([]byte, error) {
	spec, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	sys, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	defer sys.Release()
	if err := sys.Exec(); err != nil {
		return nil, err
	}
	var insts uint64
	for _, c := range sys.Cores {
		insts += c.Stats.Insts
	}
	cycles := sys.Cycles()

	buf := resultBufs.Get().(*[]byte)
	defer resultBufs.Put(buf)
	b := append((*buf)[:0], `{"spec":`...)
	b = append(b, spec...)
	b = strconv.AppendUint(append(b, `,"cycles":`...), cycles, 10)
	b = strconv.AppendUint(append(b, `,"insts":`...), insts, 10)
	b = strconv.AppendFloat(append(b, `,"ipc":"`...), float64(insts)/float64(cycles), 'f', 6, 64)
	b, err = sys.Registry.AppendJSON(append(b, `","metrics":`...), cycles)
	b = append(b, "}\n"...)
	*buf = b
	if err != nil {
		return nil, err
	}
	return bytes.Clone(b), nil
}

// DifftestResult is the canonical result document of a difftest job. A
// divergence is a *successful* job whose result reports a real bug; only
// infrastructure failures (run-error divergences aside — those ride in
// the report) fail the job itself.
type DifftestResult struct {
	Seed       uint64               `json:"seed"`
	Scenarios  int                  `json:"scenarios"`
	Commits    uint64               `json:"commits"`
	Divergence *difftest.Divergence `json:"divergence,omitempty"`
}

func execDifftest(ctx context.Context, s *DifftestSpec) ([]byte, error) {
	k := difftest.Generate(s.Seed, difftest.GenConfigForSeed(s.Seed))
	scenarios := difftest.Matrix()
	if len(s.Scenarios) > 0 {
		scenarios = scenarios[:0]
		for _, text := range s.Scenarios {
			sc, err := difftest.ParseScenario(text)
			if err != nil {
				return nil, fmt.Errorf("farm: %w", err)
			}
			scenarios = append(scenarios, sc)
		}
	}
	doc := DifftestResult{Seed: s.Seed}
	// One scenario per Check call so cancellation (job deadlines, drain)
	// is observed between scenarios, mirroring sweep.SimsCtx granularity.
	for _, sc := range scenarios {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("farm: difftest seed %d abandoned: %w", s.Seed, err)
		}
		rep := difftest.Check(k, difftest.CheckOpts{
			Scenarios: []difftest.Scenario{sc},
			MaxCycles: s.MaxCycles,
		})
		doc.Commits += rep.Commits
		doc.Scenarios++
		if rep.Divergence != nil {
			doc.Divergence = rep.Divergence
			break
		}
	}
	return marshalCanonical(doc)
}

func execExperiment(ctx context.Context, s *ExperimentSpec) ([]byte, error) {
	// Serial inside the worker: farm-level parallelism comes from running
	// many jobs, and serial execution keeps one job's footprint bounded.
	// Output bytes are identical at any parallelism anyway.
	rep, err := experiments.Run(s.Name, experiments.Options{
		Quick:    s.Quick,
		Iters:    s.Iters,
		Parallel: 1,
		Ctx:      ctx,
	})
	if err != nil {
		return nil, err
	}
	return rep.Render(s.Format)
}

// marshalCanonical renders a result document as compact JSON with a
// trailing newline. encoding/json sorts map keys (the telemetry snapshot
// maps) and emits struct fields in declaration order, so the bytes are
// deterministic.
func marshalCanonical(v any) ([]byte, error) {
	out, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
