// The executor: one job spec in, canonical result bytes out. Execute is
// deliberately a pure function of (spec, code version) — no farm state,
// no clocks, no randomness beyond the seeds in the spec — so the same
// spec produces the same bytes whether it runs inline in a CLI, on a
// farm worker, on a retry after a crash, or never (served from cache).
package farm

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"

	"github.com/virec/virec/internal/difftest"
	"github.com/virec/virec/internal/experiments"
	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/telemetry"
)

// Execute runs the job described by spec and returns its canonical
// result bytes. ctx cancels between simulations (a single simulation is
// not interruptible); on cancellation the error wraps ctx.Err().
// Simulation crashes surface as the structured errors sim.Run produces
// (*sim.CrashError and friends) — the farm's retry and circuit-breaker
// machinery classifies them by fingerprint.
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

// SimResult is the canonical result document of a sim job.
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
	res, err := sim.Simulate(cfg)
	if err != nil {
		return nil, err
	}
	doc := SimResult{
		Spec:    s,
		Cycles:  res.Cycles,
		Insts:   res.Insts,
		IPC:     strconv.FormatFloat(res.IPC, 'f', 6, 64),
		Metrics: res.Metrics,
	}
	return marshalCanonical(doc)
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
	// Each arm reproduces the CLI's inline rendering byte-for-byte:
	// text and json go through Println there (hence the extra newline),
	// csv through Print.
	switch s.Format {
	case "", "text":
		return append([]byte(rep.String()), '\n'), nil
	case "csv":
		return []byte(rep.CSV()), nil
	case "json":
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, err
		}
		return append(out, '\n'), nil
	}
	return nil, fmt.Errorf("farm: unknown experiment format %q", s.Format)
}

// marshalCanonical renders a result document as indented JSON with a
// trailing newline. encoding/json sorts map keys (the telemetry snapshot
// maps) and emits struct fields in declaration order, so the bytes are
// deterministic.
func marshalCanonical(v any) ([]byte, error) {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
