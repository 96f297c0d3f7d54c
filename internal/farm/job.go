// Job specifications: the serializable descriptions of work the farm
// accepts, their validation, and the canonical cache key each one hashes
// to. A job spec is pure data — everything needed to reproduce the run is
// in the spec (or derivable from it deterministically), which is what
// makes results content-addressable: two submissions with the same spec,
// the same workload program bytes and the same code version must produce
// the same result bytes, so the second can be served from the cache.
package farm

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"github.com/virec/virec/internal/difftest"
	"github.com/virec/virec/internal/experiments"
	"github.com/virec/virec/internal/harden"
	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/vrmu"
	"github.com/virec/virec/internal/workloads"
)

// CodeVersion is folded into every cache key. Bump it whenever a change
// to the simulator, the workloads, the difftest generator or the
// experiment definitions can alter result bytes for an unchanged spec —
// stale cache entries then miss instead of serving wrong answers.
const CodeVersion = "virec-farm/2"

// Job kinds.
const (
	KindSim        = "sim"        // one simulation run
	KindDifftest   = "difftest"   // one seed through the co-simulation matrix
	KindExperiment = "experiment" // one paper experiment regeneration
)

// Spec describes one job. Exactly one of the kind-specific sub-specs
// must be set, matching Kind.
type Spec struct {
	Kind       string          `json:"kind"`
	Sim        *SimSpec        `json:"sim,omitempty"`
	Difftest   *DifftestSpec   `json:"difftest,omitempty"`
	Experiment *ExperimentSpec `json:"experiment,omitempty"`
}

// SimSpec describes a single simulation: the serializable subset of
// sim.Config the farm accepts over the wire. Workloads are referenced by
// name and resolved against the built-in kernel registry; a digest of the
// kernel's program is folded into the cache key so a recompiled kernel
// cannot hit a stale entry even under an unbumped code version.
type SimSpec struct {
	CoreKind string `json:"core_kind"` // sim.ParseCoreKind name
	Cores    int    `json:"cores,omitempty"`
	Threads  int    `json:"threads,omitempty"`
	Workload string `json:"workload"`
	Iters    int    `json:"iters,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`

	PhysRegs int    `json:"phys_regs,omitempty"`
	CtxPct   int    `json:"ctx_pct,omitempty"`
	Policy   string `json:"policy,omitempty"` // vrmu.ParsePolicy name, ViReC only

	Faults    string `json:"faults,omitempty"` // harden schedule name
	FaultSeed uint64 `json:"fault_seed,omitempty"`

	MaxCycles uint64 `json:"max_cycles,omitempty"`
}

// DifftestSpec describes one differential-verification job: generate the
// kernel for Seed and co-simulate it across the scenario list (the full
// standard matrix when empty).
type DifftestSpec struct {
	Seed      uint64   `json:"seed"`
	Scenarios []string `json:"scenarios,omitempty"`
	MaxCycles uint64   `json:"max_cycles,omitempty"`
}

// ExperimentSpec describes one experiment regeneration, rendered by
// experiments.Report.Render in the given format ("text", "csv" or "json";
// "text" when empty). The result bytes are exactly what
// `virec-experiments -exp Name` prints inline, so the CLI's farm mode is
// byte-identical to its local mode.
type ExperimentSpec struct {
	Name   string `json:"name"`
	Quick  bool   `json:"quick,omitempty"`
	Iters  int    `json:"iters,omitempty"`
	Format string `json:"format,omitempty"`
}

// Validate checks the spec is well-formed and every name it references
// resolves, so admission rejects garbage before it reaches a worker.
func (s *Spec) Validate() error {
	if s == nil {
		return fmt.Errorf("farm: nil job spec")
	}
	set := 0
	for _, p := range []bool{s.Sim != nil, s.Difftest != nil, s.Experiment != nil} {
		if p {
			set++
		}
	}
	if set != 1 {
		return fmt.Errorf("farm: spec must set exactly one of sim/difftest/experiment, got %d", set)
	}
	switch s.Kind {
	case KindSim:
		if s.Sim == nil {
			return fmt.Errorf("farm: kind %q without a sim spec", s.Kind)
		}
		_, err := s.Sim.simConfig()
		return err
	case KindDifftest:
		if s.Difftest == nil {
			return fmt.Errorf("farm: kind %q without a difftest spec", s.Kind)
		}
		for _, sc := range s.Difftest.Scenarios {
			if _, err := difftest.ParseScenario(sc); err != nil {
				return fmt.Errorf("farm: %w", err)
			}
		}
		return nil
	case KindExperiment:
		if s.Experiment == nil {
			return fmt.Errorf("farm: kind %q without an experiment spec", s.Kind)
		}
		e := s.Experiment
		if experiments.Title(e.Name) == "" {
			return fmt.Errorf("farm: unknown experiment %q (have %v)", e.Name, experiments.Names())
		}
		if err := experiments.CheckFormat(e.Format); err != nil {
			return fmt.Errorf("farm: %w", err)
		}
		return nil
	default:
		return fmt.Errorf("farm: unknown job kind %q", s.Kind)
	}
}

// simConfig resolves a SimSpec into a runnable sim.Config, validating
// every symbolic reference and every size sim.New would refuse.
func (s *SimSpec) simConfig() (sim.Config, error) {
	var cfg sim.Config
	kind, err := sim.ParseCoreKind(s.CoreKind)
	if err != nil {
		return cfg, fmt.Errorf("farm: %w", err)
	}
	spec, ok := workloads.ByName(s.Workload)
	if !ok {
		return cfg, fmt.Errorf("farm: unknown workload %q", s.Workload)
	}
	cfg = sim.Config{
		Kind:           kind,
		Cores:          s.Cores,
		ThreadsPerCore: s.Threads,
		Workload:       spec,
		Iters:          s.Iters,
		Seed:           s.Seed,
		PhysRegs:       s.PhysRegs,
		ContextPct:     s.CtxPct,
		MaxCycles:      s.MaxCycles,
	}
	if s.Policy != "" {
		if cfg.Policy, err = vrmu.ParsePolicy(s.Policy); err != nil {
			return cfg, fmt.Errorf("farm: %w", err)
		}
	}
	if s.Faults != "" {
		plan, ok := harden.PlanByName(s.Faults)
		if !ok {
			return cfg, fmt.Errorf("farm: unknown fault schedule %q", s.Faults)
		}
		cfg.Harden.Plan = plan
		cfg.Harden.FaultSeed = s.FaultSeed
		if cfg.Harden.FaultSeed == 0 {
			cfg.Harden.FaultSeed = s.Seed ^ 0xfa17d1ff
			if cfg.Harden.FaultSeed == 0 {
				cfg.Harden.FaultSeed = 0xfa17d1ff
			}
		}
	}
	if err := cfg.Check(); err != nil {
		return cfg, fmt.Errorf("farm: %w", err)
	}
	return cfg, nil
}

// canonicalBytes renders the spec as canonical JSON. encoding/json emits
// struct fields in declaration order and sorts map keys, so equal specs
// always produce equal bytes.
func (s *Spec) canonicalBytes() ([]byte, error) {
	return json.Marshal(s)
}

// kernelDigests memoizes programDigest: a kernel is hashed the first
// time a spec names it, and looked up after that.
var kernelDigests sync.Map // *workloads.Spec → *[sha256.Size]byte

// programDigest hashes a kernel's name and encoded program, once per
// kernel per process, so an edited kernel moves every cache key that
// names it.
func programDigest(w *workloads.Spec) *[sha256.Size]byte {
	if d, ok := kernelDigests.Load(w); ok {
		return d.(*[sha256.Size]byte)
	}
	b := append([]byte(w.Name), 0)
	for i := range w.Prog.Insts {
		b = w.Prog.Insts[i].Encode(b)
	}
	d := sha256.Sum256(b)
	got, _ := kernelDigests.LoadOrStore(w, &d)
	return got.(*[sha256.Size]byte)
}

// workloadDigests returns the program digests of every kernel the spec's
// execution depends on, one after another: the named kernel for sim
// jobs, every registered kernel for experiment jobs (experiments sweep
// across the suite), and nothing for difftest jobs (their kernels are
// generated from the seed, which is already in the spec; generator
// changes are covered by the code version).
func (s *Spec) workloadDigests() []byte {
	switch s.Kind {
	case KindSim:
		if w, ok := workloads.ByName(s.Sim.Workload); ok {
			return programDigest(w)[:]
		}
	case KindExperiment:
		all := workloads.All()
		out := make([]byte, 0, len(all)*sha256.Size)
		for _, w := range all {
			out = append(out, programDigest(w)[:]...)
		}
		return out
	}
	return nil
}

// CacheKey derives the content address of the job's result: a SHA-256
// over the code version, the canonical spec bytes and the program
// digests of the spec's kernels, each length-framed so field boundaries
// cannot alias. Identical keys guarantee identical result bytes (the
// determinism tests assert the converse direction: one key, one byte
// sequence, however computed).
func (s *Spec) CacheKey(codeVersion string) (string, error) {
	if err := s.Validate(); err != nil {
		return "", err
	}
	spec, err := s.canonicalBytes()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	frame := func(b []byte) {
		var n [8]byte
		for i := 0; i < 8; i++ {
			n[i] = byte(uint64(len(b)) >> (8 * i))
		}
		h.Write(n[:])
		h.Write(b)
	}
	frame([]byte(codeVersion))
	frame(spec)
	frame(s.workloadDigests())
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Summary renders a short human-readable identity for logs and status
// listings.
func (s *Spec) Summary() string {
	switch s.Kind {
	case KindSim:
		if s.Sim != nil {
			return fmt.Sprintf("sim %s/%s t%d seed=%#x", s.Sim.CoreKind, s.Sim.Workload, s.Sim.Threads, s.Sim.Seed)
		}
	case KindDifftest:
		if s.Difftest != nil {
			return fmt.Sprintf("difftest seed=%d scenarios=%d", s.Difftest.Seed, len(s.Difftest.Scenarios))
		}
	case KindExperiment:
		if s.Experiment != nil {
			return fmt.Sprintf("experiment %s", s.Experiment.Name)
		}
	}
	return "invalid"
}
