package difftest

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/virec/virec/internal/asm"
)

// Artifact is a replayable record of a divergence: everything needed to
// reproduce the failure without the generator — the seed and generator
// configuration (to regenerate bit-identically), the program text itself
// (so the repro survives generator changes), the failing scenario, and
// the shrunk form when the shrinker ran.
type Artifact struct {
	Seed       uint64      `json:"seed"`
	GenConfig  GenConfig   `json:"gen_config"`
	Scenario   string      `json:"scenario"`
	Divergence *Divergence `json:"divergence"`
	Program    string      `json:"program"` // assembler text, asm.Assemble syntax

	// Shrunk fields are present when the shrinker minimized the repro.
	ShrunkScenario   string      `json:"shrunk_scenario,omitempty"`
	ShrunkDivergence *Divergence `json:"shrunk_divergence,omitempty"`
	ShrunkProgram    string      `json:"shrunk_program,omitempty"`
	ShrunkInsts      int         `json:"shrunk_insts,omitempty"`
}

// NewArtifact records a failing kernel; pass a nil shrink result when the
// shrinker was skipped or could not reproduce.
func NewArtifact(k *Kernel, sc Scenario, d *Divergence, sr *ShrinkResult) *Artifact {
	a := &Artifact{
		Seed:       k.Seed,
		GenConfig:  k.Cfg,
		Scenario:   sc.String(),
		Divergence: d,
		Program:    k.Text(),
	}
	if sr != nil {
		a.ShrunkScenario = sr.Scenario.String()
		a.ShrunkDivergence = sr.Divergence
		a.ShrunkProgram = sr.Kernel.Text()
		a.ShrunkInsts = sr.Insts
	}
	return a
}

// Write stores the artifact as seed-<hex>.json under dir (created if
// needed) and returns the path.
func (a *Artifact) Write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("seed-%016x.json", a.Seed))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// LoadArtifact reads an artifact written by Write.
func LoadArtifact(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("difftest: %s: %w", path, err)
	}
	return &a, nil
}

// Kernels reassembles the artifact's programs: the original kernel and,
// when present, the shrunk one (nil otherwise). Reassembled kernels check
// and replay but do not shrink further (text carries no construct table).
func (a *Artifact) Kernels() (orig, shrunk *Kernel, err error) {
	prog, err := asm.Assemble(a.Program)
	if err != nil {
		return nil, nil, fmt.Errorf("difftest: artifact program: %w", err)
	}
	orig = KernelFromProgram(a.Seed, a.GenConfig, prog)
	if a.ShrunkProgram != "" {
		sp, err := asm.Assemble(a.ShrunkProgram)
		if err != nil {
			return nil, nil, fmt.Errorf("difftest: artifact shrunk program: %w", err)
		}
		shrunk = KernelFromProgram(a.Seed, a.GenConfig, sp)
	}
	return orig, shrunk, nil
}

// Replay re-checks the artifact's original program under its recorded
// scenario and returns the resulting report.
func (a *Artifact) Replay(opts CheckOpts) (*Report, error) {
	sc, err := ParseScenario(a.Scenario)
	if err != nil {
		return nil, err
	}
	k, _, err := a.Kernels()
	if err != nil {
		return nil, err
	}
	opts.Scenarios = []Scenario{sc}
	return Check(k, opts), nil
}
