package sim_test

import (
	"testing"

	"github.com/virec/virec/internal/cpu/regfile"
	"github.com/virec/virec/internal/interp"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/vrmu"
	"github.com/virec/virec/internal/workloads"
)

// TestPipelineMatchesInterpreterInstructionCounts cross-checks the two
// independent execution engines: the timed pipeline must commit exactly
// the instructions the functional interpreter executes, for every kernel.
func TestPipelineMatchesInterpreterInstructionCounts(t *testing.T) {
	const iters = 64
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			// Functional execution.
			m := mem.NewMemory()
			var ctx interp.Context
			p := workloads.Params{Iters: iters, Seed: 0x9e3779b97f4a7c15}
			w.Setup(m, 0x10000, p, func(r isa.Reg, v uint64) { ctx.Set(r, v) })
			fn := interp.Precode(w.Prog).Run(&ctx, m, 100_000_000, nil)
			if !fn.Halted {
				t.Fatalf("interpreter did not halt within %d instructions", fn.Insts)
			}

			// Timed execution, single thread. Switch-on-miss replays
			// re-fetch squashed instructions but never double-commit:
			// the commit stage asserts strictly increasing sequence
			// numbers (cpu.Core's lastCommitSeq check panics on any
			// repeat), so commit counts match the interpreter exactly.
			res, err := sim.Simulate(sim.Config{
				Kind: sim.ViReC, ThreadsPerCore: 1,
				Workload: w, Iters: iters,
				ContextPct: 100, Policy: vrmu.LRC,
				ValidateValues: true,
				Seed:           0x9e3779b97f4a7c15,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Insts != fn.Insts {
				t.Errorf("pipeline committed %d instructions, interpreter executed %d",
					res.Insts, fn.Insts)
			}
		})
	}
}

// TestProvidersAgreeOnCommitCounts runs the same multithreaded workload on
// every provider: instruction counts must be identical (the register
// architecture changes timing, never architectural execution).
func TestProvidersAgreeOnCommitCounts(t *testing.T) {
	w := gather(t)
	kinds := []sim.CoreKind{sim.Banked, sim.ViReC, sim.Software, sim.PrefetchFull, sim.PrefetchExact}
	var counts []uint64
	for _, kind := range kinds {
		res, err := sim.Simulate(sim.Config{
			Kind: kind, ThreadsPerCore: 4,
			Workload: w, Iters: 64,
			ContextPct: 60, Policy: vrmu.LRC,
			ValidateValues: true,
		})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		counts = append(counts, res.Insts)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] != counts[0] {
			t.Errorf("%v committed %d instructions, %v committed %d",
				kinds[i], counts[i], kinds[0], counts[0])
		}
	}
}

// TestFPWorkloadsAcrossProviders runs the floating-point kernels on every
// provider with golden verification (bit-exact doubles).
func TestFPWorkloadsAcrossProviders(t *testing.T) {
	kinds := []sim.CoreKind{sim.Banked, sim.ViReC, sim.Software, sim.PrefetchExact}
	for _, name := range []string{"fpdot", "fptriad", "nbody"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		for _, kind := range kinds {
			t.Run(name+"/"+kind.String(), func(t *testing.T) {
				_, err := sim.Simulate(sim.Config{
					Kind: kind, ThreadsPerCore: 4,
					Workload: w, Iters: 64,
					ContextPct: 80, Policy: vrmu.LRC,
					ValidateValues: true,
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestFullArchitecturalStateEquivalence is the strong form of the
// count-equality tests above: for every shipped workload, on every
// provider and every ViReC replacement policy, the pipeline's final
// architectural state — all 64 registers of every thread plus every byte
// of every thread's data slab — must equal the functional interpreter's,
// bit for bit. The register comparison reads the commit-order shadow,
// which the commit stage feeds with the pipeline's actual writeback
// values, so a provider that corrupts a fill or spill cannot hide.
func TestFullArchitecturalStateEquivalence(t *testing.T) {
	const (
		iters   = 32
		threads = 2
		seed    = uint64(0x9e3779b97f4a7c15)
	)
	type variant struct {
		kind   sim.CoreKind
		policy vrmu.Policy
	}
	variants := []variant{{kind: sim.Banked}, {kind: sim.Software},
		{kind: sim.PrefetchFull}, {kind: sim.PrefetchExact}}
	for _, pol := range vrmu.AllPolicies() {
		variants = append(variants, variant{kind: sim.ViReC, policy: pol})
	}
	for _, w := range workloads.All() {
		for _, v := range variants {
			name := w.Name + "/" + v.kind.String()
			if v.kind == sim.ViReC {
				name += "/" + v.policy.String()
			}
			t.Run(name, func(t *testing.T) {
				cfg := sim.Config{
					Kind: v.kind, ThreadsPerCore: threads,
					Workload: w, Iters: iters,
					ContextPct: 60, Policy: v.policy,
					Seed: seed,
				}

				// Functional reference: same offload payload, same
				// address-space layout, one context per hardware thread.
				refMem := mem.NewMemory()
				refCtx := make([]interp.Context, threads)
				for th := 0; th < threads; th++ {
					base := cfg.ThreadSlabBase(0, th)
					p := workloads.Params{Iters: iters, Seed: seed, ThreadID: th}
					ctx := &refCtx[th]
					w.Setup(refMem, base, p, func(r isa.Reg, v uint64) { ctx.Set(r, v) })
				}
				pre := interp.Precode(w.Prog)
				for th := 0; th < threads; th++ {
					if res := pre.Run(&refCtx[th], refMem, 100_000_000, nil); !res.Halted {
						t.Fatalf("thread %d: interpreter did not halt within %d instructions", th, res.Insts)
					}
				}

				sys, err := sim.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sys.Run(); err != nil {
					t.Fatal(err)
				}

				for th := 0; th < threads; th++ {
					for r := isa.Reg(0); r < isa.NumRegs; r++ {
						got, want := sys.Cores[0].Thread(th).Shadow(r), refCtx[th].Get(r)
						if got != want {
							t.Errorf("thread %d: final %s = %#x, interpreter %#x", th, r, got, want)
						}
					}
					base := cfg.ThreadSlabBase(0, th)
					for off := uint64(0); off < w.SlabBytes; off += 8 {
						a := base + mem.Addr(off)
						if got, want := sys.Memory.Read64(a), refMem.Read64(a); got != want {
							t.Fatalf("thread %d: final mem[%#x] = %#x, interpreter %#x", th, a, got, want)
						}
					}
				}
			})
		}
	}
}

// TestExtensionsEndToEnd runs the future-work extensions with validation.
func TestExtensionsEndToEnd(t *testing.T) {
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			_, err := sim.Simulate(sim.Config{
				Kind: sim.ViReC, ThreadsPerCore: 6,
				Workload: w, Iters: 48,
				ContextPct: 50, Policy: vrmu.LRC,
				ViReCOpts:      regfile.ViReCConfig{GroupEvict: true, PrefetchNext: true},
				ValidateValues: true,
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
