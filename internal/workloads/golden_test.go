package workloads_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"github.com/virec/virec/internal/interp"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/workloads"
)

// TestGoldenModelsRejectCorruptedState holds every kernel's golden model
// to what it checks. The state the interpreter leaves must verify. Flipping
// the lowest word the run changed must fail and name that word's address,
// and adding 1 to every register must fail exactly the kernels whose model
// checks a register. No kernel may accept both corruptions.
func TestGoldenModelsRejectCorruptedState(t *testing.T) {
	checksReg := map[string]bool{
		"gather": true, "stride": true, "chase": true, "meabo": true, "lookup": true,
		"reduction": true, "bfs": true, "sel": true, "fpdot": true, "nbody": true,
	}
	for _, spec := range workloads.All() {
		t.Run(spec.Name, func(t *testing.T) {
			for _, iters := range []int{96, 1024} {
				t.Run(strconv.Itoa(iters), func(t *testing.T) {
					m := mem.NewMemory()
					defer m.Release()
					var ctx interp.Context
					p := workloads.DefaultParams(1)
					p.Iters = iters
					verify := spec.Setup(m, dataBase, p, ctx.Set)
					run := m.Overlay()
					defer run.Release()
					if res := interp.Precode(spec.Prog).Run(&ctx, run, 100_000_000, nil); !res.Halted {
						t.Fatalf("did not halt (%d insts)", res.Insts)
					}
					if err := verify(ctx.Get, run); err != nil {
						t.Fatalf("final state: %v", err)
					}

					rejected := false
					for a := dataBase; a < dataBase+mem.Addr(spec.SlabBytes); a += 8 {
						v := run.Read64(a)
						if v == m.Read64(a) {
							continue
						}
						run.Write64(a, ^v)
						err := verify(ctx.Get, run)
						run.Write64(a, v)
						if want := fmt.Sprintf("mem[%#x] ", a); err == nil || !strings.Contains(err.Error(), want) {
							t.Errorf("flipped mem[%#x], the lowest word the run changed: got %v", a, err)
						}
						rejected = rejected || err != nil
						break
					}

					bumped := ctx
					for r := isa.Reg(0); r < isa.NumRegs; r++ {
						bumped.Set(r, bumped.Get(r)+1)
					}
					err := verify(bumped.Get, run)
					if (err != nil) != checksReg[spec.Name] {
						t.Errorf("every register + 1: got %v, model checks a register: %v", err, checksReg[spec.Name])
					}
					if !rejected && err == nil {
						t.Error("neither corruption fails the golden model")
					}
				})
			}
		})
	}
}

// TestSetupNegativeIters: virec-sim's -iters and a farm sim spec's iters
// reach Setup unchecked. A negative count must get a verifier from every
// kernel, not a panic.
func TestSetupNegativeIters(t *testing.T) {
	for _, spec := range workloads.All() {
		m := mem.NewMemory()
		p := workloads.DefaultParams(0)
		p.Iters = -1
		if spec.Setup(m, dataBase, p, func(isa.Reg, uint64) {}) == nil {
			t.Errorf("%s: Setup returned no verifier", spec.Name)
		}
		m.Release()
	}
}

// TestSetupAllocs bounds what a kernel's Setup allocates once its slab's
// pages are touched: the expected-word list, the verifier closures and
// nothing per iteration. Four covers a kernel that checks a register and
// memory (both verifiers, their combination and the word list).
func TestSetupAllocs(t *testing.T) {
	m := mem.NewMemory()
	defer m.Release()
	set := func(isa.Reg, uint64) {}
	for _, spec := range workloads.All() {
		for _, iters := range []int{160, 1024} {
			p := workloads.DefaultParams(0)
			p.Iters = iters
			// AllocsPerRun's warm-up call touches the pages.
			allocs := testing.AllocsPerRun(3, func() { spec.Setup(m, dataBase, p, set) })
			if allocs > 4 {
				t.Errorf("%s at %d iterations: Setup makes %v allocations, want at most 4", spec.Name, iters, allocs)
			}
		}
	}
}

// TestKernelsHoldTheirCapacity runs every kernel at its MaxIters (at the
// benchmark's 32768 when unbounded) through the interpreter and its golden
// model. Two threads sit SlabBytes apart, closer than the simulator packs
// them, and are set up in order: data past a thread's slab is overwritten
// by the next thread's Setup, and data past one of its arrays by its own,
// so either fails verification.
func TestKernelsHoldTheirCapacity(t *testing.T) {
	for _, spec := range workloads.All() {
		iters := spec.MaxIters
		if iters == 0 {
			iters = 32768
		}
		m := mem.NewMemory()
		var ctxs [2]interp.Context
		var verify [2]workloads.Verify
		for th := range ctxs {
			p := workloads.DefaultParams(th)
			p.Iters = iters
			base := dataBase + mem.Addr(uint64(th)*spec.SlabBytes)
			verify[th] = spec.Setup(m, base, p, ctxs[th].Set)
		}
		pre := interp.Precode(spec.Prog)
		for th := range ctxs {
			if res := pre.Run(&ctxs[th], m, 100_000_000, nil); !res.Halted {
				t.Fatalf("%s thread %d at %d iters did not halt", spec.Name, th, iters)
			}
		}
		for th := range ctxs {
			if err := verify[th](ctxs[th].Get, m); err != nil {
				t.Errorf("%s thread %d at %d iters: %v", spec.Name, th, iters, err)
			}
		}
		m.Release()
	}
}
