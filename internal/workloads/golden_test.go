package workloads_test

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
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

// allocsPerRun calls f once to warm it up, then returns the heap
// allocations and bytes a call makes, averaged over ten more.
func allocsPerRun(f func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestSetupAllocs: the golden models recompute the words they check from
// Params, so once a kernel's slab pages are touched its Setup allocates
// its verifier and nothing that grows with Iters (the same count and
// bytes at 160 and at 1024 iterations), and a passing verifier allocates
// nothing.
func TestSetupAllocs(t *testing.T) {
	for _, spec := range workloads.All() {
		var allocs, bytes [2]uint64
		for k, iters := range []int{160, 1024} {
			m := mem.NewMemory()
			var ctx interp.Context
			set, get := ctx.Set, ctx.Get
			p := workloads.DefaultParams(0)
			p.Iters = iters
			var verify workloads.Verify
			allocs[k], bytes[k] = allocsPerRun(func() { verify = spec.Setup(m, dataBase, p, set) })
			if allocs[k] > 1 {
				t.Errorf("%s at %d iterations: Setup makes %d allocations, want at most 1", spec.Name, iters, allocs[k])
			}
			if res := interp.Precode(spec.Prog).Run(&ctx, m, 100_000_000, nil); !res.Halted {
				t.Fatalf("%s at %d iterations did not halt", spec.Name, iters)
			}
			var err error
			if n, _ := allocsPerRun(func() { err = verify(get, m) }); n != 0 || err != nil {
				t.Errorf("%s at %d iterations: the verifier makes %d allocations and returns %v, want none and nil", spec.Name, iters, n, err)
			}
			m.Release()
		}
		if allocs[0] != allocs[1] || bytes[0] != bytes[1] {
			t.Errorf("%s: Setup makes %d allocations of %d bytes at 160 iterations, %d of %d at 1024",
				spec.Name, allocs[0], bytes[0], allocs[1], bytes[1])
		}
	}
}

// TestGoldenModelsLastStoreWins runs the kernels that store to an
// address more than once (scatter, gs and meabo) at 1024 iterations. An
// earlier store's value left at such an address must fail the golden
// model, which expects the last store's; and with two checked words
// corrupted, the model must name the lower address.
func TestGoldenModelsLastStoreWins(t *testing.T) {
	for _, name := range []string{"scatter", "gs", "meabo"} {
		t.Run(name, func(t *testing.T) {
			spec, _ := workloads.ByName(name)
			m := mem.NewMemory()
			defer m.Release()
			var ctx interp.Context
			p := workloads.DefaultParams(1)
			p.Iters = 1024
			verify := spec.Setup(m, dataBase, p, ctx.Set)
			stores := map[mem.Addr][]uint64{} // each address's stored values, in order
			res := interp.Precode(spec.Prog).Run(&ctx, m, 100_000_000, func(e interp.TraceEntry) {
				if e.Inst.IsStore() {
					stores[e.Addr] = append(stores[e.Addr], e.Data)
				}
			})
			if !res.Halted {
				t.Fatalf("did not halt (%d insts)", res.Insts)
			}
			if err := verify(ctx.Get, m); err != nil {
				t.Fatalf("final state: %v", err)
			}
			addrs := slices.Sorted(maps.Keys(stores))

			overwritten := 0
			for _, a := range addrs {
				vals := stores[a]
				last := vals[len(vals)-1]
				i := slices.IndexFunc(vals, func(v uint64) bool { return v != last })
				if i < 0 {
					continue
				}
				m.Write64(a, vals[i])
				err := verify(ctx.Get, m)
				m.Write64(a, last)
				if want := fmt.Sprintf("mem[%#x] = %d, want %d", a, vals[i], last); err == nil || err.Error() != want {
					t.Errorf("earlier store left at mem[%#x]: got %v, want %q", a, err, want)
				}
				overwritten++
			}
			if overwritten == 0 {
				t.Fatal("no address holds two different stores")
			}

			lo, hi := addrs[len(addrs)/3], addrs[2*len(addrs)/3]
			for _, a := range []mem.Addr{hi, lo} {
				m.Write64(a, ^m.Read64(a))
				if err := verify(ctx.Get, m); err == nil || !strings.HasPrefix(err.Error(), fmt.Sprintf("mem[%#x] = ", a)) {
					t.Errorf("after corrupting mem[%#x]: got %v, want it named", a, err)
				}
			}
		})
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
