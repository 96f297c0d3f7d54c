package difftest

import (
	"fmt"
	"strings"
	"testing"

	"github.com/virec/virec/internal/asm"
	"github.com/virec/virec/internal/cpu"
	"github.com/virec/virec/internal/interp"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/workloads"
)

// interpTrace is thread 0's full interpreter trace: Setup on a fresh
// memory, then one traced run.
func interpTrace(k *Kernel, cfg sim.Config) []interp.TraceEntry {
	m := mem.NewMemory()
	defer m.Release()
	var ctx interp.Context
	p := workloads.Params{Iters: 1, Seed: effSeed(k.Seed)}
	k.Spec.Setup(m, cfg.ThreadSlabBase(0, 0), p, func(r isa.Reg, v uint64) { ctx.Set(r, v) })
	var out []interp.TraceEntry
	interp.Precode(k.Spec.Prog).Run(&ctx, m, uint64(k.MaxDyn)*2+4096, func(e interp.TraceEntry) {
		out = append(out, e)
	})
	return out
}

// TestReferenceFieldsAreCompared corrupts one field of one golden step at
// a time, as the stepped interpreter hands it to compareCommit, and checks
// that the lock-step check reports it at that commit, as the divergence
// kind that field belongs to, naming the reference instruction.
func TestReferenceFieldsAreCompared(t *testing.T) {
	sc := Scenario{Kind: sim.Banked, Threads: 1}
	var k *Kernel
	var trace []interp.TraceEntry
	// The first seed whose thread 0 commits a store serves every case.
	for seed := uint64(0); seed < 20 && k == nil; seed++ {
		cand := Generate(seed, GenConfigForSeed(seed))
		tr := interpTrace(cand, scenarioConfig(cand, sc, CheckOpts{}))
		for _, e := range tr {
			if e.Inst.IsStore() {
				k, trace = cand, tr
				break
			}
		}
	}
	if k == nil {
		t.Fatal("no seed in 0..19 commits a store on thread 0")
	}
	ls := newLockstep(k, scenarioConfig(k, sc, CheckOpts{}), sc.Threads)
	defer ls.release()
	if d := ls.run(sc, CheckOpts{}); d != nil || ls.commits != uint64(len(trace)) {
		t.Fatalf("seed %d: the uncorrupted reference compared %d of %d commits: %v",
			k.Seed, ls.commits, len(trace), d)
	}
	// first returns the index of the first step that satisfies ok.
	first := func(t *testing.T, ok func(e interp.TraceEntry) bool) int {
		for i, e := range trace {
			if ok(e) {
				return i
			}
		}
		t.Fatalf("seed %d: no step for this case", k.Seed)
		return 0
	}
	wrote := func(e interp.TraceEntry) bool { return e.Wrote }
	record := ls.record
	defer func() { ls.record = record }()
	for _, tc := range []struct {
		field, kind string
		pick        func(e interp.TraceEntry) bool
		corrupt     func(e *interp.TraceEntry)
	}{
		{"pc", "pc", func(interp.TraceEntry) bool { return true },
			func(e *interp.TraceEntry) { e.PC++; e.Inst = k.Prog.At(e.PC) }},
		{"wrote", "writeback", wrote, func(e *interp.TraceEntry) { e.Wrote = false }},
		{"rd", "writeback", wrote, func(e *interp.TraceEntry) { e.Rd ^= 1 }},
		{"val", "writeback", wrote, func(e *interp.TraceEntry) { e.Val ^= 1 }},
		{"addr", "mem-addr", func(e interp.TraceEntry) bool { return e.Inst.IsMem() },
			func(e *interp.TraceEntry) { e.Addr += 8 }},
		{"data", "store-data", func(e interp.TraceEntry) bool { return e.Inst.IsStore() },
			func(e *interp.TraceEntry) { e.Data ^= 1 }},
	} {
		t.Run(tc.field, func(t *testing.T) {
			i := first(t, tc.pick)
			want := trace[i]
			tc.corrupt(&want)
			steps := 0
			ls.record = func(e interp.TraceEntry) {
				if steps == i {
					tc.corrupt(&e)
				}
				steps++
				record(e)
			}
			d := ls.run(sc, CheckOpts{})
			if d == nil || d.Kind != tc.kind || d.Thread != 0 || d.Index != i {
				t.Fatalf("corrupting %s at step %d: got %v, want %s there", tc.field, i, d, tc.kind)
			}
			// The message names the instruction the reference executed.
			inst := want.Inst.String()
			if tc.field == "pc" {
				inst = fmt.Sprintf("reference executed pc %d (%s)", want.PC, k.Prog.At(want.PC))
			}
			if !strings.Contains(d.Detail, inst) {
				t.Fatalf("%s divergence %q does not contain %q", tc.kind, d.Detail, inst)
			}
		})
	}
}

// TestReferenceThreadThatNeverHalts: a reference thread that does not halt
// within its budget gives run-error, naming the thread and the budget, to
// every scenario that needs it, and no pipeline is built for such a
// scenario. Thread 0 of this kernel halts and every other thread spins,
// so a one-thread scenario still runs clean.
func TestReferenceThreadThatNeverHalts(t *testing.T) {
	prog := asm.MustAssemble("spin", `
		cbz x1, 2
		b 1
		halt
	`)
	k := KernelFromProgram(3, GenConfigForSeed(3), prog)
	built := 0
	rep := Check(k, CheckOpts{
		Scenarios: []Scenario{{Kind: sim.Banked, Threads: 1}, {Kind: sim.Banked, Threads: 2}},
		WrapProvider: func(_ int, p cpu.Provider) cpu.Provider {
			built++
			return p
		},
	})
	d := rep.Divergence
	if d == nil || d.Kind != "run-error" || rep.Scenarios != 2 {
		t.Fatalf("%d scenarios, divergence %v; want run-error in the second", rep.Scenarios, d)
	}
	budget := uint64(k.MaxDyn)*2 + 4096
	if want := fmt.Sprintf("thread 1 did not halt within %d instructions", budget); !strings.Contains(d.Detail, want) {
		t.Errorf("run-error %q does not contain %q", d.Detail, want)
	}
	if built != 1 || rep.Commits != 2 {
		t.Errorf("built %d systems and compared %d commits; want only the one-thread scenario's (1, 2)",
			built, rep.Commits)
	}
}
