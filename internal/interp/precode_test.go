package interp_test

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/virec/virec/internal/asm"
	"github.com/virec/virec/internal/interp"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/workloads"
)

// runTrace executes p from ctx with a trace callback and returns the
// result and the trace.
func runTrace(p *interp.Precoded, ctx *interp.Context, m *mem.Memory, budget uint64) (interp.Result, []interp.TraceEntry) {
	var tr []interp.TraceEntry
	res := p.Run(ctx, m, budget, func(e interp.TraceEntry) { tr = append(tr, e) })
	return res, tr
}

// TestPrecodeBudgetExhaustion pins the budget-stop semantics for every
// budget around the program's length: the run stops after exactly
// min(budget, 20) instructions, its trace is a prefix of the full trace,
// ctx.PC is the pc that would execute next, and the registers hold the
// traced writes. An untraced run stops in the same state.
func TestPrecodeBudgetExhaustion(t *testing.T) {
	prog := asm.MustAssemble("budget", `
		mov  x1, #7
	loop:
		add  x2, x2, x1
		add  x3, x3, #3
		sub  x4, x2, x3
		cmp  x5, #2
		add  x5, x5, #1
		b.lt loop
		halt
	`)
	// x5 counts 0, 1, 2: the body runs three times, then HALT at pc 7.
	wantPCs := []int{0, 1, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6, 7}
	p := interp.Precode(prog)

	var full interp.Context
	res, fullTrace := runTrace(p, &full, mem.NewMemory(), 1000)
	if res != (interp.Result{Insts: 20, Halted: true}) {
		t.Fatalf("full run = %+v, want 20 insts halted", res)
	}
	for i, e := range fullTrace {
		if e.PC != wantPCs[i] {
			t.Fatalf("full trace[%d].PC = %d, want %d", i, e.PC, wantPCs[i])
		}
	}
	for r, want := range map[isa.Reg]uint64{isa.X1: 7, isa.X2: 21, isa.X3: 9, isa.X4: 12, isa.X5: 3} {
		if got := full.Get(r); got != want {
			t.Errorf("full run: %s = %d, want %d", r, got, want)
		}
	}

	for budget := uint64(0); budget <= 40; budget++ {
		n := min(budget, 20)
		var ctx interp.Context
		res, tr := runTrace(p, &ctx, mem.NewMemory(), budget)
		if want := (interp.Result{Insts: n, Halted: budget >= 20}); res != want {
			t.Fatalf("budget %d: result %+v, want %+v", budget, res, want)
		}
		if uint64(len(tr)) != n {
			t.Fatalf("budget %d: %d trace entries, want %d", budget, len(tr), n)
		}
		var regs [isa.NumRegs]uint64
		for i, e := range tr {
			if e != fullTrace[i] {
				t.Fatalf("budget %d: trace[%d] = %+v, full trace has %+v", budget, i, e, fullTrace[i])
			}
			if e.Wrote {
				regs[e.Rd] = e.Val
			}
		}
		wantPC := 7
		if n < 20 {
			wantPC = wantPCs[n]
		}
		if ctx.PC != wantPC {
			t.Fatalf("budget %d: ctx.PC = %d, want %d", budget, ctx.PC, wantPC)
		}
		if ctx.Regs != regs {
			t.Fatalf("budget %d: regs %v, traced writes give %v", budget, ctx.Regs, regs)
		}
		var untraced interp.Context
		if res2 := p.Run(&untraced, mem.NewMemory(), budget, nil); res2 != res || untraced != ctx {
			t.Fatalf("budget %d: untraced run %+v %+v, traced %+v %+v", budget, res2, untraced, res, ctx)
		}
	}
}

// TestPrecodeOutOfRangeEntry pins Program.At's out-of-range-pc-is-halt
// contract, including negative PCs (a RET through a garbage register):
// one instruction executes, a HALT at the entry pc with no effects.
func TestPrecodeOutOfRangeEntry(t *testing.T) {
	prog := asm.MustAssemble("oor", `
		add x1, x1, x2
		halt
	`)
	p := interp.Precode(prog)
	for _, pc := range []int{-5, 2, 1000} {
		ctx := interp.Context{PC: pc}
		ctx.Regs[isa.X2] = 9
		res, tr := runTrace(p, &ctx, mem.NewMemory(), 16)
		if res != (interp.Result{Insts: 1, Halted: true}) {
			t.Errorf("pc %d: result %+v, want 1 inst halted", pc, res)
		}
		if len(tr) != 1 || tr[0].PC != pc || tr[0].Inst.Op != isa.HALT ||
			tr[0].Wrote || tr[0].Addr != 0 || tr[0].Data != 0 {
			t.Errorf("pc %d: trace %+v, want one bare HALT at pc %d", pc, tr, pc)
		}
		if ctx.PC != pc || ctx.Get(isa.X1) != 0 {
			t.Errorf("pc %d: ctx.PC = %d, x1 = %d; want pc %d, x1 untouched", pc, ctx.PC, ctx.Get(isa.X1), pc)
		}
	}
}

// TestPrecodeXZRPinInvisible verifies the run's pinned-zero XZR slot is
// restored on every exit path and that a dirty Regs[XZR] value neither
// leaks into execution nor is clobbered.
func TestPrecodeXZRPinInvisible(t *testing.T) {
	prog := asm.MustAssemble("xzr", `
		add  x1, xzr, x2
		str  x1, [x2]
		ldr  xzr, [x2]
		halt
	`)
	p := interp.Precode(prog)
	const base = 0x20000
	for _, tc := range []struct {
		name    string
		pc      int
		budget  uint64
		want    interp.Result
		wantX1  uint64 // x1 and the word at base are both 0 when the add never ran
		wantEnd int
	}{
		{"halt", 0, 16, interp.Result{Insts: 4, Halted: true}, base, 3},
		{"budget", 0, 2, interp.Result{Insts: 2}, base, 2},
		{"out-of-range", 99, 16, interp.Result{Insts: 1, Halted: true}, 0, 99},
	} {
		ctx := interp.Context{PC: tc.pc}
		ctx.Regs[isa.XZR] = 0xdeadbeef // dirty slot: reads must still see 0
		ctx.Regs[isa.X2] = base
		m := mem.NewMemory()
		res := p.Run(&ctx, m, tc.budget, nil)
		if res != tc.want || ctx.PC != tc.wantEnd {
			t.Errorf("%s: result %+v pc %d, want %+v pc %d", tc.name, res, ctx.PC, tc.want, tc.wantEnd)
		}
		if ctx.Regs[isa.XZR] != 0xdeadbeef {
			t.Errorf("%s: Regs[XZR] = %#x after exit, want 0xdeadbeef", tc.name, ctx.Regs[isa.XZR])
		}
		if got := ctx.Get(isa.X1); got != tc.wantX1 {
			t.Errorf("%s: x1 = %#x, want %#x", tc.name, got, tc.wantX1)
		}
		if got := m.Read64(base); got != tc.wantX1 {
			t.Errorf("%s: stored word = %#x, want %#x", tc.name, got, tc.wantX1)
		}
	}
}

// TestPrecodeGoldenDump pins the micro-op lowering of a shipped kernel.
// Any pre-decode change — new kinds, operand resolution — shows up as a
// reviewed diff against the golden file.
func TestPrecodeGoldenDump(t *testing.T) {
	w, ok := workloads.ByName("chase")
	if !ok {
		t.Fatal("missing chase workload")
	}
	got := interp.Precode(w.Prog).Dump()
	golden := filepath.Join("testdata", "precode_chase.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	if got != string(want) {
		t.Errorf("micro-op dump drifted from %s:\n--- want ---\n%s--- got ---\n%s", golden, want, got)
	}
}
