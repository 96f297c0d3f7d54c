package interp_test

import (
	"testing"

	"github.com/virec/virec/internal/asm"
	"github.com/virec/virec/internal/interp"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/workloads"
)

func TestBasicExecution(t *testing.T) {
	prog := asm.MustAssemble("t", `
		mov x1, #10
		mov x2, #0
	loop:
		add x2, x2, x1
		sub x1, x1, #1
		cbnz x1, loop
		halt
	`)
	var ctx interp.Context
	m := mem.NewMemory()
	r := interp.Precode(prog).Run(&ctx, m, 1000, nil)
	if !r.Halted {
		t.Fatal("did not halt")
	}
	if ctx.Get(isa.X2) != 55 {
		t.Errorf("sum = %d, want 55", ctx.Get(isa.X2))
	}
}

func TestMemoryOps(t *testing.T) {
	prog := asm.MustAssemble("t", `
		mov x1, #42
		str x1, [x2]
		ldr x3, [x2]
		ldrb x4, [x2]
		halt
	`)
	var ctx interp.Context
	ctx.Set(isa.X2, 0x1000)
	m := mem.NewMemory()
	if r := interp.Precode(prog).Run(&ctx, m, 100, nil); r != (interp.Result{Insts: 5, Halted: true}) {
		t.Fatalf("result = %+v, want 5 insts halted", r)
	}
	if ctx.Get(isa.X3) != 42 || ctx.Get(isa.X4) != 42 {
		t.Errorf("x3=%d x4=%d, want 42", ctx.Get(isa.X3), ctx.Get(isa.X4))
	}
	if m.Read64(0x1000) != 42 {
		t.Error("store missing")
	}
}

func TestCallRet(t *testing.T) {
	prog := asm.MustAssemble("t", `
		mov x1, #5
		bl f
		halt
	f:
		add x1, x1, #1
		ret
	`)
	var ctx interp.Context
	m := mem.NewMemory()
	if r := interp.Precode(prog).Run(&ctx, m, 100, nil); r != (interp.Result{Insts: 5, Halted: true}) {
		t.Fatalf("result = %+v, want 5 insts halted", r)
	}
	if ctx.Get(isa.X1) != 6 {
		t.Errorf("x1 = %d, want 6", ctx.Get(isa.X1))
	}
}

func TestBudgetExceeded(t *testing.T) {
	prog := asm.MustAssemble("t", "loop: b loop")
	var ctx interp.Context
	r := interp.Precode(prog).Run(&ctx, mem.NewMemory(), 50, nil)
	if r.Halted || r.Insts != 50 {
		t.Errorf("result = %+v, want 50 insts not halted", r)
	}
}

func TestTraceOrder(t *testing.T) {
	prog := asm.MustAssemble("t", "mov x1, #1\nadd x1, x1, #1\nhalt")
	var pcs []int
	var ctx interp.Context
	interp.Precode(prog).Run(&ctx, mem.NewMemory(), 100, func(e interp.TraceEntry) {
		pcs = append(pcs, e.PC)
	})
	want := []int{0, 1, 2}
	if len(pcs) != len(want) {
		t.Fatalf("trace %v, want %v", pcs, want)
	}
	for i := range want {
		if pcs[i] != want[i] {
			t.Fatalf("trace %v, want %v", pcs, want)
		}
	}
}

// TestMatchesWorkloadGoldenModels runs every workload kernel through the
// interpreter and checks the workload's own verifier — two independent
// implementations of each kernel's semantics agreeing on the final
// registers and memory.
func TestMatchesWorkloadGoldenModels(t *testing.T) {
	for _, spec := range workloads.All() {
		t.Run(spec.Name, func(t *testing.T) {
			m := mem.NewMemory()
			var ctx interp.Context
			p := workloads.DefaultParams(0)
			p.Iters = 64
			verify := spec.Setup(m, 0x10000, p, func(r isa.Reg, v uint64) {
				ctx.Set(r, v)
			})
			if r := interp.Precode(spec.Prog).Run(&ctx, m, 10_000_000, nil); !r.Halted {
				t.Fatalf("did not halt within %d instructions", r.Insts)
			}
			if err := verify(ctx.Get, m); err != nil {
				t.Errorf("%s: %v", spec.Name, err)
			}
		})
	}
}
