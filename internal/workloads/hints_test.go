package workloads_test

import (
	"testing"

	"github.com/virec/virec/internal/asm/check"
	"github.com/virec/virec/internal/interp"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/workloads"
)

// TestShippedKernelsCarryHints verifies the package-load hint pass
// actually ran: every shipped kernel must carry at least one synthesized
// hint in its instruction stream (each has a MOVZ prologue at minimum),
// and applying the pass again must not change anything.
func TestShippedKernelsCarryHints(t *testing.T) {
	for _, w := range workloads.All() {
		hinted := 0
		for _, in := range w.Prog.Insts {
			if in.Hints != 0 {
				hinted++
			}
		}
		if hinted == 0 {
			t.Errorf("%s: no hints in instruction stream; init pass missing?", w.Name)
		}
		h := check.Apply(w.Prog)
		if h.Hinted != hinted {
			t.Errorf("%s: re-applying hints changed count %d -> %d", w.Name, hinted, h.Hinted)
		}
	}
}

// TestHintsSoundOnTraces is the dynamic soundness check for the hint
// synthesizer: run every shipped kernel to completion in the functional
// interpreter and require that no register flagged dead is read again
// before being overwritten on the observed path. The static pass is
// conservative over all CFG paths, so any executed path must agree.
func TestHintsSoundOnTraces(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			var ctx interp.Context
			m := mem.NewMemory()
			p := workloads.DefaultParams(0)
			p.Iters = 64 // short run; every static path is covered by the loop shapes
			w.Setup(m, 0, p, func(r isa.Reg, v uint64) { ctx.Set(r, v) })
			var pcs []int
			res := interp.Precode(w.Prog).Run(&ctx, m, 10_000_000, func(e interp.TraceEntry) {
				pcs = append(pcs, e.PC)
			})
			if !res.Halted {
				t.Fatalf("did not halt (%d insts)", res.Insts)
			}
			for _, f := range check.DeadHintViolations(w.Prog, pcs) {
				t.Errorf("unsound hint: %s", f)
			}
		})
	}
}
