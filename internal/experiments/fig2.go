package experiments

import (
	"github.com/virec/virec/internal/interp"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/stats"
	"github.com/virec/virec/internal/workloads"
)

func init() {
	register("fig2", "Register utilization of memory-intensive workloads "+
		"(fraction of the 32-register context used in loops vs anywhere)", fig2)
}

func fig2(opt Options) (*Report, error) {
	iters := opt.iters(256)
	table := stats.NewTable("workload", "suite", "loop_regs", "total_regs",
		"loop_frac", "total_frac", "dyn_regs")
	rep := &Report{}
	worst := 0.0
	for _, w := range workloads.All() {
		inner, total := workloads.RegisterUsage(w.Prog)

		// Dynamic confirmation: registers actually referenced at runtime.
		m := mem.NewMemory()
		var ctx interp.Context
		p := workloads.Params{Iters: iters, Seed: 1}
		w.Setup(m, 0x10000, p, func(r isa.Reg, v uint64) { ctx.Set(r, v) })
		var seen [isa.NumRegs]bool
		var buf [6]isa.Reg
		dyn := 0
		interp.Precode(w.Prog).Run(&ctx, m, 50_000_000, func(e interp.TraceEntry) {
			for _, r := range e.Inst.Regs(buf[:0]) {
				if r != isa.XZR && !seen[r] {
					seen[r] = true
					dyn++
				}
			}
		})
		m.Release()

		// Integer kernels measure against the 32-register integer
		// context, FP kernels against the full 64 (as in the helper).
		loopFrac := workloads.InnerLoopUtilization(w)
		denom := float64(len(inner)) / loopFrac
		if loopFrac > worst {
			worst = loopFrac
		}
		table.AddRow(w.Name, w.Suite, len(inner), len(total),
			loopFrac, float64(len(total))/denom, dyn)
	}
	rep.Tables = append(rep.Tables, table)
	rep.notef("largest loop working set uses %.0f%% of its register context "+
		"(paper: most workloads under 30%%)", worst*100)
	return rep, nil
}
