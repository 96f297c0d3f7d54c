package workloads

import (
	"github.com/virec/virec/internal/asm"
	"github.com/virec/virec/internal/isa"
)

// RegisterUsage statically analyzes a program's register working sets,
// reproducing the paper's Figure-2 characterization. It returns:
//
//   - loops: the union of registers referenced inside any loop body (a
//     backward branch and its target delimit a body). These registers
//     recur on every activation — the "active context" that ViReC sizes
//     its physical register file against and that the exact-prefetch
//     oracle moves.
//   - total: every register the program references anywhere, including
//     setup code that runs once.
func RegisterUsage(p *asm.Program) (loops, total []isa.Reg) {
	var inLoops, inTotal [isa.NumRegs]bool
	// Walking back from the end, lowest is the lowest target of a backward
	// branch at or after pc i, so pc i lies in a body exactly when
	// lowest <= i. A target below zero executes as a halt (Program.At), so
	// the body it delimits starts at the program's first pc.
	lowest := len(p.Insts)
	var buf [6]isa.Reg
	for i := len(p.Insts) - 1; i >= 0; i-- {
		in := &p.Insts[i]
		if in.IsBranch() && in.Op != isa.RET && int(in.Target) <= i {
			lowest = min(lowest, int(in.Target))
		}
		for _, r := range in.Regs(buf[:0]) {
			if r == isa.XZR {
				continue
			}
			inTotal[r] = true
			inLoops[r] = inLoops[r] || lowest <= i
		}
	}
	return regList(&inLoops), regList(&inTotal)
}

// regList returns the registers set in in, ascending, in a slice of
// exactly their number.
func regList(in *[isa.NumRegs]bool) []isa.Reg {
	n := 0
	for _, ok := range in {
		if ok {
			n++
		}
	}
	out := make([]isa.Reg, 0, n)
	for r, ok := range in {
		if ok {
			out = append(out, isa.Reg(r))
		}
	}
	return out
}

// InnerLoopUtilization returns the fraction of the register context a
// kernel touches inside its loops — the bar heights of Figure 2. Integer
// kernels are measured against the 32-register integer context; kernels
// that also use floating point against the full 64-register context.
func InnerLoopUtilization(s *Spec) float64 {
	inner, _ := RegisterUsage(s.Prog)
	ctx := isa.NumIntRegs
	for _, r := range inner {
		if r.IsFP() {
			ctx = isa.NumRegs
			break
		}
	}
	return float64(len(inner)) / float64(ctx)
}
