package workloads

import (
	"sort"

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
	inLoop := make([]bool, p.Len())
	for i := range p.Insts {
		in := &p.Insts[i]
		if in.IsBranch() && in.Op != isa.RET && int(in.Target) <= i {
			// A target below zero executes as a halt (Program.At), so
			// the body it delimits starts at the program's first pc.
			for j := max(int(in.Target), 0); j <= i; j++ {
				inLoop[j] = true
			}
		}
	}
	loopSet := map[isa.Reg]bool{}
	totalSet := map[isa.Reg]bool{}
	var buf [6]isa.Reg
	for i := range p.Insts {
		for _, r := range p.Insts[i].Regs(buf[:0]) {
			if r == isa.XZR {
				continue
			}
			totalSet[r] = true
			if inLoop[i] {
				loopSet[r] = true
			}
		}
	}
	return sortRegs(loopSet), sortRegs(totalSet)
}

func sortRegs(set map[isa.Reg]bool) []isa.Reg {
	out := make([]isa.Reg, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
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
