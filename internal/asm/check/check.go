// Package check is the ISA-level static analyzer: it inspects assembled
// programs — without executing them — for the bug classes that have bitten
// hand-written kernels, and reports the register pressure the paper's
// active-context sizing (Figure 2) depends on.
//
// Analyses, all over the instruction-level control-flow graph:
//
//   - branch validation: every branch target must land inside the text
//     (asm.Program.At self-terminates a runaway PC with an implicit HALT,
//     which silently truncates a kernel whose target is off by one);
//   - reachability: instructions no path from entry reaches are dead text,
//     almost always a mis-labeled branch;
//   - use-before-def: a forward must-defined dataflow pass (intersection
//     over predecessors) proves every source register is written on every
//     path before it is read — registers the run's Setup initializes are
//     entry-defined, XZR reads as zero and SP is architecturally
//     initialized, so both are always defined;
//   - flags-before-compare: the same pass tracks the NZCV flags, so a
//     conditional branch or CSEL that can execute before any CMP/TST is
//     reported;
//   - register pressure: a backward liveness pass computes the maximal
//     number of simultaneously live registers and where it occurs — the
//     static analogue of the active context ViReC's physical register file
//     is sized against.
//
// Control flow is resolved statically: fallthrough unless the instruction
// is an unconditional control transfer; conditional branches add their
// target; BL adds both its target and the return point; RET and HALT
// terminate (RET's target is indirect). NumRegs is 64, so every register
// set in the dataflow passes is one uint64 bitmask.
package check

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"github.com/virec/virec/internal/asm"
	"github.com/virec/virec/internal/isa"
)

// Finding kinds.
const (
	BadBranchTarget = "bad-branch-target"
	Unreachable     = "unreachable"
	UseBeforeDef    = "use-before-def"
	FlagsBeforeCmp  = "flags-before-cmp"
)

// Finding is one defect in a program.
type Finding struct {
	PC   int    // instruction index (start of the range for Unreachable)
	Kind string // one of the kind constants above
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("pc %d: %s [%s]", f.PC, f.Msg, f.Kind)
}

// Report is the analysis result for one program.
type Report struct {
	Name     string
	Findings []Finding

	// MaxLive is the largest number of simultaneously live registers at
	// any reachable instruction; MaxLivePC is the first instruction where
	// it occurs and LiveRegs the registers live there, ascending.
	MaxLive   int
	MaxLivePC int
	LiveRegs  []isa.Reg
}

// Clean reports whether the analysis found no defects.
func (r *Report) Clean() bool { return len(r.Findings) == 0 }

// regMask is a set of architectural registers (NumRegs = 64).
type regMask uint64

func (m regMask) has(r isa.Reg) bool { return m&(1<<uint(r)) != 0 }
func (m *regMask) add(r isa.Reg)     { *m |= 1 << uint(r) }
func (m *regMask) remove(r isa.Reg)  { *m &^= 1 << uint(r) }
func (m regMask) count() int         { return bits.OnesCount64(uint64(m)) }

// flowState is the must-defined dataflow fact at one program point.
type flowState struct {
	regs  regMask
	flags bool
}

func (s flowState) meet(o flowState) flowState {
	return flowState{regs: s.regs & o.regs, flags: s.flags && o.flags}
}

// Analyze runs every analysis over prog. entryDefined lists the registers
// initialized before the program starts (a workload's Setup set() calls);
// XZR and SP are always treated as defined.
func Analyze(prog *asm.Program, entryDefined []isa.Reg) *Report {
	if prog.Len() == 0 {
		return &Report{Name: prog.Name, MaxLivePC: -1}
	}
	s := getScratch(prog)
	defer scratchPool.Put(s)
	return s.analyze(prog, entryDefined)
}

// ApplyAndAnalyze is Apply followed by Analyze over one CFG: it writes the
// synthesized hints into prog and returns the hint report and the
// analyzer's report, building the program's successor lists and
// reachability once for both. Hints change neither the CFG nor any
// dataflow fact, so each report equals what Apply or Analyze returns.
func ApplyAndAnalyze(prog *asm.Program, entryDefined []isa.Reg) (*Hints, *Report) {
	if prog.Len() == 0 {
		return Apply(prog), Analyze(prog, entryDefined)
	}
	s := getScratch(prog)
	defer scratchPool.Put(s)
	h := s.synthesize(prog)
	h.writeTo(prog)
	return h, s.analyze(prog, entryDefined)
}

// scratch holds one analysis's per-instruction working arrays: the flow
// graph every pass runs over (each instruction's successors, findings
// for branch targets outside the text, which instructions entry reaches)
// and the arrays of the dataflow passes. Each entry point takes one from
// scratchPool for the duration of the call and returns it afterwards, so
// analyzing a program no longer than one seen before allocates only the
// reports. Nothing a caller receives aliases a scratch.
type scratch struct {
	succs      []succList
	badTargets []Finding
	reachable  []bool
	stack      []int32     // reach's work list
	defined    []flowState // useBeforeDef's must-defined state in
	liveIn     []regMask   // liveness in, for pressure and hintLiveness in turn
	liveOut    []regMask   // hintLiveness's liveness out
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch takes a scratch from the pool and builds prog's flow graph
// in it; prog must not be empty.
func getScratch(prog *asm.Program) *scratch {
	s := scratchPool.Get().(*scratch)
	s.buildCFG(prog)
	s.reach()
	return s
}

// resize returns buf at length n, reusing its array when it is large
// enough. The elements keep whatever they held.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// analyze runs every analysis of Analyze over s's flow graph of prog.
func (s *scratch) analyze(prog *asm.Program, entryDefined []isa.Reg) *Report {
	rep := &Report{Name: prog.Name, MaxLivePC: -1}
	rep.Findings = append(rep.Findings, s.badTargets...)
	rep.Findings = append(rep.Findings, unreachableRanges(s.reachable)...)
	rep.Findings = append(rep.Findings, s.useBeforeDef(prog, entryDefined)...)

	rep.MaxLive, rep.MaxLivePC, rep.LiveRegs = s.pressure(prog)

	slices.SortStableFunc(rep.Findings, func(a, b Finding) int {
		if a.PC != b.PC {
			return cmp.Compare(a.PC, b.PC)
		}
		return strings.Compare(a.Kind, b.Kind)
	})
	return rep
}

// succList is one instruction's successors: at most a branch target and
// a fallthrough, so every instruction's list fits two fixed slots and the
// whole CFG is one slice.
type succList struct {
	pc [2]int32
	n  int32
}

func (s *succList) add(pc int) {
	s.pc[s.n] = int32(pc)
	s.n++
}

// all returns the successors, branch target first.
func (s *succList) all() []int32 { return s.pc[:s.n] }

// buildCFG fills in each instruction's successors and the findings for
// branch targets outside the text. Edges through a bad target are dropped
// (the finding already covers them).
func (s *scratch) buildCFG(prog *asm.Program) {
	n := prog.Len()
	s.succs = resize(s.succs, n)
	clear(s.succs)
	s.badTargets = s.badTargets[:0]
	for i := 0; i < n; i++ {
		in := &prog.Insts[i]
		target := int(in.Target)
		branch := in.IsBranch()
		if branch && in.Op != isa.RET {
			if target < 0 || target >= n {
				s.badTargets = append(s.badTargets, Finding{PC: i, Kind: BadBranchTarget,
					Msg: fmt.Sprintf("%s targets instruction %d, text is [0,%d)", in.Op, target, n)})
			} else {
				s.succs[i].add(target)
			}
		}
		switch {
		case in.Op == isa.HALT || in.Op == isa.RET:
			// Flow terminates: RET's destination is whatever the link
			// register holds, which this analysis does not track.
		case in.Op == isa.B:
			// Unconditional: target only.
		default:
			// Everything else falls through, including BL (the callee
			// eventually returns to the next instruction). Falling off the
			// end is an implicit HALT (asm.Program.At), not an edge.
			if i+1 < n {
				s.succs[i].add(i + 1)
			}
		}
	}
}

// reach marks every instruction reachable from entry. Each instruction is
// pushed at most once, so the stack never outgrows n.
func (s *scratch) reach() {
	n := len(s.succs)
	s.reachable = resize(s.reachable, n)
	clear(s.reachable)
	s.stack = resize(s.stack, n)
	stack := append(s.stack[:0], 0)
	s.reachable[0] = true
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, succ := range s.succs[i].all() {
			if !s.reachable[succ] {
				s.reachable[succ] = true
				stack = append(stack, succ)
			}
		}
	}
}

// unreachableRanges groups consecutive unreachable instructions into one
// finding per maximal range.
func unreachableRanges(reachable []bool) []Finding {
	var findings []Finding
	for i := 0; i < len(reachable); {
		if reachable[i] {
			i++
			continue
		}
		j := i
		for j < len(reachable) && !reachable[j] {
			j++
		}
		msg := "instruction is unreachable"
		if j-i > 1 {
			msg = fmt.Sprintf("instructions %d-%d are unreachable", i, j-1)
		}
		findings = append(findings, Finding{PC: i, Kind: Unreachable, Msg: msg})
		i = j
	}
	return findings
}

// useBeforeDef runs the forward must-defined pass and reports reads of
// registers (or flags) not written on every path from entry.
func (s *scratch) useBeforeDef(prog *asm.Program, entryDefined []isa.Reg) []Finding {
	n := prog.Len()
	succs, reachable := s.succs, s.reachable
	entry := flowState{}
	entry.regs.add(isa.XZR)
	entry.regs.add(isa.SP)
	for _, r := range entryDefined {
		entry.regs.add(r)
	}

	// in[i] is the meet over predecessors' outs; ⊤ (everything defined)
	// until a path reaches the instruction.
	top := flowState{regs: ^regMask(0), flags: true}
	s.defined = resize(s.defined, n)
	in := s.defined
	for i := range in {
		in[i] = top
	}
	in[0] = entry

	var buf [4]isa.Reg // an instruction has at most three sources
	scratch := buf[:0]
	out := func(i int) flowState {
		st := in[i]
		scratch = prog.Insts[i].DstRegs(scratch[:0])
		for _, r := range scratch {
			st.regs.add(r)
		}
		if prog.Insts[i].SetsFlags() {
			st.flags = true
		}
		return st
	}

	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			if !reachable[i] {
				continue
			}
			o := out(i)
			for _, succ := range succs[i].all() {
				next := in[succ].meet(o)
				if next != in[succ] {
					in[succ] = next
					changed = true
				}
			}
		}
	}

	var findings []Finding
	for i := 0; i < n; i++ {
		if !reachable[i] {
			continue
		}
		inst := &prog.Insts[i]
		scratch = inst.SrcRegs(scratch[:0])
		for _, r := range scratch {
			if r != isa.XZR && !in[i].regs.has(r) {
				findings = append(findings, Finding{PC: i, Kind: UseBeforeDef,
					Msg: fmt.Sprintf("%s reads %s, which is not defined on every path from entry", inst.Op, r)})
			}
		}
		if inst.ReadsFlags() && !in[i].flags {
			findings = append(findings, Finding{PC: i, Kind: FlagsBeforeCmp,
				Msg: fmt.Sprintf("%s reads the NZCV flags before any compare on some path from entry", inst.Op)})
		}
	}
	return findings
}

// pressure runs the backward liveness pass and returns the maximal live
// register count, the first instruction where it occurs, and the registers
// live there.
func (s *scratch) pressure(prog *asm.Program) (int, int, []isa.Reg) {
	n := prog.Len()
	succs, reachable := s.succs, s.reachable
	s.liveIn = resize(s.liveIn, n)
	liveIn := s.liveIn
	clear(liveIn)
	var buf [4]isa.Reg
	scratch := buf[:0]

	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			if !reachable[i] {
				continue
			}
			var liveOut regMask
			for _, succ := range succs[i].all() {
				liveOut |= liveIn[succ]
			}
			next := liveOut
			scratch = prog.Insts[i].DstRegs(scratch[:0])
			for _, r := range scratch {
				next.remove(r)
			}
			scratch = prog.Insts[i].SrcRegs(scratch[:0])
			for _, r := range scratch {
				if r != isa.XZR {
					next.add(r)
				}
			}
			if next != liveIn[i] {
				liveIn[i] = next
				changed = true
			}
		}
	}

	maxLive, maxPC := 0, -1
	for i := 0; i < n; i++ {
		if reachable[i] && liveIn[i].count() > maxLive {
			maxLive, maxPC = liveIn[i].count(), i
		}
	}
	var regs []isa.Reg
	if maxPC >= 0 {
		regs = make([]isa.Reg, 0, maxLive)
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if liveIn[maxPC].has(r) {
				regs = append(regs, r)
			}
		}
	}
	return maxLive, maxPC, regs
}
