// Threaded-code functional model: a pre-decode pass lowers a program into
// a dense, operand-resolved micro-op array dispatched by direct index, so
// the execution loop never consults the isa predicates (IsLoad / IsStore /
// IsBranch are switches over the opcode) or the instruction codec.
//
// The timed pipeline is the reference this loop is held to: difftest's
// lock-step matrix runs its golden side through Precoded.Run, and
// FuzzPrecode runs random codec words through both.
package interp

import (
	"fmt"
	"strings"

	"github.com/virec/virec/internal/asm"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
)

// Micro-op dispatch kinds. Operand resolution happens at pre-decode:
// addressing modes collapse into one base+imm+index<<shift form (absent
// index fields point at the pinned-zero XZR slot), MOVZ constants and
// MOVK's Rd-as-op1 quirk are folded in, load width/extension picks the
// kind, and XZR destinations select non-writing variants so the hot loop
// never tests for the zero register.
const (
	xHalt uint8 = iota
	xNop
	xLoad64
	xLoad32
	xLoad32s
	xLoad16
	xLoad8
	xLoadDiscard // load with Rd == XZR: address computed, value discarded
	xStore
	xB
	xBL
	xRet
	xBCond
	xCbz
	xCbnz
	xAddReg
	xAddImm
	xSubReg
	xSubImm
	xMovReg
	xConst // MOVZ with the shifted immediate pre-computed
	xCmpReg
	xCmpImm
	xALU // generic EvalALU fallback (shifts, mul/div, logic, selects, FP)
)

var xNames = [...]string{
	xHalt: "halt", xNop: "nop",
	xLoad64: "ld64", xLoad32: "ld32", xLoad32s: "ld32s", xLoad16: "ld16",
	xLoad8: "ld8", xLoadDiscard: "ldz", xStore: "st",
	xB: "b", xBL: "bl", xRet: "ret", xBCond: "b.cond", xCbz: "cbz", xCbnz: "cbnz",
	xAddReg: "add", xAddImm: "addi", xSubReg: "sub", xSubImm: "subi",
	xMovReg: "mov", xConst: "const", xCmpReg: "cmp", xCmpImm: "cmpi",
	xALU: "alu",
}

// uop is one pre-decoded micro-op. Dense and flat: the dispatch loop
// indexes the array by pc and switches on exec only.
type uop struct {
	exec   uint8
	rd     uint8
	rn     uint8
	rm     uint8
	ra     uint8
	shift  uint8
	size   uint8 // load/store access bytes
	cond   uint8 // resolved condition for xBCond
	wr     bool  // destination write enabled (Rd != XZR), xALU only
	imm    int64 // address offset / ALU immediate / pre-computed constant
	target int32
	inst   *isa.Inst // original instruction, for traces and dumps
}

// haltUop is the architectural halt executed when control runs past the
// end of the program (asm.Program.At's out-of-range semantics).
var haltUop = uop{exec: xHalt, inst: &isa.Inst{Op: isa.HALT}}

// Precoded is a program lowered to the micro-op array. Build once per
// program (Precode is linear and allocation-light), run many times.
type Precoded struct {
	Name string
	uops []uop
}

// Precode lowers prog into its threaded-code form. Hint bytes and every
// other codec-level field are resolved here, once; the dispatch loop
// never touches the instruction encoding again.
func Precode(prog *asm.Program) *Precoded { return new(Precoded).Reset(prog) }

// Reset lowers prog into p in place, reusing p's micro-op array when it
// holds enough, and returns p. Whatever p ran before is gone.
func (p *Precoded) Reset(prog *asm.Program) *Precoded {
	uops := p.uops
	if cap(uops) < len(prog.Insts) {
		uops = make([]uop, len(prog.Insts))
	}
	*p = Precoded{Name: prog.Name, uops: uops[:len(prog.Insts)]}
	for i := range prog.Insts {
		p.uops[i] = lower(&prog.Insts[i])
	}
	return p
}

// lower resolves one instruction into its micro-op.
func lower(in *isa.Inst) uop {
	u := uop{
		inst: in,
		rd:   uint8(in.Rd), rn: uint8(in.Rn), rm: uint8(in.Rm), ra: uint8(in.Ra),
	}
	switch {
	case in.Op == isa.HALT:
		u.exec = xHalt
	case in.Op == isa.NOP || in.Op == isa.YIELD:
		u.exec = xNop
	case in.IsLoad() || in.IsStore():
		switch in.Mode {
		case isa.AddrImm:
			// EffAddr ignores the index in immediate mode; route the
			// index read to the pinned-zero XZR slot.
			u.imm, u.rm = in.Imm, uint8(isa.XZR)
		case isa.AddrReg:
		default: // AddrRegShift
			u.shift = in.Shift
		}
		u.size = uint8(in.MemBytes())
		switch {
		case in.IsStore():
			u.exec = xStore
		case in.Rd == isa.XZR:
			u.exec = xLoadDiscard
		default:
			switch in.Op {
			case isa.LDR:
				u.exec = xLoad64
			case isa.LDRW:
				u.exec = xLoad32
			case isa.LDRSW:
				u.exec = xLoad32s
			case isa.LDRH:
				u.exec = xLoad16
			default: // LDRB
				u.exec = xLoad8
			}
		}
	case in.IsBranch():
		u.target = in.Target
		switch in.Op {
		case isa.B:
			u.exec = xB
		case isa.BL:
			u.exec = xBL
		case isa.RET:
			u.exec = xRet
		case isa.CBZ:
			u.exec = xCbz
		case isa.CBNZ:
			u.exec = xCbnz
		default:
			// BEQ..BHS mirror CondEQ..CondHS in declaration order.
			u.exec, u.cond = xBCond, uint8(isa.CondEQ)+uint8(in.Op-isa.BEQ)
		}
	default:
		u.imm = in.Imm
		u.wr = in.Rd != isa.XZR
		if in.Op == isa.MOVK {
			// MOVK reads its own destination as op1.
			u.rn = uint8(in.Rd)
		}
		switch {
		case in.Op == isa.CMP:
			u.exec = xCmpReg
		case in.Op == isa.CMPI:
			u.exec = xCmpImm
		case !u.wr:
			u.exec = xALU
		default:
			switch in.Op {
			case isa.ADD:
				u.exec = xAddReg
			case isa.ADDI:
				u.exec = xAddImm
			case isa.SUB:
				u.exec = xSubReg
			case isa.SUBI:
				u.exec = xSubImm
			case isa.MOV:
				u.exec = xMovReg
			case isa.MOVZ:
				u.exec = xConst
				u.imm = int64(uint64(in.Imm&0xffff) << (16 * uint(in.Shift)))
			default:
				u.exec = xALU
			}
		}
	}
	return u
}

// Run executes the pre-decoded program from ctx until HALT or maxInsts
// instructions. YIELD is a no-op functionally, and a pc outside the
// program executes as HALT (asm.Program.At). The optional trace callback
// sees every executed instruction in order, with its committed effects.
//
// The XZR slot is pinned to zero for the duration of the run so operand
// reads are plain array indexes (Context.Get's zero-register special
// case, resolved once). Pre-decode guarantees no micro-op writes the slot,
// and the loop's one exit restores the saved value, so the pin is
// invisible to callers.
func (p *Precoded) Run(ctx *Context, m *mem.Memory, maxInsts uint64, trace func(TraceEntry)) Result {
	regs := &ctx.Regs
	savedXZR := regs[isa.XZR]
	regs[isa.XZR] = 0
	flags := ctx.Flags
	pc := ctx.PC
	uops := p.uops
	var n uint64
	halted := false
	for !halted && n < maxInsts {
		n++
		u := &haltUop
		if uint(pc) < uint(len(uops)) {
			u = &uops[pc]
		}
		entry := TraceEntry{PC: pc, Inst: u.inst}
		next := pc + 1
		switch u.exec {
		case xHalt:
			halted, next = true, pc
		case xNop:
		case xLoad64, xLoad32, xLoad32s, xLoad16, xLoad8:
			addr := mem.Addr(regs[u.rn] + uint64(u.imm) + regs[u.rm]<<u.shift)
			entry.Addr = addr
			var v uint64
			switch u.exec {
			case xLoad64:
				v = m.Read(addr, 8)
			case xLoad32:
				v = m.Read(addr, 4)
			case xLoad32s:
				v = uint64(int64(int32(uint32(m.Read(addr, 4)))))
			case xLoad16:
				v = m.Read(addr, 2)
			default:
				v = m.Read(addr, 1)
			}
			regs[u.rd] = v
			entry.Wrote, entry.Rd, entry.Val = true, isa.Reg(u.rd), v
		case xLoadDiscard:
			entry.Addr = mem.Addr(regs[u.rn] + uint64(u.imm) + regs[u.rm]<<u.shift)
		case xStore:
			addr := mem.Addr(regs[u.rn] + uint64(u.imm) + regs[u.rm]<<u.shift)
			entry.Addr = addr
			data := regs[u.rd]
			m.Write(addr, int(u.size), data)
			if u.size < 8 {
				data &= 1<<(8*uint(u.size)) - 1
			}
			entry.Data = data
		case xB:
			next = int(u.target)
		case xBL:
			regs[isa.X30] = uint64(pc + 1)
			entry.Wrote, entry.Rd, entry.Val = true, isa.X30, uint64(pc+1)
			next = int(u.target)
		case xRet:
			next = int(regs[u.rn])
		case xBCond:
			if flags.Holds(isa.Cond(u.cond)) {
				next = int(u.target)
			}
		case xCbz:
			if regs[u.rn] == 0 {
				next = int(u.target)
			}
		case xCbnz:
			if regs[u.rn] != 0 {
				next = int(u.target)
			}
		case xCmpReg:
			flags = isa.SubFlags(regs[u.rn], regs[u.rm])
		case xCmpImm:
			flags = isa.SubFlags(regs[u.rn], uint64(u.imm))
		case xAddImm, xAddReg, xSubImm, xSubReg, xConst, xMovReg:
			var v uint64
			switch u.exec {
			case xAddImm:
				v = regs[u.rn] + uint64(u.imm)
			case xAddReg:
				v = regs[u.rn] + regs[u.rm]
			case xSubImm:
				v = regs[u.rn] - uint64(u.imm)
			case xSubReg:
				v = regs[u.rn] - regs[u.rm]
			case xConst:
				v = uint64(u.imm)
			default:
				v = regs[u.rn]
			}
			regs[u.rd] = v
			entry.Wrote, entry.Rd, entry.Val = true, isa.Reg(u.rd), v
		case xALU:
			r := isa.EvalALU(u.inst, regs[u.rn], regs[u.rm], regs[u.ra], flags)
			if r.WritesReg && u.wr {
				regs[u.rd] = r.Value
				entry.Wrote, entry.Rd, entry.Val = true, isa.Reg(u.rd), r.Value
			}
			if r.WritesFlag {
				flags = r.Flags
			}
		}
		if trace != nil {
			trace(entry)
		}
		pc = next
	}
	regs[isa.XZR] = savedXZR
	ctx.PC, ctx.Flags = pc, flags
	return Result{Insts: n, Halted: halted}
}

// Dump renders the micro-op array, one line per pc: kind and resolved
// operands. The golden test pins a shipped kernel's lowering against it so
// any pre-decode change is a reviewed diff.
func (p *Precoded) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "precode %s: %d uops\n", p.Name, len(p.uops))
	for i := range p.uops {
		u := &p.uops[i]
		fmt.Fprintf(&b, "%4d: %-6s rd=%-2d rn=%-2d rm=%-2d ra=%-2d sh=%d sz=%d cond=%d wr=%-5v imm=%-8d tgt=%d\n",
			i, xNames[u.exec], u.rd, u.rn, u.rm, u.ra, u.shift, u.size, u.cond, u.wr, u.imm, u.target)
	}
	return b.String()
}
