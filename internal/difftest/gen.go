// Package difftest is the differential verification engine: a seeded
// constrained-random kernel generator plus a lock-step co-simulation
// checker that compares every instruction the timed pipeline commits
// against the functional interpreter — per thread, across every register
// provider, replacement policy, thread count and fault-injection schedule.
// ViReC's correctness argument rests on the virtualized register file
// being architecturally invisible; this package is the standing gate that
// property is checked against.
//
// Everything is deterministic by seed: the same seed produces a
// byte-identical program and the same verdict, so any failure line from a
// sweep is a complete repro.
package difftest

import (
	"fmt"

	"github.com/virec/virec/internal/asm"
	"github.com/virec/virec/internal/asm/check"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/workloads"
)

// GenConfig dials the shape of generated kernels. The zero value of any
// field selects a default; every field is clamped to a legal range, so
// arbitrary (fuzzer-supplied) configurations generate valid programs.
type GenConfig struct {
	// Insts is the top-level construct budget (leaves, loops, branch
	// blocks). Emitted instruction counts run a small multiple of it.
	Insts int
	// IntRegs is the integer register pressure: the size of the writable
	// scratch pool (x3 upward), dialable from 2 to 22. Loop counters and
	// the fixed thread-id/arena-base registers come on top.
	IntRegs int
	// FPRegs is the floating-point pool size (d0 upward), 0..16. Zero
	// disables FP generation entirely.
	FPRegs int
	// LoopDepth is the maximum loop nesting depth, 0..3.
	LoopDepth int
	// MaxTrip bounds every loop's trip count (loops always terminate:
	// counters are reserved registers no body instruction may write).
	MaxTrip int
	// ArenaBytes is the power-of-two size of the per-thread memory
	// sandbox. Every load/store index is masked into it, so threads can
	// never touch each other's slabs.
	ArenaBytes uint64
	// MemPct, BranchPct, FPPct, YieldPct weight the construct mix (out
	// of 100, applied in that order).
	MemPct    int
	BranchPct int
	FPPct     int
	YieldPct  int
}

// DefaultGenConfig returns a medium-pressure configuration.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Insts:      32,
		IntRegs:    10,
		FPRegs:     4,
		LoopDepth:  2,
		MaxTrip:    6,
		ArenaBytes: 1024,
		MemPct:     30,
		BranchPct:  15,
		FPPct:      10,
		YieldPct:   3,
	}
}

// clamped returns the configuration with every field forced legal.
func (g GenConfig) clamped() GenConfig {
	d := DefaultGenConfig()
	clamp := func(v *int, def, lo, hi int) {
		if *v == 0 {
			*v = def
		}
		if *v < lo {
			*v = lo
		}
		if *v > hi {
			*v = hi
		}
	}
	clamp(&g.Insts, d.Insts, 4, 128)
	clamp(&g.IntRegs, d.IntRegs, 2, 22)
	if g.FPRegs < 0 {
		g.FPRegs = 0
	}
	if g.FPRegs > 16 {
		g.FPRegs = 16
	}
	if g.LoopDepth < 0 {
		g.LoopDepth = 0
	}
	if g.LoopDepth > 3 {
		g.LoopDepth = 3
	}
	clamp(&g.MaxTrip, d.MaxTrip, 1, 64)
	// Arena: power of two in [64, 64K].
	if g.ArenaBytes == 0 {
		g.ArenaBytes = d.ArenaBytes
	}
	a := uint64(64)
	for a < g.ArenaBytes && a < 64*1024 {
		a <<= 1
	}
	g.ArenaBytes = a
	pct := func(v *int, def int) {
		if *v == 0 {
			*v = def
		}
		if *v < 0 {
			*v = 0
		}
		if *v > 60 {
			*v = 60
		}
	}
	pct(&g.MemPct, d.MemPct)
	pct(&g.BranchPct, d.BranchPct)
	pct(&g.FPPct, d.FPPct)
	pct(&g.YieldPct, d.YieldPct)
	return g
}

// GenConfigForSeed derives the sweep's per-seed dials — register pressure
// from 4 registers to the full pool, FP on/off, loop depth, arena size —
// so a seed range covers the whole configuration space deterministically.
func GenConfigForSeed(seed uint64) GenConfig {
	r := rng{seed ^ 0x6a09e667f3bcc909}
	cfg := DefaultGenConfig()
	cfg.IntRegs = []int{2, 4, 6, 10, 14, 22}[r.intn(6)]
	cfg.FPRegs = []int{0, 0, 2, 4, 8, 16}[r.intn(6)]
	cfg.LoopDepth = r.intn(3)
	cfg.Insts = 16 + r.intn(48)
	cfg.MaxTrip = 1 + r.intn(10)
	cfg.ArenaBytes = []uint64{256, 1024, 4096}[r.intn(3)]
	cfg.MemPct = 15 + r.intn(30)
	cfg.BranchPct = 5 + r.intn(20)
	if cfg.FPRegs > 0 {
		cfg.FPPct = 5 + r.intn(15)
	}
	return cfg
}

// Fixed register roles. x1 carries the thread id and x2 the arena base;
// both are entry-defined by the offload payload and never written by
// generated code. Loop counters live above the scratch pool so no leaf
// can clobber one.
const (
	tidReg  = isa.X1
	baseReg = isa.X2
	poolLo  = isa.X3 // scratch pool is x3..x3+IntRegs-1 (max x24)
)

var counterRegs = [...]isa.Reg{isa.X27, isa.X26, isa.X25}

// EntryRegs is the entry-defined register set generated kernels assume
// (beyond XZR/SP, which the analyzer always assumes).
func EntryRegs() []isa.Reg { return []isa.Reg{tidReg, baseReg} }

// splitmix64 generator: the repo-wide deterministic stream.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) pct(p int) bool { return r.intn(100) < p }

// ---- construct table ----

// The generator writes the program directly and records beside it, in
// pre-order, one construct per leaf, loop and if: its kind and the
// instructions it spans. The shrinker edits whole constructs through the
// table, so it can never strand a branch target or un-sandbox a memory
// access: compare+select pairs, mask+access pairs and compare+branch
// heads sit inside one construct.
type consKind uint8

const (
	leafCons consKind = iota // 1..3 instructions, no control flow
	loopCons                 // movz counter; body; subi counter; cbnz counter, body
	ifCons                   // optional compare; branch past the body; body
)

// construct is one table entry: its kind and the instructions
// [start, end) it spans, body included. A construct's start is its
// first instruction, so pre-order is ascending start.
type construct struct {
	kind       consKind
	start, end int32
}

// Kernel is one generated program plus everything needed to run and
// shrink it.
type Kernel struct {
	Seed uint64
	Cfg  GenConfig
	Prog *asm.Program
	Spec *workloads.Spec
	// MaxDyn bounds the dynamic instruction count of any single thread
	// (all conditional bodies taken); interpreter budgets derive from it.
	MaxDyn int

	cons []construct // pre-order; nil for kernels reassembled from artifact text
}

// gen carries generation state. Generate runs it twice over the same
// seed: the counting pass leaves prog and cons nil and only counts, and
// the recording pass writes both, allocated at exactly those counts.
type gen struct {
	cfg GenConfig
	rng rng
	dyn int // worst-case dynamic instructions emitted so far

	prog []isa.Inst  // recording pass: the program, HALT included
	cons []construct // recording pass: the construct table
	n    int         // instructions emitted so far
	nc   int         // constructs opened so far
}

// Generate builds the kernel for a seed. Same seed, same configuration —
// byte-identical program. Every generated kernel passes the asm/check
// analyzer with zero findings and terminates structurally (all backward
// branches are counted loops whose counters nothing else writes).
func Generate(seed uint64, cfg GenConfig) *Kernel {
	cfg = cfg.clamped()
	count := gen{cfg: cfg, rng: rng{seed}}
	count.kernel()
	g := gen{cfg: cfg, rng: rng{seed},
		prog: make([]isa.Inst, count.n+1), cons: make([]construct, count.nc)}
	top := g.kernel()
	g.prog[g.n] = isa.Inst{Op: isa.HALT}

	k := &Kernel{Seed: seed, Cfg: cfg, cons: g.cons, MaxDyn: g.dyn + top + 16}
	if rep := k.rebuild(g.prog); !rep.Clean() {
		// Unreachable by construction; a finding here is a generator bug.
		panic(fmt.Sprintf("difftest: seed %#x generated an unclean program: %v", seed, rep.Findings[0]))
	}
	return k
}

// rebuild installs insts as the kernel's program (after generation or a
// shrinker edit) and returns the analyzer's report on it.
func (k *Kernel) rebuild(insts []isa.Inst) *check.Report {
	name := fmt.Sprintf("difftest-%016x", k.Seed)
	k.Prog = &asm.Program{Name: name, Insts: insts}
	// Hints ride on every generated kernel, so LRC+H gets exercised by
	// the same seed population as everything else; synthesis is
	// deterministic, so a shrunk or replayed kernel re-derives the same
	// flags. The analyzer runs over the same CFG.
	_, rep := check.ApplyAndAnalyze(k.Prog, EntryRegs())
	k.Spec = makeSpec(name, k.Prog, k.Cfg.ArenaBytes)
	return rep
}

// kernel generates the prologue and the top-level block, and returns the
// number of top-level constructs.
func (g *gen) kernel() int {
	return g.prologue() + g.block(0, 1, g.cfg.Insts)
}

// put writes in as the next instruction (recording pass) or counts it.
func (g *gen) put(in isa.Inst) {
	if g.prog != nil {
		g.prog[g.n] = in
	}
	g.n++
}

// open starts a construct at the next instruction and returns its table
// index; end closes it after the last instruction put.
func (g *gen) open(kind consKind) int {
	if g.cons != nil {
		g.cons[g.nc] = construct{kind: kind, start: int32(g.n)}
	}
	g.nc++
	return g.nc - 1
}

func (g *gen) end(c int) {
	if g.cons != nil {
		g.cons[c].end = int32(g.n)
	}
}

// The register draws. The scratch pool is x3..x3+IntRegs-1 and the FP
// pool d0..d0+FPRegs-1; the readable integer registers are the scratch
// pool, then the thread id, then the three loop counters.
func (g *gen) poolReg() isa.Reg { return poolLo + isa.Reg(g.rng.intn(g.cfg.IntRegs)) }

func (g *gen) fpReg() isa.Reg { return isa.V0 + isa.Reg(g.rng.intn(g.cfg.FPRegs)) }

func (g *gen) srcReg() isa.Reg {
	i := g.rng.intn(g.cfg.IntRegs + 1 + len(counterRegs))
	switch {
	case i < g.cfg.IntRegs:
		return poolLo + isa.Reg(i)
	case i == g.cfg.IntRegs:
		return tidReg
	}
	return counterRegs[i-g.cfg.IntRegs-1]
}

// prologue materializes every writable register so any later subsequence
// of reads is defined: immediates into the scratch pool and counters,
// int-to-float conversions into the FP pool. Each definition is a
// construct of its own; it returns their number.
func (g *gen) prologue() int {
	define := func(in isa.Inst) {
		c := g.open(leafCons)
		g.put(in)
		g.end(c)
		g.dyn++
	}
	for i := 0; i < g.cfg.IntRegs; i++ {
		define(isa.Inst{Op: isa.MOVZ, Rd: poolLo + isa.Reg(i), Imm: int64(g.rng.next() & 0xffff)})
	}
	for _, r := range counterRegs {
		define(isa.Inst{Op: isa.MOVZ, Rd: r, Imm: int64(g.rng.next() & 0xff)})
	}
	for i := 0; i < g.cfg.FPRegs; i++ {
		define(isa.Inst{Op: isa.SCVTF, Rd: isa.V0 + isa.Reg(i), Rn: g.poolReg()})
	}
	return g.cfg.IntRegs + len(counterRegs) + g.cfg.FPRegs
}

// block generates up to n constructs at the given loop depth; mult is the
// product of enclosing trip counts (the dynamic weight of one emitted
// instruction here). It returns the number of constructs generated.
func (g *gen) block(depth, mult, n int) int {
	for i := 0; i < n; i++ {
		if g.dyn >= maxDynBudget {
			return i
		}
		r := g.rng.intn(100)
		switch {
		case depth < g.cfg.LoopDepth && r < loopPct && n >= 3:
			g.loop(depth, mult)
		case r < loopPct+g.cfg.BranchPct:
			g.ifBlock(depth, mult)
		default:
			g.leaf(mult)
		}
	}
	return n
}

const (
	loopPct      = 12    // chance of opening a loop where depth allows
	maxDynBudget = 4_000 // worst-case dynamic instructions per thread
)

// loop emits a counted loop: its reserved counter register is set to the
// trip count, and the body repeats until the counter reaches zero.
func (g *gen) loop(depth, mult int) {
	trip := int64(1 + g.rng.intn(g.cfg.MaxTrip))
	inner := mult * int(trip)
	// Loop overhead: movz + (sub+cbnz) per iteration.
	g.dyn += mult + 2*inner
	bodyN := 2 + g.rng.intn(6)
	counter := counterRegs[depth]
	c := g.open(loopCons)
	g.put(isa.Inst{Op: isa.MOVZ, Rd: counter, Imm: trip})
	top := int32(g.n)
	g.block(depth+1, inner, bodyN)
	g.put(isa.Inst{Op: isa.SUBI, Rd: counter, Rn: counter, Imm: 1})
	g.put(isa.Inst{Op: isa.CBNZ, Rn: counter, Target: top})
	g.end(c)
}

// ifBlock emits a conditional branch over a body, after a compare unless
// the branch tests a register itself.
func (g *gen) ifBlock(depth, mult int) {
	c := g.open(ifCons)
	var br isa.Inst
	switch g.rng.intn(3) {
	case 0: // cbz/cbnz directly on a register
		op := isa.CBZ
		if g.rng.pct(50) {
			op = isa.CBNZ
		}
		br = isa.Inst{Op: op, Rn: g.srcReg()}
		g.dyn += mult
	default: // compare then conditional branch
		g.put(g.compare())
		ops := [...]isa.Op{isa.BEQ, isa.BNE, isa.BLT, isa.BLE, isa.BGT, isa.BGE, isa.BLO, isa.BHS}
		br = isa.Inst{Op: ops[g.rng.intn(len(ops))]}
		g.dyn += 2 * mult
	}
	hole := g.n
	g.put(br)
	bodyN := 1 + g.rng.intn(4)
	g.block(depth, mult, bodyN)
	if g.prog != nil {
		g.prog[hole].Target = int32(g.n)
	}
	g.end(c)
}

// compare returns one flag-setting instruction.
func (g *gen) compare() isa.Inst {
	if g.cfg.FPRegs > 0 && g.rng.pct(20) {
		return isa.Inst{Op: isa.FCMP, Rn: g.fpReg(), Rm: g.fpReg()}
	}
	switch g.rng.intn(3) {
	case 0:
		return isa.Inst{Op: isa.CMPI, Rn: g.srcReg(), Imm: int64(g.rng.intn(1 << 12))}
	case 1:
		return isa.Inst{Op: isa.TST, Rn: g.srcReg(), Rm: g.srcReg()}
	default:
		return isa.Inst{Op: isa.CMP, Rn: g.srcReg(), Rm: g.srcReg()}
	}
}

// leaf emits one straight-line construct.
func (g *gen) leaf(mult int) {
	c := g.open(leafCons)
	r := g.rng.intn(100)
	switch {
	case r < g.cfg.MemPct:
		g.memLeaf(mult)
	case r < g.cfg.MemPct+g.cfg.FPPct && g.cfg.FPRegs > 0:
		g.fpLeaf(mult)
	case r < g.cfg.MemPct+g.cfg.FPPct+g.cfg.YieldPct:
		g.dyn += mult
		g.put(isa.Inst{Op: isa.YIELD})
	case r < g.cfg.MemPct+g.cfg.FPPct+g.cfg.YieldPct+8:
		g.selectLeaf(mult)
	default:
		g.aluLeaf(mult)
	}
	g.end(c)
}

func (g *gen) aluLeaf(mult int) {
	var in isa.Inst
	rd := g.poolReg()
	switch g.rng.intn(12) {
	case 0:
		in = isa.Inst{Op: isa.MOVZ, Rd: rd, Imm: int64(g.rng.next() & 0xffff), Shift: uint8(g.rng.intn(4))}
	case 1:
		in = isa.Inst{Op: isa.MOVK, Rd: rd, Imm: int64(g.rng.next() & 0xffff), Shift: uint8(g.rng.intn(4))}
	case 2:
		in = isa.Inst{Op: isa.MOV, Rd: rd, Rn: g.srcReg()}
	case 3:
		ops := [...]isa.Op{isa.ADDI, isa.SUBI, isa.ANDI, isa.ORRI, isa.EORI}
		in = isa.Inst{Op: ops[g.rng.intn(len(ops))], Rd: rd, Rn: g.srcReg(),
			Imm: int64(g.rng.intn(1 << 12))}
	case 4:
		ops := [...]isa.Op{isa.LSLI, isa.LSRI, isa.ASRI}
		in = isa.Inst{Op: ops[g.rng.intn(len(ops))], Rd: rd, Rn: g.srcReg(),
			Shift: uint8(g.rng.intn(64))}
	case 5:
		in = isa.Inst{Op: isa.MADD, Rd: rd, Rn: g.srcReg(), Rm: g.srcReg(), Ra: g.srcReg()}
	case 6:
		ops := [...]isa.Op{isa.UDIV, isa.SDIV}
		in = isa.Inst{Op: ops[g.rng.intn(2)], Rd: rd, Rn: g.srcReg(), Rm: g.srcReg()}
	case 7:
		ops := [...]isa.Op{isa.LSLV, isa.LSRV, isa.ASRV}
		in = isa.Inst{Op: ops[g.rng.intn(3)], Rd: rd, Rn: g.srcReg(), Rm: g.srcReg()}
	default:
		ops := [...]isa.Op{isa.ADD, isa.SUB, isa.MUL, isa.AND, isa.ORR, isa.EOR}
		rm := g.srcReg()
		if g.rng.pct(5) {
			rm = isa.XZR
		}
		in = isa.Inst{Op: ops[g.rng.intn(len(ops))], Rd: rd, Rn: g.srcReg(), Rm: rm}
	}
	g.dyn += mult
	g.put(in)
}

func (g *gen) fpLeaf(mult int) {
	var in isa.Inst
	rd := g.fpReg()
	switch g.rng.intn(8) {
	case 0:
		in = isa.Inst{Op: isa.SCVTF, Rd: rd, Rn: g.srcReg()}
	case 1:
		in = isa.Inst{Op: isa.FCVTZS, Rd: g.poolReg(), Rn: g.fpReg()}
	case 2:
		ops := [...]isa.Op{isa.FNEG, isa.FABS, isa.FSQRT, isa.FMOV}
		in = isa.Inst{Op: ops[g.rng.intn(4)], Rd: rd, Rn: g.fpReg()}
	case 3:
		in = isa.Inst{Op: isa.FMADD, Rd: rd, Rn: g.fpReg(), Rm: g.fpReg(), Ra: g.fpReg()}
	case 4:
		in = isa.Inst{Op: isa.FDIV, Rd: rd, Rn: g.fpReg(), Rm: g.fpReg()}
	default:
		ops := [...]isa.Op{isa.FADD, isa.FSUB, isa.FMUL}
		in = isa.Inst{Op: ops[g.rng.intn(3)], Rd: rd, Rn: g.fpReg(), Rm: g.fpReg()}
	}
	g.dyn += mult
	g.put(in)
}

// selectLeaf pairs a compare with a conditional select so the flag use
// always has a dominating flag setter regardless of surrounding shrinks.
// The select is drawn before the compare it follows.
func (g *gen) selectLeaf(mult int) {
	op := isa.CSEL
	if g.rng.pct(40) {
		op = isa.CSINC
	}
	sel := isa.Inst{Op: op, Rd: g.poolReg(), Rn: g.srcReg(),
		Rm: g.srcReg(), Cond: isa.Cond(g.rng.intn(8))}
	g.dyn += 2 * mult
	g.put(g.compare())
	g.put(sel)
}

// memLeaf emits a sandboxed load or store as an atomic mask+access pair:
// the index register is masked into the arena immediately before the
// access, so no shrink or data value can ever escape the thread's slab.
func (g *gen) memLeaf(mult int) {
	widths := [...]int{8, 8, 8, 4, 4, 2, 1}
	w := widths[g.rng.intn(len(widths))]
	idx := g.poolReg()
	src := g.srcReg()
	isLoad := g.rng.pct(55)
	fpData := w == 8 && g.cfg.FPRegs > 0 && g.rng.pct(25)

	var dataReg isa.Reg
	if fpData {
		dataReg = g.fpReg()
	} else if isLoad {
		dataReg = g.poolReg()
	} else {
		dataReg = g.srcReg()
	}

	var loadOp, storeOp isa.Op
	switch w {
	case 8:
		loadOp, storeOp = isa.LDR, isa.STR
	case 4:
		loadOp, storeOp = isa.LDRW, isa.STRW
		if isLoad && g.rng.pct(30) {
			loadOp = isa.LDRSW
		}
	case 2:
		loadOp, storeOp = isa.LDRH, isa.STRH
	default:
		loadOp, storeOp = isa.LDRB, isa.STRB
	}
	op := storeOp
	if isLoad {
		op = loadOp
	}

	start := g.n
	access := isa.Inst{Op: op, Rd: dataReg}
	switch g.rng.intn(10) {
	case 0, 1: // [idx, #imm]: absolute address in idx, aligned immediate
		alignedMask := int64(g.cfg.ArenaBytes-1) &^ 7
		g.put(isa.Inst{Op: isa.ANDI, Rd: idx, Rn: src, Imm: alignedMask})
		g.put(isa.Inst{Op: isa.ADD, Rd: idx, Rn: baseReg, Rm: idx})
		access.Rn, access.Mode = idx, isa.AddrImm
		access.Imm = int64(w * g.rng.intn(8)) // stays inside the slab's 64-byte slack
	case 2, 3, 4: // [x2, idx, lsl #log2(w)]: element index, scaled
		shift := uint8(0)
		for 1<<shift < w {
			shift++
		}
		g.put(isa.Inst{Op: isa.ANDI, Rd: idx, Rn: src, Imm: int64(g.cfg.ArenaBytes/uint64(w) - 1)})
		access.Rn, access.Rm, access.Mode, access.Shift = baseReg, idx, isa.AddrRegShift, shift
	default: // [x2, idx]: byte offset, aligned to the access width
		g.put(isa.Inst{Op: isa.ANDI, Rd: idx, Rn: src, Imm: int64(g.cfg.ArenaBytes-1) &^ int64(w-1)})
		access.Rn, access.Rm, access.Mode = baseReg, idx, isa.AddrReg
	}
	g.put(access)
	g.dyn += mult * (g.n - start)
}

// makeSpec wraps a generated program as a workload: the offload payload
// is x1 = thread id and x2 = the thread's private arena base, and the
// arena is pre-filled with a deterministic byte pattern derived from the
// run seed and thread id. Verification is the differential checker's job,
// so the workload-level verifier accepts everything.
func makeSpec(name string, prog *asm.Program, arena uint64) *workloads.Spec {
	return &workloads.Spec{
		Name:        name,
		Suite:       "difftest",
		Description: "constrained-random differential-test kernel",
		Prog:        prog,
		SlabBytes:   arena + 64, // slack for the immediate-offset addressing form
		Setup: func(m *mem.Memory, base mem.Addr, p workloads.Params, set func(isa.Reg, uint64)) workloads.Verify {
			r := rng{p.Seed ^ (uint64(p.ThreadID)+1)*0x9e3779b97f4a7c15}
			for off := uint64(0); off < arena+64; off += 8 {
				m.Write64(base+mem.Addr(off), r.next())
			}
			set(tidReg, uint64(p.ThreadID))
			set(baseReg, uint64(base))
			return func(func(isa.Reg) uint64, *mem.Memory) error { return nil }
		},
	}
}

// Text renders the kernel's program in assembler syntax (the repro
// artifact form; reassembles with asm.Assemble).
func (k *Kernel) Text() string { return asm.Disassemble(k.Prog) }

// KernelFromProgram wraps an existing program (a reassembled artifact) as
// a kernel. It has no construct table, so such kernels check and replay
// but do not shrink.
func KernelFromProgram(seed uint64, cfg GenConfig, prog *asm.Program) *Kernel {
	cfg = cfg.clamped()
	name := fmt.Sprintf("difftest-%016x", seed)
	prog.Name = name
	// Repro artifacts travel as text, which does not carry hints;
	// re-synthesize them so a replay exercises the same policy behaviour.
	check.Apply(prog)
	return &Kernel{
		Seed:   seed,
		Cfg:    cfg,
		Prog:   prog,
		Spec:   makeSpec(name, prog, cfg.ArenaBytes),
		MaxDyn: maxDynBudget * 4,
	}
}
