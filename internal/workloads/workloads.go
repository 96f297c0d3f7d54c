// Package workloads provides the memory-intensive benchmark kernels used
// in the ViReC evaluation. The paper draws its workloads from four suites
// used in prior near-data-processing studies: Spatter (gather/scatter
// microkernels) [36], Arm meabo (mixed compute/memory phases) [7], the
// CORAL-2 suite (lookup/stream kernels) [1], and PrIM (processing-in-
// memory kernels) [28]. The binaries are proprietary-to-rebuild against a
// custom ISA, so each kernel is re-written here in assembly with the same
// access pattern and arithmetic intensity, plus a Go-side golden model so
// every simulation is verified end to end.
//
// Every kernel follows one register convention: x1 holds the iteration
// count, x2-x4 hold base pointers, x5 is the induction variable, and
// higher registers hold accumulators and temporaries. Outer-loop-only
// values are kept out of registers entirely (the paper's compiler
// register-reduction, Section 4.2).
package workloads

import (
	"fmt"

	"github.com/virec/virec/internal/asm"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
)

// Params sizes one thread's run of a kernel.
type Params struct {
	Iters    int    // inner-loop trip count
	Seed     uint64 // deterministic data seed
	ThreadID int    // used to decorrelate per-thread data
}

// DefaultParams returns a medium-size configuration.
func DefaultParams(thread int) Params {
	return Params{Iters: 256, Seed: 0x9e3779b97f4a7c15, ThreadID: thread}
}

// Verify checks a thread's final architectural state against the golden
// model. shadow reads a register's committed value; m is the functional
// memory. A model recomputes the words it checks from Params when it runs,
// so Setup keeps nothing that grows with Iters. It checks each address the
// kernel stores to once, against the last store's value, in ascending
// address order: a run with several wrong words always reports the lowest.
type Verify func(shadow func(isa.Reg) uint64, m *mem.Memory) error

// SetupFn initializes one thread's slab of memory and initial registers,
// returning the verifier for its final state.
type SetupFn func(m *mem.Memory, base mem.Addr, p Params, set func(isa.Reg, uint64)) Verify

// Spec is one benchmark kernel.
type Spec struct {
	Name        string
	Suite       string
	Description string
	Prog        *asm.Program
	Setup       SetupFn

	// SlabBytes is the per-thread data footprint the setup needs.
	SlabBytes uint64
	// MaxIters is the largest Params.Iters the data layout holds, 0 when
	// the footprint does not grow with Iters. Past it, Setup's
	// per-iteration arrays run into the kernel's next array or past
	// SlabBytes into the next thread's slab, and the run fails its golden
	// model.
	MaxIters int
}

// ActiveRegs returns the registers used inside the kernel's loops — the
// "active context" the paper sizes ViReC against (Figure 2) and the
// oracle set for exact prefetching.
func (s *Spec) ActiveRegs() []isa.Reg {
	inner, _ := RegisterUsage(s.Prog)
	return inner
}

// EntryRegs returns the registers the kernel's Setup initializes before
// execution starts, ascending — the entry-defined set the asm/check
// use-before-def analysis starts from. Setup runs against a scratch
// memory, so calling this has no effect on any live simulation state.
func (s *Spec) EntryRegs(p Params) []isa.Reg {
	var seen [isa.NumRegs]bool
	m := mem.NewMemory()
	s.Setup(m, 0, p, func(r isa.Reg, _ uint64) {
		if r.Valid() {
			seen[r] = true
		}
	})
	m.Release()
	return regList(&seen)
}

// rng is a splitmix64 generator for deterministic data.
type rng struct{ state uint64 }

// gamma is splitmix64's state increment: every draw adds it once.
const gamma = 0x9e3779b97f4a7c15

func newRng(p Params) *rng {
	return &rng{state: p.Seed + uint64(p.ThreadID)*gamma + 0x632be59bd9b4e019}
}

func (r *rng) next() uint64 {
	r.state += gamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// skip moves the stream past n draws without making them. A draw adds
// gamma to the state and nothing else, so n draws add n times gamma.
func (r *rng) skip(n int) { r.state += uint64(n) * gamma }

// draw returns draw number n, counting from 0, of p's stream without
// making the draws before it.
func draw(p Params, n int) uint64 {
	r := newRng(p)
	r.skip(n)
	return r.next()
}

// checkReg compares a register's final value with the golden model's.
func checkReg(shadow func(isa.Reg) uint64, reg isa.Reg, want uint64) error {
	if got := shadow(reg); got != want {
		return fmt.Errorf("%s = %d, want %d", reg, got, want)
	}
	return nil
}

// expectReg builds a Verify for a single accumulator register.
func expectReg(reg isa.Reg, want uint64) Verify {
	return func(shadow func(isa.Reg) uint64, _ *mem.Memory) error {
		return checkReg(shadow, reg, want)
	}
}

// checkWord compares the memory word at a with the golden model's value.
func checkWord(m *mem.Memory, a mem.Addr, want uint64) error {
	if got := m.Read64(a); got != want {
		return fmt.Errorf("mem[%#x] = %d, want %d", a, got, want)
	}
	return nil
}

// checkTable checks a table of words at base that a kernel stores into
// in any order: entry i holds last[i] wherever stored[i], the value of
// the last store to it. The callers keep both arrays on the stack.
func checkTable(m *mem.Memory, base mem.Addr, last []uint64, stored []bool) error {
	for i, ok := range stored {
		if !ok {
			continue
		}
		if err := checkWord(m, base+mem.Addr(8*i), last[i]); err != nil {
			return err
		}
	}
	return nil
}

// ---- Spatter suite ----

const tableSize = 4096 // value-table entries for indirect kernels

// gatherSpec: streaming indirect read — the paper's running example.
var gatherSpec = &Spec{
	Name:        "gather",
	Suite:       "spatter",
	Description: "sum += values[idx[i]] with a cache-defeating index stream",
	SlabBytes:   4*8192 + 8*tableSize + 4096,
	MaxIters:    8192,
	Prog: asm.MustAssemble("gather", `
		mov x4, #0
		mov x5, #0
	loop:
		ldrsw x6, [x2, x5, lsl #2]
		ldr   x7, [x3, x6, lsl #3]
		add   x4, x4, x7
		add   x5, x5, #1
		cmp   x5, x1
		b.lt  loop
		halt
	`),
	Setup: func(m *mem.Memory, base mem.Addr, p Params, set func(isa.Reg, uint64)) Verify {
		r := newRng(p)
		idxBase := base
		valBase := base + 4*8192 + 0x140
		var sum uint64
		for i := 0; i < tableSize; i++ {
			m.Write64(valBase+mem.Addr(8*i), r.next()%1000000)
		}
		for i := 0; i < p.Iters; i++ {
			idx := (i*531 + r.intn(7)) % tableSize
			m.Write(idxBase+mem.Addr(4*i), 4, uint64(idx))
			sum += m.Read64(valBase + mem.Addr(8*idx))
		}
		set(isa.X1, uint64(p.Iters))
		set(isa.X2, uint64(idxBase))
		set(isa.X3, uint64(valBase))
		return expectReg(isa.X4, sum)
	},
}

// scatterSpec: streaming indirect write.
var scatterSpec = &Spec{
	Name:        "scatter",
	Suite:       "spatter",
	Description: "dst[idx[i]] = src[i] with a cache-defeating index stream",
	SlabBytes:   4*8192 + 8*8192 + 8*tableSize + 4096,
	MaxIters:    8192,
	Prog: asm.MustAssemble("scatter", `
		mov x5, #0
	loop:
		ldrsw x6, [x2, x5, lsl #2]
		ldr   x7, [x3, x5, lsl #3]
		str   x7, [x4, x6, lsl #3]
		add   x5, x5, #1
		cmp   x5, x1
		b.lt  loop
		halt
	`),
	Setup: func(m *mem.Memory, base mem.Addr, p Params, set func(isa.Reg, uint64)) Verify {
		r := newRng(p)
		idxBase := base
		srcBase := base + 4*8192 + 0x140
		dstBase := srcBase + 8*8192 + 0x1c0
		for i := 0; i < p.Iters; i++ {
			idx := (i*531 + r.intn(7)) % tableSize
			v := r.next() % 1000000
			m.Write(idxBase+mem.Addr(4*i), 4, uint64(idx))
			m.Write64(srcBase+mem.Addr(8*i), v)
		}
		set(isa.X1, uint64(p.Iters))
		set(isa.X2, uint64(idxBase))
		set(isa.X3, uint64(srcBase))
		set(isa.X4, uint64(dstBase))
		return func(_ func(isa.Reg) uint64, m *mem.Memory) error {
			var last [tableSize]uint64
			var stored [tableSize]bool
			r := newRng(p)
			for i := 0; i < p.Iters; i++ {
				idx := (i*531 + r.intn(7)) % tableSize
				last[idx], stored[idx] = r.next()%1000000, true
			}
			return checkTable(m, dstBase, last[:], stored[:])
		}
	},
}

// gsSpec: combined gather + scatter.
var gsSpec = &Spec{
	Name:        "gs",
	Suite:       "spatter",
	Description: "dst[idx2[i]] = src[idx1[i]] (gather-scatter)",
	SlabBytes:   2*4*8192 + 2*8*tableSize + 8192,
	MaxIters:    8192,
	Prog: asm.MustAssemble("gs", `
		mov x5, #0
	loop:
		ldrsw x6, [x2, x5, lsl #2]
		ldrsw x7, [x3, x5, lsl #2]
		ldr   x8, [x9, x6, lsl #3]
		str   x8, [x10, x7, lsl #3]
		add   x5, x5, #1
		cmp   x5, x1
		b.lt  loop
		halt
	`),
	Setup: func(m *mem.Memory, base mem.Addr, p Params, set func(isa.Reg, uint64)) Verify {
		r := newRng(p)
		idx1 := base
		idx2 := idx1 + 4*8192 + 0x140
		src := idx2 + 4*8192 + 0x1c0
		dst := src + 8*tableSize + 0x240
		for i := 0; i < tableSize; i++ {
			m.Write64(src+mem.Addr(8*i), r.next()%1000000)
		}
		for i := 0; i < p.Iters; i++ {
			a := (i*379 + r.intn(11)) % tableSize
			b := (i*523 + r.intn(13)) % tableSize
			m.Write(idx1+mem.Addr(4*i), 4, uint64(a))
			m.Write(idx2+mem.Addr(4*i), 4, uint64(b))
		}
		set(isa.X1, uint64(p.Iters))
		set(isa.X2, uint64(idx1))
		set(isa.X3, uint64(idx2))
		set(isa.X9, uint64(src))
		set(isa.X10, uint64(dst))
		return func(_ func(isa.Reg) uint64, m *mem.Memory) error {
			var last [tableSize]uint64
			var stored [tableSize]bool
			r := newRng(p)
			r.skip(tableSize) // the src table: src[a] is draw a
			for i := 0; i < p.Iters; i++ {
				a := (i*379 + r.intn(11)) % tableSize
				b := (i*523 + r.intn(13)) % tableSize
				last[b], stored[b] = draw(p, a)%1000000, true
			}
			return checkTable(m, dst, last[:], stored[:])
		}
	},
}

// strideSpec: uniform-stride read stream (one load per line).
var strideSpec = &Spec{
	Name:        "stride",
	Suite:       "spatter",
	Description: "sum += a[8*i]: unit work per cache line",
	SlabBytes:   64 * 8192,
	MaxIters:    8192,
	Prog: asm.MustAssemble("stride", `
		mov x4, #0
		mov x5, #0
	loop:
		ldr  x6, [x2, x5, lsl #6]
		add  x4, x4, x6
		add  x5, x5, #1
		cmp  x5, x1
		b.lt loop
		halt
	`),
	Setup: func(m *mem.Memory, base mem.Addr, p Params, set func(isa.Reg, uint64)) Verify {
		r := newRng(p)
		var sum uint64
		for i := 0; i < p.Iters; i++ {
			v := r.next() % 1000000
			m.Write64(base+mem.Addr(64*i), v)
			sum += v
		}
		set(isa.X1, uint64(p.Iters))
		set(isa.X2, uint64(base))
		return expectReg(isa.X4, sum)
	},
}

// chaseSpec: serial pointer chase — zero MLP within a thread.
var chaseSpec = &Spec{
	Name:        "chase",
	Suite:       "spatter",
	Description: "p = *p pointer chase: one dependent miss per iteration",
	SlabBytes:   8 * tableSize * 8,
	MaxIters:    0, // the chase cycles through a fixed node set
	Prog: asm.MustAssemble("chase", `
		mov x5, #0
	loop:
		ldr  x4, [x4]
		add  x5, x5, #1
		cmp  x5, x1
		b.lt loop
		halt
	`),
	Setup: func(m *mem.Memory, base mem.Addr, p Params, set func(isa.Reg, uint64)) Verify {
		r := newRng(p)
		// Build a random permutation cycle over `nodes` pointer slots,
		// spaced one per line to defeat the cache.
		const nodes = tableSize
		var perm [nodes]uint16
		for i := range perm {
			perm[i] = uint16(i)
		}
		for i := nodes - 1; i > 0; i-- {
			j := r.intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		addrOf := func(slot uint16) mem.Addr { return base + mem.Addr(64*int(slot)) }
		for i := 0; i < nodes; i++ {
			m.Write64(addrOf(perm[i]), uint64(addrOf(perm[(i+1)%nodes])))
		}
		start := addrOf(perm[0])
		cur := start
		for i := 0; i < p.Iters; i++ {
			cur = mem.Addr(m.Read64(cur))
		}
		set(isa.X1, uint64(p.Iters))
		set(isa.X4, uint64(start))
		return expectReg(isa.X4, uint64(cur))
	},
}

// ---- meabo suite ----

// meaboSpec: mixed compute and irregular memory phases per iteration.
var meaboSpec = &Spec{
	Name:        "meabo",
	Suite:       "meabo",
	Description: "compute chain + streaming load + irregular store per iteration",
	SlabBytes:   8*8192 + 8*64 + 4096,
	MaxIters:    8192,
	Prog: asm.MustAssemble("meabo", `
		mov x9, #0
		mov x5, #0
	loop:
		ldr  x6, [x2, x5, lsl #3]
		mul  x7, x6, x6
		add  x7, x7, x6
		eor  x8, x7, x6
		add  x9, x9, x8
		and  x10, x6, #63
		str  x8, [x3, x10, lsl #3]
		add  x5, x5, #1
		cmp  x5, x1
		b.lt loop
		halt
	`),
	Setup: func(m *mem.Memory, base mem.Addr, p Params, set func(isa.Reg, uint64)) Verify {
		r := newRng(p)
		src := base
		tbl := base + 8*8192 + 0x140
		var sum uint64
		for i := 0; i < p.Iters; i++ {
			v := r.next() % (1 << 20)
			m.Write64(src+mem.Addr(8*i), v)
			sum += (v*v + v) ^ v
		}
		set(isa.X1, uint64(p.Iters))
		set(isa.X2, uint64(src))
		set(isa.X3, uint64(tbl))
		return func(shadow func(isa.Reg) uint64, m *mem.Memory) error {
			if err := checkReg(shadow, isa.X9, sum); err != nil {
				return err
			}
			var last [64]uint64
			var stored [64]bool
			r := newRng(p)
			for i := 0; i < p.Iters; i++ {
				v := r.next() % (1 << 20)
				last[v&63], stored[v&63] = (v*v+v)^v, true
			}
			return checkTable(m, tbl, last[:], stored[:])
		}
	},
}

// ---- CORAL-2 suite ----

// lookupSpec: XSBench-flavoured randomized table lookup with compute.
var lookupSpec = &Spec{
	Name:        "lookup",
	Suite:       "coral2",
	Description: "LCG-randomized table lookup with light compute (XSBench-like)",
	SlabBytes:   8 * tableSize,
	MaxIters:    0, // the lookups index a fixed table
	Prog: asm.MustAssemble("lookup", `
		mov x7, #0
		mov x5, #0
	loop:
		mul  x4, x4, x11
		add  x4, x4, #12345
		lsr  x8, x4, #17
		and  x8, x8, x12
		ldr  x9, [x3, x8, lsl #3]
		eor  x7, x7, x9
		add  x7, x7, x9
		add  x5, x5, #1
		cmp  x5, x1
		b.lt loop
		halt
	`),
	Setup: func(m *mem.Memory, base mem.Addr, p Params, set func(isa.Reg, uint64)) Verify {
		r := newRng(p)
		for i := 0; i < tableSize; i++ {
			m.Write64(base+mem.Addr(8*i), r.next())
		}
		const mult = 6364136223846793005
		state := r.next() | 1
		var acc uint64
		s := state
		for i := 0; i < p.Iters; i++ {
			s = s*mult + 12345
			idx := (s >> 17) & (tableSize - 1)
			v := m.Read64(base + mem.Addr(8*idx))
			acc = (acc ^ v) + v
		}
		set(isa.X1, uint64(p.Iters))
		set(isa.X3, uint64(base))
		set(isa.X4, state)
		set(isa.X11, uint64(mult))
		set(isa.X12, tableSize-1)
		return expectReg(isa.X7, acc)
	},
}

// triadSpec: STREAM triad.
var triadSpec = &Spec{
	Name:        "triad",
	Suite:       "coral2",
	Description: "a[i] = b[i] + k*c[i] (STREAM triad)",
	SlabBytes:   3*8*8192 + 8192,
	MaxIters:    8192,
	Prog: asm.MustAssemble("triad", `
		mov x5, #0
	loop:
		ldr  x6, [x2, x5, lsl #3]
		ldr  x7, [x3, x5, lsl #3]
		mul  x7, x7, x10
		add  x6, x6, x7
		str  x6, [x4, x5, lsl #3]
		add  x5, x5, #1
		cmp  x5, x1
		b.lt loop
		halt
	`),
	Setup: func(m *mem.Memory, base mem.Addr, p Params, set func(isa.Reg, uint64)) Verify {
		r := newRng(p)
		b := base
		c := base + 8*8192 + 0x140
		a := c + 8*8192 + 0x1c0
		const k = 3
		for i := 0; i < p.Iters; i++ {
			vb, vc := r.next()%(1<<30), r.next()%(1<<30)
			m.Write64(b+mem.Addr(8*i), vb)
			m.Write64(c+mem.Addr(8*i), vc)
		}
		set(isa.X1, uint64(p.Iters))
		set(isa.X2, uint64(b))
		set(isa.X3, uint64(c))
		set(isa.X4, uint64(a))
		set(isa.X10, k)
		return func(_ func(isa.Reg) uint64, m *mem.Memory) error {
			r := newRng(p)
			for i := 0; i < p.Iters; i++ {
				vb, vc := r.next()%(1<<30), r.next()%(1<<30)
				if err := checkWord(m, a+mem.Addr(8*i), vb+k*vc); err != nil {
					return err
				}
			}
			return nil
		}
	},
}

// ---- PrIM suite ----

// vecaddSpec: elementwise vector add.
var vecaddSpec = &Spec{
	Name:        "vecadd",
	Suite:       "prim",
	Description: "c[i] = a[i] + b[i]",
	SlabBytes:   3*8*8192 + 8192,
	MaxIters:    8192,
	Prog: asm.MustAssemble("vecadd", `
		mov x5, #0
	loop:
		ldr  x6, [x2, x5, lsl #3]
		ldr  x7, [x3, x5, lsl #3]
		add  x6, x6, x7
		str  x6, [x4, x5, lsl #3]
		add  x5, x5, #1
		cmp  x5, x1
		b.lt loop
		halt
	`),
	Setup: func(m *mem.Memory, base mem.Addr, p Params, set func(isa.Reg, uint64)) Verify {
		r := newRng(p)
		a := base
		b := base + 8*8192 + 0x140
		c := b + 8*8192 + 0x1c0
		for i := 0; i < p.Iters; i++ {
			va, vb := r.next()%(1<<30), r.next()%(1<<30)
			m.Write64(a+mem.Addr(8*i), va)
			m.Write64(b+mem.Addr(8*i), vb)
		}
		set(isa.X1, uint64(p.Iters))
		set(isa.X2, uint64(a))
		set(isa.X3, uint64(b))
		set(isa.X4, uint64(c))
		return func(_ func(isa.Reg) uint64, m *mem.Memory) error {
			r := newRng(p)
			for i := 0; i < p.Iters; i++ {
				va, vb := r.next()%(1<<30), r.next()%(1<<30)
				if err := checkWord(m, c+mem.Addr(8*i), va+vb); err != nil {
					return err
				}
			}
			return nil
		}
	},
}

// reductionSpec: streaming sum.
var reductionSpec = &Spec{
	Name:        "reduction",
	Suite:       "prim",
	Description: "sum += a[i] (sequential reduction)",
	SlabBytes:   8*8192 + 4096,
	MaxIters:    8192,
	Prog: asm.MustAssemble("reduction", `
		mov x4, #0
		mov x5, #0
	loop:
		ldr  x6, [x2, x5, lsl #3]
		add  x4, x4, x6
		add  x5, x5, #1
		cmp  x5, x1
		b.lt loop
		halt
	`),
	Setup: func(m *mem.Memory, base mem.Addr, p Params, set func(isa.Reg, uint64)) Verify {
		r := newRng(p)
		var sum uint64
		for i := 0; i < p.Iters; i++ {
			v := r.next() % 1000000
			m.Write64(base+mem.Addr(8*i), v)
			sum += v
		}
		set(isa.X1, uint64(p.Iters))
		set(isa.X2, uint64(base))
		return expectReg(isa.X4, sum)
	},
}

// histogramSpec: indirect read-modify-write.
var histogramSpec = &Spec{
	Name:        "histogram",
	Suite:       "prim",
	Description: "bins[a[i] & 255]++ (indirect read-modify-write)",
	SlabBytes:   8*8192 + 8*256 + 4096,
	MaxIters:    8192,
	Prog: asm.MustAssemble("histogram", `
		mov x5, #0
	loop:
		ldr  x6, [x2, x5, lsl #3]
		and  x6, x6, #255
		ldr  x7, [x3, x6, lsl #3]
		add  x7, x7, #1
		str  x7, [x3, x6, lsl #3]
		add  x5, x5, #1
		cmp  x5, x1
		b.lt loop
		halt
	`),
	Setup: func(m *mem.Memory, base mem.Addr, p Params, set func(isa.Reg, uint64)) Verify {
		r := newRng(p)
		src := base
		bins := base + 8*8192 + 0x140
		for i := 0; i < p.Iters; i++ {
			m.Write64(src+mem.Addr(8*i), r.next())
		}
		set(isa.X1, uint64(p.Iters))
		set(isa.X2, uint64(src))
		set(isa.X3, uint64(bins))
		return func(_ func(isa.Reg) uint64, m *mem.Memory) error {
			var counts [256]uint64
			r := newRng(p)
			for i := 0; i < p.Iters; i++ {
				counts[r.next()&255]++
			}
			// Only the bins the kernel writes are checked.
			for b, n := range counts {
				if n == 0 {
					continue
				}
				if err := checkWord(m, bins+mem.Addr(8*b), n); err != nil {
					return err
				}
			}
			return nil
		}
	},
}

// spmvSpec: CSR sparse matrix-vector product (nested loops).
var spmvSpec = &Spec{
	Name:        "spmv",
	Suite:       "prim",
	Description: "y = A*x over CSR with irregular column accesses",
	SlabBytes:   8*1024 + 8*16384 + 8*16384 + 8*tableSize + 8*1024 + 8192,
	MaxIters:    4096, // four nonzeros per row, 1024 rows
	Prog: asm.MustAssemble("spmv", `
		mov x5, #0
	row:
		ldr  x8, [x2, x5, lsl #3]
		add  x9, x5, #1
		ldr  x9, [x2, x9, lsl #3]
		mov  x10, #0
	inner:
		cmp  x8, x9
		b.ge done
		ldr  x11, [x3, x8, lsl #3]
		ldr  x12, [x4, x8, lsl #3]
		ldr  x13, [x6, x11, lsl #3]
		mul  x12, x12, x13
		add  x10, x10, x12
		add  x8, x8, #1
		b    inner
	done:
		str  x10, [x7, x5, lsl #3]
		add  x5, x5, #1
		cmp  x5, x1
		b.lt row
		halt
	`),
	Setup: func(m *mem.Memory, base mem.Addr, p Params, set func(isa.Reg, uint64)) Verify {
		r := newRng(p)
		rows := p.Iters / 4
		if rows == 0 {
			rows = 1
		}
		const nnzPerRow = 4
		rowptr := base
		colidx := rowptr + 8*1024 + 0x140
		vals := colidx + 8*16384 + 0x1c0
		x := vals + 8*16384 + 0x240
		y := x + 8*tableSize + 0x2c0
		for i := 0; i < tableSize; i++ {
			m.Write64(x+mem.Addr(8*i), r.next()%1000)
		}
		nnz := 0
		for row := 0; row < rows; row++ {
			m.Write64(rowptr+mem.Addr(8*row), uint64(nnz))
			for k := 0; k < nnzPerRow; k++ {
				col := (row*977 + k*613 + r.intn(31)) % tableSize
				v := r.next() % 100
				m.Write64(colidx+mem.Addr(8*nnz), uint64(col))
				m.Write64(vals+mem.Addr(8*nnz), v)
				nnz++
			}
		}
		m.Write64(rowptr+mem.Addr(8*rows), uint64(nnz))
		set(isa.X1, uint64(rows))
		set(isa.X2, uint64(rowptr))
		set(isa.X3, uint64(colidx))
		set(isa.X4, uint64(vals))
		set(isa.X6, uint64(x))
		set(isa.X7, uint64(y))
		return func(_ func(isa.Reg) uint64, m *mem.Memory) error {
			r := newRng(p)
			r.skip(tableSize) // the x table: x[col] is draw col
			for row := 0; row < rows; row++ {
				var acc uint64
				for k := 0; k < nnzPerRow; k++ {
					col := (row*977 + k*613 + r.intn(31)) % tableSize
					v := r.next() % 100
					acc += v * (draw(p, col) % 1000)
				}
				if err := checkWord(m, y+mem.Addr(8*row), acc); err != nil {
					return err
				}
			}
			return nil
		}
	},
}

// bfsSpec: frontier expansion with two-level indirection.
var bfsSpec = &Spec{
	Name:        "bfs",
	Suite:       "prim",
	Description: "frontier walk: chained node->offset->neighbor loads",
	SlabBytes:   8*8192 + 8*tableSize + 8*tableSize + 8192,
	MaxIters:    8192,
	Prog: asm.MustAssemble("bfs", `
		mov x9, #0
		mov x5, #0
	loop:
		ldr  x6, [x2, x5, lsl #3]
		ldr  x7, [x3, x6, lsl #3]
		ldr  x8, [x4, x7, lsl #3]
		add  x9, x9, x8
		add  x5, x5, #1
		cmp  x5, x1
		b.lt loop
		halt
	`),
	Setup: func(m *mem.Memory, base mem.Addr, p Params, set func(isa.Reg, uint64)) Verify {
		r := newRng(p)
		frontier := base
		offsets := base + 8*8192 + 0x140
		data := offsets + 8*tableSize + 0x1c0
		for i := 0; i < tableSize; i++ {
			m.Write64(offsets+mem.Addr(8*i), uint64(r.intn(tableSize)))
			m.Write64(data+mem.Addr(8*i), r.next()%100000)
		}
		var sum uint64
		for i := 0; i < p.Iters; i++ {
			node := (i*769 + r.intn(17)) % tableSize
			m.Write64(frontier+mem.Addr(8*i), uint64(node))
			off := m.Read64(offsets + mem.Addr(8*node))
			sum += m.Read64(data + mem.Addr(8*off))
		}
		set(isa.X1, uint64(p.Iters))
		set(isa.X2, uint64(frontier))
		set(isa.X3, uint64(offsets))
		set(isa.X4, uint64(data))
		return expectReg(isa.X9, sum)
	},
}

var all = []*Spec{
	gatherSpec, scatterSpec, gsSpec, strideSpec, chaseSpec,
	meaboSpec,
	lookupSpec, triadSpec,
	vecaddSpec, reductionSpec, histogramSpec, spmvSpec, bfsSpec,
}

// All returns every kernel, in suite order.
func All() []*Spec { return all }

// ByName returns the kernel with the given name.
func ByName(name string) (*Spec, bool) {
	for _, s := range all {
		if s.Name == name {
			return s, true
		}
	}
	return nil, false
}

// Names lists all kernel names.
func Names() []string {
	out := make([]string, len(all))
	for i, s := range all {
		out[i] = s.Name
	}
	return out
}
