package workloads

import (
	"github.com/virec/virec/internal/asm"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
)

// Additional kernels broadening the behavioral coverage of the suites:
// data-dependent branching (sel), pure copy bandwidth (copy), serial
// dependence chains through memory (scan), and strided writes (transpose).

// selSpec: stream compaction — branchy, data-dependent control flow.
var selSpec = &Spec{
	Name:        "sel",
	Suite:       "prim",
	Description: "out[j++] = in[i] if in[i] > threshold (stream compaction)",
	SlabBytes:   2*8*8192 + 8192,
	MaxIters:    8192,
	Prog: asm.MustAssemble("sel", `
		mov x5, #0
		mov x7, #0
	loop:
		ldr  x6, [x2, x5, lsl #3]
		cmp  x6, x9
		b.le skip
		str  x6, [x3, x7, lsl #3]
		add  x7, x7, #1
	skip:
		add  x5, x5, #1
		cmp  x5, x1
		b.lt loop
		halt
	`),
	Setup: func(m *mem.Memory, base mem.Addr, p Params, set func(isa.Reg, uint64)) Verify {
		r := newRng(p)
		in := base
		out := base + 8*8192 + 0x140
		const threshold = 500
		kept := uint64(0)
		for i := 0; i < p.Iters; i++ {
			v := r.next() % 1000
			m.Write64(in+mem.Addr(8*i), v)
			if v > threshold {
				kept++
			}
		}
		set(isa.X1, uint64(p.Iters))
		set(isa.X2, uint64(in))
		set(isa.X3, uint64(out))
		set(isa.X9, threshold)
		return func(shadow func(isa.Reg) uint64, m *mem.Memory) error {
			if err := checkReg(shadow, isa.X7, kept); err != nil {
				return err
			}
			r := newRng(p)
			j := 0
			for i := 0; i < p.Iters; i++ {
				if v := r.next() % 1000; v > threshold {
					if err := checkWord(m, out+mem.Addr(8*j), v); err != nil {
						return err
					}
					j++
				}
			}
			return nil
		}
	},
}

// copySpec: STREAM copy — maximal bandwidth, minimal registers.
var copySpec = &Spec{
	Name:        "copy",
	Suite:       "coral2",
	Description: "b[i] = a[i] (STREAM copy)",
	SlabBytes:   2*8*8192 + 8192,
	MaxIters:    8192,
	Prog: asm.MustAssemble("copy", `
		mov x5, #0
	loop:
		ldr  x6, [x2, x5, lsl #3]
		str  x6, [x3, x5, lsl #3]
		add  x5, x5, #1
		cmp  x5, x1
		b.lt loop
		halt
	`),
	Setup: func(m *mem.Memory, base mem.Addr, p Params, set func(isa.Reg, uint64)) Verify {
		r := newRng(p)
		a := base
		b := base + 8*8192 + 0x140
		for i := 0; i < p.Iters; i++ {
			m.Write64(a+mem.Addr(8*i), r.next())
		}
		set(isa.X1, uint64(p.Iters))
		set(isa.X2, uint64(a))
		set(isa.X3, uint64(b))
		return func(_ func(isa.Reg) uint64, m *mem.Memory) error {
			r := newRng(p)
			for i := 0; i < p.Iters; i++ {
				if err := checkWord(m, b+mem.Addr(8*i), r.next()); err != nil {
					return err
				}
			}
			return nil
		}
	},
}

// scanSpec: inclusive prefix sum through memory — a serial dependence
// chain where each iteration's store feeds the next iteration's load.
var scanSpec = &Spec{
	Name:        "scan",
	Suite:       "prim",
	Description: "a[i] += a[i-1] (inclusive prefix sum, serial chain)",
	SlabBytes:   8*8192 + 8192,
	MaxIters:    8192,
	Prog: asm.MustAssemble("scan", `
		mov x5, #1
	loop:
		sub  x6, x5, #1
		ldr  x7, [x2, x6, lsl #3]
		ldr  x8, [x2, x5, lsl #3]
		add  x8, x8, x7
		str  x8, [x2, x5, lsl #3]
		add  x5, x5, #1
		cmp  x5, x1
		b.lt loop
		halt
	`),
	Setup: func(m *mem.Memory, base mem.Addr, p Params, set func(isa.Reg, uint64)) Verify {
		r := newRng(p)
		for i := 0; i < p.Iters; i++ {
			m.Write64(base+mem.Addr(8*i), r.next()%1000)
		}
		set(isa.X1, uint64(p.Iters))
		set(isa.X2, uint64(base))
		return func(_ func(isa.Reg) uint64, m *mem.Memory) error {
			r := newRng(p)
			run := uint64(0)
			for i := 0; i < p.Iters; i++ {
				run += r.next() % 1000
				if err := checkWord(m, base+mem.Addr(8*i), run); err != nil {
					return err
				}
			}
			return nil
		}
	},
}

// transposeSpec: tiled matrix transpose — unit-stride reads against
// large-stride writes.
var transposeSpec = &Spec{
	Name:        "transpose",
	Suite:       "prim",
	Description: "B[j][i] = A[i][j]: unit-stride reads, strided writes",
	SlabBytes:   2*8*64*64 + 4096,
	MaxIters:    0, // Setup clamps the row count to the matrix
	Prog: asm.MustAssemble("transpose", `
		// x1 = n (rows), x9 = 64 (row length), x2 = A, x3 = B
		mov x5, #0
	row:
		mov x6, #0
		mul x10, x5, x9     // x10 = i*64
	col:
		add  x11, x10, x6   // i*64 + j
		ldr  x7, [x2, x11, lsl #3]
		mul  x12, x6, x9
		add  x12, x12, x5   // j*64 + i
		str  x7, [x3, x12, lsl #3]
		add  x6, x6, #1
		cmp  x6, x9
		b.lt col
		add  x5, x5, #1
		cmp  x5, x1
		b.lt row
		halt
	`),
	Setup: func(m *mem.Memory, base mem.Addr, p Params, set func(isa.Reg, uint64)) Verify {
		r := newRng(p)
		const dim = 64
		rows := p.Iters / 16
		if rows < 2 {
			rows = 2
		}
		if rows > dim {
			rows = dim
		}
		a := base
		b := base + 8*dim*dim + 0x140
		for i := 0; i < rows*dim; i++ {
			m.Write64(a+mem.Addr(8*i), r.next()%100000)
		}
		set(isa.X1, uint64(rows))
		set(isa.X2, uint64(a))
		set(isa.X3, uint64(b))
		set(isa.X9, dim)
		return func(_ func(isa.Reg) uint64, m *mem.Memory) error {
			// B[j][i] = A[i][j], and A[i][j] is draw i*dim+j: walking B
			// in address order jumps through the stream.
			for j := 0; j < dim; j++ {
				for i := 0; i < rows; i++ {
					if err := checkWord(m, b+mem.Addr(8*(j*dim+i)), draw(p, i*dim+j)%100000); err != nil {
						return err
					}
				}
			}
			return nil
		}
	},
}

func init() {
	all = append(all, selSpec, copySpec, scanSpec, transposeSpec)
}
