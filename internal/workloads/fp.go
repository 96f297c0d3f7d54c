package workloads

import (
	"math"

	"github.com/virec/virec/internal/asm"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
)

// Floating-point kernels. Table 1 provisions 32 integer + 32 FP registers
// per context; these kernels exercise the FP half of the register file
// and raise arithmetic intensity, the other axis the paper's workload mix
// covers. All values are IEEE binary64; golden models evaluate the exact
// same expression trees, so verification is bit-exact.

// fpVal produces a benign double in [0.5, 1024.5).
func (r *rng) fpVal() float64 {
	return float64(r.intn(1024)) + 0.5
}

// expectFPReg verifies a double-precision accumulator bit-exactly.
func expectFPReg(reg isa.Reg, want float64) Verify {
	return expectReg(reg, math.Float64bits(want))
}

// fpdotSpec: dot product with fused accumulate — 2 loads + 1 FMADD.
var fpdotSpec = &Spec{
	Name:        "fpdot",
	Suite:       "coral2",
	Description: "acc = fmadd(a[i], b[i], acc): double-precision dot product",
	SlabBytes:   2*8*8192 + 8192,
	MaxIters:    8192,
	Prog: asm.MustAssemble("fpdot", `
		scvtf d4, xzr
		mov x5, #0
	loop:
		ldr   d6, [x2, x5, lsl #3]
		ldr   d7, [x3, x5, lsl #3]
		fmadd d4, d6, d7, d4
		add   x5, x5, #1
		cmp   x5, x1
		b.lt  loop
		halt
	`),
	Setup: func(m *mem.Memory, base mem.Addr, p Params, set func(isa.Reg, uint64)) Verify {
		r := newRng(p)
		a := base
		b := base + 8*8192 + 0x140
		acc := 0.0
		for i := 0; i < p.Iters; i++ {
			va, vb := r.fpVal(), r.fpVal()
			m.Write64(a+mem.Addr(8*i), math.Float64bits(va))
			m.Write64(b+mem.Addr(8*i), math.Float64bits(vb))
			acc = acc + va*vb // same expression as FMADD's evaluation
		}
		set(isa.X1, uint64(p.Iters))
		set(isa.X2, uint64(a))
		set(isa.X3, uint64(b))
		return expectFPReg(isa.V4, acc)
	},
}

// fptriadSpec: STREAM triad on doubles.
var fptriadSpec = &Spec{
	Name:        "fptriad",
	Suite:       "coral2",
	Description: "a[i] = b[i] + k*c[i] on binary64 (STREAM triad, FP registers)",
	SlabBytes:   3*8*8192 + 8192,
	MaxIters:    8192,
	Prog: asm.MustAssemble("fptriad", `
		mov x5, #0
	loop:
		ldr  d6, [x2, x5, lsl #3]
		ldr  d7, [x3, x5, lsl #3]
		fmul d7, d7, d10
		fadd d6, d6, d7
		str  d6, [x4, x5, lsl #3]
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
		const k = 3.25
		for i := 0; i < p.Iters; i++ {
			vb, vc := r.fpVal(), r.fpVal()
			m.Write64(b+mem.Addr(8*i), math.Float64bits(vb))
			m.Write64(c+mem.Addr(8*i), math.Float64bits(vc))
		}
		set(isa.X1, uint64(p.Iters))
		set(isa.X2, uint64(b))
		set(isa.X3, uint64(c))
		set(isa.X4, uint64(a))
		set(isa.V10, math.Float64bits(k))
		return func(_ func(isa.Reg) uint64, m *mem.Memory) error {
			r := newRng(p)
			for i := 0; i < p.Iters; i++ {
				vb, vc := r.fpVal(), r.fpVal()
				if err := checkWord(m, a+mem.Addr(8*i), math.Float64bits(vb+vc*k)); err != nil {
					return err
				}
			}
			return nil
		}
	},
}

// nbodySpec: inverse-distance accumulation with sqrt and divide — the
// arithmetic-intense end of the workload spectrum.
var nbodySpec = &Spec{
	Name:        "nbody",
	Suite:       "coral2",
	Description: "acc += 1/sqrt(x[i]^2 + eps): long FP chains (sqrt, divide)",
	SlabBytes:   8*8192 + 8192,
	MaxIters:    8192,
	Prog: asm.MustAssemble("nbody", `
		scvtf d4, xzr
		mov x5, #0
	loop:
		ldr   d6, [x2, x5, lsl #3]
		fmul  d7, d6, d6
		fadd  d7, d7, d9
		fsqrt d7, d7
		fdiv  d8, d10, d7
		fadd  d4, d4, d8
		add   x5, x5, #1
		cmp   x5, x1
		b.lt  loop
		halt
	`),
	Setup: func(m *mem.Memory, base mem.Addr, p Params, set func(isa.Reg, uint64)) Verify {
		r := newRng(p)
		const eps, one = 0.125, 1.0
		acc := 0.0
		for i := 0; i < p.Iters; i++ {
			v := r.fpVal()
			m.Write64(base+mem.Addr(8*i), math.Float64bits(v))
			acc = acc + one/math.Sqrt(v*v+eps)
		}
		set(isa.X1, uint64(p.Iters))
		set(isa.X2, uint64(base))
		set(isa.V9, math.Float64bits(eps))
		set(isa.V10, math.Float64bits(one))
		return expectFPReg(isa.V4, acc)
	},
}

func init() {
	all = append(all, fpdotSpec, fptriadSpec, nbodySpec)
}
