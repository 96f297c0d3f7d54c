package interp_test

import (
	"testing"

	"github.com/virec/virec/internal/asm"
	"github.com/virec/virec/internal/difftest"
	"github.com/virec/virec/internal/interp"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/vrmu"
	"github.com/virec/virec/internal/workloads"
)

// splitmix64 gives the fuzz harness deterministic register and memory
// seeds.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// fuzzBudget bounds the functional pre-run of a fuzzed program; inputs
// that do not halt within it are not co-simulated.
const fuzzBudget = 4096

// FuzzPrecode feeds random codec words through the shared decoder and
// holds the threaded-code interpreter to the timed pipeline on the
// resulting program: difftest.Check runs it in lock step on a banked and
// a capacity-squeezed ViReC core and compares the commit stream, the
// final registers and the data slab. Words the codec rejects end the
// program, so malformed encodings reach neither engine.
func FuzzPrecode(f *testing.F) {
	chase, _ := workloads.ByName("chase")
	var chaseBytes []byte
	for i := range chase.Prog.Insts {
		chaseBytes = chase.Prog.Insts[i].Encode(chaseBytes)
	}
	f.Add(chaseBytes, uint64(1))
	f.Add([]byte{}, uint64(42))
	var mk []byte
	for _, in := range []isa.Inst{
		{Op: isa.MOVZ, Rd: isa.X1, Imm: 0x1234, Shift: 1},
		{Op: isa.MOVK, Rd: isa.X1, Imm: 0x9abc, Shift: 2},
		{Op: isa.STRH, Rd: isa.X1, Rn: isa.X2, Mode: isa.AddrImm, Imm: 8},
		{Op: isa.LDRSW, Rd: isa.X3, Rn: isa.X2, Rm: isa.X4, Mode: isa.AddrRegShift, Shift: 2},
		{Op: isa.RET, Rn: isa.X30},
	} {
		in := in
		mk = in.Encode(mk)
	}
	f.Add(mk, uint64(7))
	// With regSeed 1 the chase's trip count x1 is too large to halt within
	// fuzzBudget; regSeed 3701 sets x1 = 499, so the loop runs to its HALT.
	f.Add(chaseBytes, uint64(3701))
	// A ret can leave the program for any address, here 1<<32; both
	// engines halt there.
	var far []byte
	for _, in := range []isa.Inst{
		{Op: isa.MOVZ, Rd: isa.X1, Imm: 1, Shift: 2},
		{Op: isa.RET, Rn: isa.X1},
	} {
		far = in.Encode(far)
	}
	f.Add(far, uint64(7))

	f.Fuzz(func(t *testing.T, data []byte, regSeed uint64) {
		var insts []isa.Inst
		for len(data) >= isa.EncodedBytes {
			in, err := isa.Decode(data)
			if err != nil {
				break // malformed word: the program ends here
			}
			insts = append(insts, in)
			data = data[isa.EncodedBytes:]
			if len(insts) >= 256 {
				break
			}
		}
		prog := &asm.Program{Name: "fuzz", Insts: insts}
		spec := &workloads.Spec{
			Name:      "fuzz",
			Prog:      prog,
			SlabBytes: 1 << 12, // Check compares this much memory from the slab base
			// Setup ignores the slab base and thread: the registers and
			// the low 4 KiB of memory come from regSeed alone.
			Setup: func(m *mem.Memory, _ mem.Addr, _ workloads.Params, set func(isa.Reg, uint64)) workloads.Verify {
				s := regSeed
				for r := isa.Reg(0); r < isa.NumRegs; r++ {
					// Small values keep computed addresses inside a
					// modest page set; the pointer-shaped registers
					// still roam.
					set(r, splitmix64(&s)%(1<<20))
				}
				set(isa.XZR, splitmix64(&s)) // dirty slot must stay inert
				s = regSeed ^ 0xc0ffee
				for a := mem.Addr(0); a < 1<<12; a += 8 {
					m.Write64(a, splitmix64(&s))
				}
				return func(func(isa.Reg) uint64, *mem.Memory) error { return nil }
			},
		}

		// Check compares against a halted reference run. A program that
		// halts here halts there too: MaxDyn carries its exact length,
		// and Check's budget derives from MaxDyn with room to spare.
		var ctx interp.Context
		m := mem.NewMemory()
		spec.Setup(m, 0, workloads.Params{}, ctx.Set)
		res := interp.Precode(prog).Run(&ctx, m, fuzzBudget, nil)
		m.Release()
		if !res.Halted {
			return
		}

		k := &difftest.Kernel{Seed: regSeed, Prog: prog, Spec: spec, MaxDyn: int(res.Insts)}
		rep := difftest.Check(k, difftest.CheckOpts{Scenarios: []difftest.Scenario{
			{Kind: sim.Banked, Threads: 1},
			{Kind: sim.ViReC, Policy: vrmu.LRC, Threads: 1, CtxPct: 50},
		}})
		if !rep.Clean() {
			t.Fatalf("regSeed %#x: %v\nprogram:\n%s", regSeed, rep.Divergence, asm.Disassemble(prog))
		}
	})
}
