// Package interp is the functional (timing-free) execution engine for the
// isa package: a program is pre-decoded once (Precode) and run by one
// dispatch loop (Precoded.Run). It produces the dynamic instruction traces
// for the trace-driven out-of-order model (Figure 1's OoO baseline), the
// golden side of the differential checker, the Belady oracle's register
// sequences, and the dynamic register counts of the Figure-2
// characterization.
package interp

import (
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
)

// Context is one thread's architectural state.
type Context struct {
	Regs  [isa.NumRegs]uint64
	Flags isa.Flags
	PC    int
}

// Get reads a register (XZR reads zero).
func (c *Context) Get(r isa.Reg) uint64 {
	if r == isa.XZR {
		return 0
	}
	return c.Regs[r]
}

// Set writes a register (XZR writes are discarded).
func (c *Context) Set(r isa.Reg, v uint64) {
	if r != isa.XZR {
		c.Regs[r] = v
	}
}

// TraceEntry describes one executed instruction, including its committed
// architectural effects — the differential checker compares these fields
// one-for-one against the pipeline's commit stream.
type TraceEntry struct {
	PC   int
	Inst *isa.Inst
	Addr mem.Addr // effective address for loads/stores

	Wrote bool    // a non-XZR register was written
	Rd    isa.Reg // destination register when Wrote
	Val   uint64  // value written when Wrote
	Data  uint64  // store data, masked to the access width
}

// Result summarizes a run.
type Result struct {
	Insts  uint64
	Halted bool
}
