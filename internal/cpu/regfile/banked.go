package regfile

import (
	"sync"

	"github.com/virec/virec/internal/cpu"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
)

// Banked stores one complete register bank per hardware thread — the
// paper's banked-core baseline (Figure 3b). Register accesses never miss
// and context switches select another bank with no transfer cost; the
// price is area (Figure 14). The initial context of each thread is
// fetched from the reserved backing region when the thread is first
// scheduled, matching the paper's task-offload mechanism.
type Banked struct {
	base
	bsi     *bsi
	banks   [][isa.NumRegs]uint64
	loading []int // outstanding initial-context loads per thread
}

var bankedPool sync.Pool

// NewBanked builds a banked provider with one bank per thread, into a
// released one when there is one.
func NewBanked(threads int, dcache mem.Device, memory *mem.Memory, layout cpu.RegLayout) *Banked {
	p, _ := bankedPool.Get().(*Banked)
	if p == nil {
		p = new(Banked)
	}
	*p = Banked{
		base:    newBase(memory, layout, threads),
		bsi:     newBSI(p.bsi, dcache, true, p),
		banks:   resized(p.banks, threads),
		loading: resized(p.loading, threads),
	}
	return p
}

var _ cpu.Provider = (*Banked)(nil)

// Release hands the provider to the next NewBanked. Call it once the
// provider's system is done; a released provider cannot run again.
func (p *Banked) Release() { bankedPool.Put(p) }

// Acquire always succeeds: every register of every thread is resident.
func (p *Banked) Acquire(thread int, in *isa.Inst, needSrcs []isa.Reg, probe bool) (ready, acts bool) {
	return true, false
}

// ReadValue returns the banked value.
func (p *Banked) ReadValue(thread int, r isa.Reg) uint64 {
	if r == isa.XZR {
		return 0
	}
	return p.banks[thread][r]
}

// WriteValue updates the banked value.
func (p *Banked) WriteValue(thread int, r isa.Reg, v uint64) {
	if r != isa.XZR {
		p.banks[thread][r] = v
	}
}

// InstDecoded is a no-op: there is no cache state to track.
func (p *Banked) InstDecoded(thread int, seq uint64, in *isa.Inst) {}

// InstCommitted is a no-op.
func (p *Banked) InstCommitted(thread int, seq uint64) {}

// PipelineFlushed is a no-op.
func (p *Banked) PipelineFlushed(thread int) {}

// CanSwitchTo allows a switch once the thread's initial context load has
// finished (instant for already-running threads).
func (p *Banked) CanSwitchTo(next int, probe bool) (ready, acts bool) {
	return p.loading[next] == 0, false
}

// BlockSwitch never masks switches.
func (p *Banked) BlockSwitch() bool { return false }

// SkipQuiescent reports whether Tick would be a pure no-op.
func (p *Banked) SkipQuiescent() bool { return p.bsi.quiet() }

// OnSwitch is a bank-select: free.
func (p *Banked) OnSwitch(prev, next, succ int) {}

// ThreadStarted fetches the offloaded context (32 GP registers plus the
// system-register line) from the reserved region into the bank.
func (p *Banked) ThreadStarted(thread int) {
	for r := 0; r < isa.NumRegs; r++ {
		p.loading[thread]++
		p.bsi.pushLoad(bsiOp{addr: p.layout.RegAddr(thread, isa.Reg(r)), kind: mem.Read,
			done: doneFill, thread: int32(thread), reg: isa.Reg(r)})
	}
	p.loading[thread]++
	p.bsi.pushLoad(bsiOp{addr: p.layout.SysRegAddr(thread), kind: mem.Read,
		done: doneCount, thread: int32(thread)})
}

// bsiDone lands one initial-context load into the thread's bank.
func (p *Banked) bsiDone(op bsiOp) {
	if op.done == doneFill {
		p.banks[op.thread][op.reg] = p.memory.Read64(op.addr)
	}
	p.loading[op.thread]--
}

// ThreadHalted is a no-op: the bank is never reused.
func (p *Banked) ThreadHalted(thread int) {}

// Tick drives the context-load traffic.
func (p *Banked) Tick(cycle uint64) { p.bsi.Tick(cycle) }
