package regfile

import (
	"sync"

	"github.com/virec/virec/internal/cpu"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
)

// Software models software context switching (Figure 3a): the core has a
// single physical register bank and every context switch stores the
// outgoing thread's 32 registers and system-register line to memory, then
// loads the incoming thread's, one access per cycle through the dcache
// port. The area is minimal but the switch cost can exceed the memory
// latency being hidden, as the paper notes.
type Software struct {
	base
	bsi *bsi

	bank      [isa.NumRegs]uint64
	owner     int  // thread whose context occupies the bank (-1 none)
	pending   int  // outstanding save/restore transactions
	target    int  // thread being restored (-1 none)
	reloading bool // recovering from an abandoned switch

	// Switches counts completed context switches (stats).
	Switches uint64
}

var softwarePool sync.Pool

// NewSoftware builds a software-switched provider, into a released one
// when there is one.
func NewSoftware(threads int, dcache mem.Device, memory *mem.Memory, layout cpu.RegLayout) *Software {
	p, _ := softwarePool.Get().(*Software)
	if p == nil {
		p = new(Software)
	}
	*p = Software{
		base:   newBase(memory, layout, threads),
		bsi:    newBSI(p.bsi, dcache, true, p), // software save/restore is serial
		owner:  -1,
		target: -1,
	}
	return p
}

var _ cpu.Provider = (*Software)(nil)

// Release hands the provider to the next NewSoftware. Call it once the
// provider's system is done; a released provider cannot run again.
func (p *Software) Release() { softwarePool.Put(p) }

// Acquire succeeds whenever the thread owns the bank and no switch is in
// progress: once a save/restore sequence has started (target set), the
// bank's contents are no longer the running thread's. If the core
// abandoned a prepared switch (the missing load returned first), the
// owner's own context is reloaded before execution continues — the price
// of software switching being irrevocable once the trap handler runs.
func (p *Software) Acquire(thread int, in *isa.Inst, needSrcs []isa.Reg, probe bool) (ready, acts bool) {
	if p.owner != thread || p.pending > 0 {
		return false, false
	}
	if p.target == -1 {
		return true, false
	}
	if probe {
		return false, true // hands the bank over to or back from a reload
	}
	if !p.reloading {
		// Retarget the in-progress state at the owner itself so a later
		// CanSwitchTo for the abandoned thread restarts a full switch
		// rather than adopting the owner's reloaded bank.
		p.reloading = true
		p.target = thread
		p.restore(thread)
		return false, false
	}
	// Reload finished.
	p.reloading = false
	p.target = -1
	return true, false
}

// ReadValue reads the single bank.
func (p *Software) ReadValue(thread int, r isa.Reg) uint64 {
	if r == isa.XZR {
		return 0
	}
	return p.bank[r]
}

// WriteValue writes the register. The value always reaches the thread's
// memory-resident context (a save sequence may already have snapshotted
// the bank while this instruction was still in flight). The bank itself is
// only updated when no switch to another thread is in progress: once a
// restore of the incoming thread has begun, a late commit from the
// outgoing thread must not clobber the restored context — its value
// survives in the memory context and returns with the thread's next
// restore.
func (p *Software) WriteValue(thread int, r isa.Reg, v uint64) {
	if r == isa.XZR {
		return
	}
	p.memory.Write64(p.layout.RegAddr(thread, r), v)
	if p.owner == thread && (p.target == -1 || p.target == thread) {
		p.bank[r] = v
	}
}

// InstDecoded is a no-op.
func (p *Software) InstDecoded(thread int, seq uint64, in *isa.Inst) {}

// InstCommitted is a no-op.
func (p *Software) InstCommitted(thread int, seq uint64) {}

// PipelineFlushed is a no-op.
func (p *Software) PipelineFlushed(thread int) {}

// CanSwitchTo reports whether the incoming thread's context is fully
// restored into the bank. The first call for a new target kicks off the
// save/restore sequence.
func (p *Software) CanSwitchTo(next int, probe bool) (ready, acts bool) {
	if p.owner == next || p.target == next {
		return p.pending == 0, false
	}
	if p.pending == 0 {
		if probe {
			return false, true
		}
		p.beginSwitch(next)
	}
	return false, false
}

// beginSwitch enqueues the save of the current owner followed by the
// restore of next. Register values move through the functional memory at
// enqueue/complete time; the BSI models the timing.
func (p *Software) beginSwitch(next int) {
	p.target = next
	if p.owner >= 0 {
		out := p.owner
		for r := 0; r < isa.NumRegs; r++ {
			addr := p.layout.RegAddr(out, isa.Reg(r))
			p.memory.Write64(addr, p.bank[r])
			p.pending++
			p.bsi.pushStore(bsiOp{addr: addr, kind: mem.Write, done: doneCount})
		}
		p.pending++
		p.bsi.pushStore(bsiOp{addr: p.layout.SysRegAddr(out), kind: mem.Write, done: doneCount})
	}
	p.restore(next)
}

// restore loads thread's context from the reserved region into the bank.
func (p *Software) restore(thread int) {
	for r := 0; r < isa.NumRegs; r++ {
		p.pending++
		p.bsi.pushLoad(bsiOp{addr: p.layout.RegAddr(thread, isa.Reg(r)), kind: mem.Read,
			done: doneFill, reg: isa.Reg(r)})
	}
	p.pending++
	p.bsi.pushLoad(bsiOp{addr: p.layout.SysRegAddr(thread), kind: mem.Read, done: doneCount})
}

// bsiDone retires one save/restore transaction; a restored register lands
// in the bank.
func (p *Software) bsiDone(op bsiOp) {
	if op.done == doneFill {
		p.bank[op.reg] = p.memory.Read64(op.addr)
	}
	p.pending--
}

// BlockSwitch never masks; the save/restore cost is in CanSwitchTo.
func (p *Software) BlockSwitch() bool { return false }

// SkipQuiescent reports whether Tick would be a pure no-op.
func (p *Software) SkipQuiescent() bool { return p.bsi.quiet() }

// OnSwitch installs the new owner.
func (p *Software) OnSwitch(prev, next, succ int) {
	p.owner = next
	p.target = -1
	p.reloading = false
	p.Switches++
}

// ThreadStarted is handled by the restore path in CanSwitchTo.
func (p *Software) ThreadStarted(thread int) {}

// ThreadHalted releases the bank so a dead context is not saved again.
func (p *Software) ThreadHalted(thread int) {
	if p.owner == thread {
		p.owner = -1
	}
}

// Tick drives the save/restore traffic.
func (p *Software) Tick(cycle uint64) { p.bsi.Tick(cycle) }
