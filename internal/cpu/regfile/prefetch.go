package regfile

import (
	"sync"

	"github.com/virec/virec/internal/cpu"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
)

// PrefetchKind selects the prefetching strategy of the Figure-9
// comparison.
type PrefetchKind uint8

// Prefetch strategies.
const (
	// PrefetchFull moves the complete 32-register context on every
	// rotation: all registers of the outgoing thread are stored and all
	// registers of the incoming thread are loaded.
	PrefetchFull PrefetchKind = iota
	// PrefetchExact moves only the registers the incoming thread will
	// actually use before its next switch, assuming an oracle predictor
	// (approximated by the workload's per-thread active register set).
	PrefetchExact
)

func (k PrefetchKind) String() string {
	if k == PrefetchFull {
		return "prefetch-full"
	}
	return "prefetch-exact"
}

// Prefetch implements double-buffer register prefetching: two physical
// banks, one serving the running thread while the other is reloaded with
// the context of the successor the core names. A switch stalls until the
// incoming bank is complete; after the switch the vacated bank's contents
// are stored back and the next successor's context is prefetched into it,
// overlapping the new thread's execution.
type Prefetch struct {
	base
	bsi  *bsi
	kind PrefetchKind

	cur      int // running thread, -1 none
	banks    [2][isa.NumRegs]uint64
	bankOf   [2]int // thread held by each bank, -1 empty
	loading  [2]int // outstanding loads into each bank
	resident [2][isa.NumRegs]bool

	// usedSet is the oracle's per-thread register set for PrefetchExact,
	// nil for a thread with none installed.
	usedSet [][]isa.Reg

	// OnDemandFills counts fills for registers the oracle missed.
	OnDemandFills uint64
	onDemand      map[regKey]bool
}

// regKey names one thread's architectural register.
type regKey struct {
	thread int
	reg    isa.Reg
}

var prefetchPool sync.Pool

// NewPrefetch builds a prefetching provider, into a released one when
// there is one.
func NewPrefetch(kind PrefetchKind, threads int, dcache mem.Device, memory *mem.Memory, layout cpu.RegLayout) *Prefetch {
	p, _ := prefetchPool.Get().(*Prefetch)
	if p == nil {
		p = &Prefetch{onDemand: make(map[regKey]bool)}
	}
	clear(p.onDemand)
	*p = Prefetch{base: newBase(memory, layout, threads), bsi: newBSI(p.bsi, dcache, true, p),
		kind: kind, cur: -1, bankOf: [2]int{-1, -1},
		usedSet: resized(p.usedSet, threads), onDemand: p.onDemand}
	return p
}

var _ cpu.Provider = (*Prefetch)(nil)

// Release hands the provider to the next NewPrefetch. Call it once the
// provider's system is done; a released provider cannot run again.
func (p *Prefetch) Release() { prefetchPool.Put(p) }

// SetUsedRegs installs the oracle's predicted register set for a thread
// (PrefetchExact); unset threads fall back to the full context. The
// provider keeps regs, so the caller must not change it afterwards.
func (p *Prefetch) SetUsedRegs(thread int, regs []isa.Reg) { p.usedSet[thread] = regs }

// allRegs is the full register context, x0 upward.
var allRegs = func() (all [isa.NumRegs]isa.Reg) {
	for i := range all {
		all[i] = isa.Reg(i)
	}
	return all
}()

// contextOf returns the register set loaded for a thread.
func (p *Prefetch) contextOf(thread int) []isa.Reg {
	if p.kind == PrefetchExact && p.usedSet[thread] != nil {
		return p.usedSet[thread]
	}
	return allRegs[:]
}

// bankIdx returns the bank holding thread, or -1.
func (p *Prefetch) bankIdx(thread int) int {
	for b := 0; b < 2; b++ {
		if p.bankOf[b] == thread {
			return b
		}
	}
	return -1
}

// Acquire succeeds when the thread's bank holds every needed source; a
// register outside the oracle set triggers an on-demand fill (counted —
// a real design would mispredict here).
func (p *Prefetch) Acquire(thread int, in *isa.Inst, needSrcs []isa.Reg, probe bool) (ready, acts bool) {
	b := p.bankIdx(thread)
	if b < 0 || p.loading[b] > 0 {
		return false, false
	}
	ready = true
	for _, r := range needSrcs {
		if r == isa.XZR || p.resident[b][r] {
			continue
		}
		ready = false
		key := regKey{thread, r}
		if p.onDemand[key] {
			continue
		}
		if probe {
			return false, true
		}
		p.onDemand[key] = true
		p.OnDemandFills++
		p.bsi.pushLoad(bsiOp{addr: p.layout.RegAddr(thread, r), kind: mem.Read,
			done: doneDemand, thread: int32(thread), reg: r, slot: int32(b)})
	}
	if !ready {
		// A destination that is also a source must wait for its fill, or
		// the next Acquire reads the bank's stale value.
		return false, false
	}
	// Destinations are writable without their old value.
	var dstBuf [2]isa.Reg
	for _, d := range in.DstRegs(dstBuf[:0]) {
		if d != isa.XZR && !p.resident[b][d] {
			if probe {
				return false, true
			}
			p.resident[b][d] = true
		}
	}
	return true, false
}

// ReadValue reads the thread's bank.
func (p *Prefetch) ReadValue(thread int, r isa.Reg) uint64 {
	if r == isa.XZR {
		return 0
	}
	return p.banks[p.bankIdx(thread)][r]
}

// WriteValue writes the thread's bank (and functional memory on halt-less
// eviction paths, handled in storeBank).
func (p *Prefetch) WriteValue(thread int, r isa.Reg, v uint64) {
	if r == isa.XZR {
		return
	}
	if b := p.bankIdx(thread); b >= 0 {
		p.banks[b][r] = v
		p.resident[b][r] = true
	} else {
		// The thread's bank was already recycled (it halted mid-commit);
		// write through to the context in memory.
		p.memory.Write64(p.layout.RegAddr(thread, r), v)
	}
}

// InstDecoded is a no-op.
func (p *Prefetch) InstDecoded(thread int, seq uint64, in *isa.Inst) {}

// InstCommitted is a no-op.
func (p *Prefetch) InstCommitted(thread int, seq uint64) {}

// PipelineFlushed is a no-op.
func (p *Prefetch) PipelineFlushed(thread int) {}

// CanSwitchTo requires the incoming thread's bank to be fully loaded; the
// first query for an unbuffered thread claims the bank not holding the
// running thread and begins loading it, whichever thread next is.
func (p *Prefetch) CanSwitchTo(next int, probe bool) (ready, acts bool) {
	if b := p.bankIdx(next); b >= 0 {
		return p.loading[b] == 0, false
	}
	if probe {
		return false, true
	}
	victim := 0
	if p.cur >= 0 && p.bankOf[0] == p.cur {
		victim = 1
	}
	p.recycleBank(victim, next)
	return false, false
}

// recycleBank stores the old occupant's context back to memory and loads
// thread's context into bank b.
func (p *Prefetch) recycleBank(b, thread int) {
	if old := p.bankOf[b]; old >= 0 {
		p.storeBank(b, old)
	}
	p.bankOf[b] = thread
	p.resident[b] = [isa.NumRegs]bool{}
	for _, r := range p.contextOf(thread) {
		p.loading[b]++
		p.bsi.pushLoad(bsiOp{addr: p.layout.RegAddr(thread, r), kind: mem.Read,
			done: doneFill, thread: int32(thread), reg: r, slot: int32(b)})
	}
	// System-register line travels with the context.
	p.loading[b]++
	p.bsi.pushLoad(bsiOp{addr: p.layout.SysRegAddr(thread), kind: mem.Read,
		done: doneCount, slot: int32(b)})
}

// bsiDone lands a bank load (a rotation's prefetch or an on-demand fill)
// if the bank still belongs to the thread the load was issued for.
func (p *Prefetch) bsiDone(op bsiOp) {
	b, thread := int(op.slot), int(op.thread)
	if op.done != doneCount && p.bankOf[b] == thread {
		p.banks[b][op.reg] = p.memory.Read64(op.addr)
		p.resident[b][op.reg] = true
	}
	if op.done == doneDemand {
		delete(p.onDemand, regKey{thread, op.reg})
	} else {
		p.loading[b]--
	}
}

// storeBank writes every register resident in bank b, oracle set or not,
// back to thread's context in the reserved region: functional values
// immediately, timing through the BSI.
func (p *Prefetch) storeBank(b, thread int) {
	for r, ok := range p.resident[b] {
		if !ok {
			continue
		}
		addr := p.layout.RegAddr(thread, isa.Reg(r))
		p.memory.Write64(addr, p.banks[b][r])
		p.bsi.pushStore(bsiOp{addr: addr, kind: mem.Write})
	}
	p.bsi.pushStore(bsiOp{addr: p.layout.SysRegAddr(thread), kind: mem.Write})
}

// BlockSwitch never masks: switch readiness is in CanSwitchTo.
func (p *Prefetch) BlockSwitch() bool { return false }

// SkipQuiescent reports whether Tick would be a pure no-op.
func (p *Prefetch) SkipQuiescent() bool { return p.bsi.quiet() }

// OnSwitch records next as the running thread and starts prefetching
// succ into the bank next does not hold (the one prev vacated),
// overlapping next's execution.
func (p *Prefetch) OnSwitch(prev, next, succ int) {
	p.cur = next
	if succ < 0 || succ == next || p.bankIdx(succ) >= 0 {
		return
	}
	b := 0
	if p.bankOf[0] == next {
		b = 1
	}
	p.recycleBank(b, succ)
}

// ThreadStarted is handled by CanSwitchTo's bank claim.
func (p *Prefetch) ThreadStarted(thread int) {}

// ThreadHalted releases the thread's bank without storing it back.
func (p *Prefetch) ThreadHalted(thread int) {
	if p.cur == thread {
		p.cur = -1
	}
	if b := p.bankIdx(thread); b >= 0 {
		p.bankOf[b] = -1
		p.resident[b] = [isa.NumRegs]bool{}
	}
}

// Tick drives the prefetch traffic.
func (p *Prefetch) Tick(cycle uint64) { p.bsi.Tick(cycle) }
