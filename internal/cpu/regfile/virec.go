package regfile

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"github.com/virec/virec/internal/cpu"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/telemetry"
	"github.com/virec/virec/internal/vrmu"
)

// ViReCConfig parameterizes the ViReC provider.
type ViReCConfig struct {
	// PhysRegs is the physical register file size shared by all threads
	// (the paper sweeps 40%-100% of the aggregate active context).
	PhysRegs int
	// Policy is the tag-store replacement policy (default LRC).
	Policy vrmu.Policy
	// BlockingBSI restricts the backing store interface to one
	// outstanding transaction (ablation; the paper evaluates the
	// non-blocking BSI).
	BlockingBSI bool
	// NoDummyDest disables the destination dummy-value optimization:
	// destination-only registers then wait for a real fill (ablation).
	NoDummyDest bool
	// NoSysregPrefetch disables the system-register ping-pong buffer:
	// every switch then waits for an on-demand system-register load
	// (ablation).
	NoSysregPrefetch bool
	// NoRollback disables the rollback queue's C-bit resets, degrading
	// LRC toward MRT-PLRU with stale commit bits (ablation).
	NoRollback bool

	// GroupEvict enables the paper's future-work group-eviction
	// extension: when a victim is selected, its committed same-line
	// siblings from the same thread are evicted too, so their spills
	// batch onto one backing-store line and subsequent allocations find
	// free slots.
	GroupEvict bool
	// PrefetchNext enables the future-work prefetch-combined-caching
	// extension: on a context switch the successor's predicted registers
	// (its active set) that are not already resident are prefetched into
	// the register file in the background.
	PrefetchNext bool
}

// ViReC implements the paper's architecture: the physical register file is
// a cache of partial thread contexts managed by a VRMU tag store, with
// spills and fills flowing through the BSI to the dcache backing store,
// and a ping-pong buffer prefetching system registers of the next thread.
type ViReC struct {
	base
	cfg  ViReCConfig
	tags *vrmu.TagStore
	rq   *vrmu.RollbackQueue
	bsi  *bsi

	// sysBsi carries the CSL's system-register ping-pong traffic. It is
	// separate from the register BSI (Figure 7 places the buffer in the
	// fetch stage): its outstanding transactions do not mask context
	// switches, they only gate CanSwitchTo for their own thread.
	sysBsi *bsi

	// pfBsi carries background register prefetches (the PrefetchNext
	// extension); like the sysreg engine it never masks switches, and it
	// yields the dcache port to demand fills.
	pfBsi *bsi

	// prefetchRegs is the per-thread predicted register set used by
	// PrefetchNext (defaults to nothing; the sim layer installs the
	// workload's active context).
	prefetchRegs [][]isa.Reg

	// Oracle state for the Belady policy: per-thread occurrence lists of
	// each register in the thread's recorded access sequence (nil until
	// SetOracleSeq; read-only, and shared by neighbouring threads with
	// equal sequences), and a cursor counting each thread's committed
	// accesses, which InstCommitted advances. The lists are cut from
	// oracleLists and oraclePos, which a rebuild keeps. oracle is
	// oracleDistance, bound once.
	oracleOcc    []*[isa.NumRegs][]uint32
	oracleCursor []uint32
	oracleLists  [][isa.NumRegs][]uint32
	oraclePos    []uint32
	oracle       func(thread int, reg isa.Reg) uint64

	// fill holds each physical register's fill state, beside its
	// tag-store entry. A register with a fill in flight is never an
	// eviction victim.
	fill []fillState
	// lockedPhys holds the registers of the instruction currently in
	// decode; they are exempt from eviction. It is a bitmap of its own,
	// apart from fill, so that one clear releases every lock.
	lockedPhys   []bool
	lockedInst   *isa.Inst
	lockedThread int
	// excluded is the victim-exclusion predicate handed to SelectVictim,
	// bound once so the decode hot path allocates nothing.
	excluded func(int) bool

	// sysBuf is the system-register ping-pong buffer of Section 5.2.
	sysBuf [2]sysSlot

	// Telemetry. tracer is nil when tracing is off; cycle is kept current
	// by StampCycle (fed by the core at the top of its Tick, before any
	// stage calls in) so decode-side events carry the exact emitting
	// cycle, and by Tick as a fallback for providers driven standalone.
	tracer    *telemetry.Tracer
	traceCore int32
	cycle     uint64

	Stats
}

// Stats accumulates the ViReC provider's own counters; the tag store and
// the BSI engines keep theirs. Each field is a counter, registered under
// its metric tag by RegisterMetrics.
type Stats struct {
	DummyDests       uint64 `metric:"dummy_dests"`
	CommitReallocs   uint64 `metric:"commit_reallocs"`
	GroupEvictions   uint64 `metric:"group_evictions"`
	Prefetches       uint64 `metric:"prefetches"`
	PrefetchHits     uint64 `metric:"prefetch_hits"`      // prefetched registers found resident on demand
	HintSpillsElided uint64 `metric:"hint_spills_elided"` // dirty spills demoted off the critical path by a hint
}

// fillState is where a physical register's backing-store fill stands:
// none in flight, pending (its value lands in the slot's valid entry), or
// stale (a commit overwrote the register or its thread halted, so the
// value is dropped when it lands). At most one fill is in flight per
// slot: the slot is not a victim, so no other register can claim it until
// the fill lands.
type fillState uint8

const (
	fillNone fillState = iota
	fillPending
	fillStale
)

// sysSlot is one entry of the system-register ping-pong buffer. A slot
// holding a thread that is not ready is loading.
type sysSlot struct {
	thread int
	ready  bool
}

// rollbackDepth is the rollback queue depth: the most instructions the
// in-order backend holds.
const rollbackDepth = 4

var virecPool sync.Pool

// NewViReC builds the ViReC provider, into a released one when there is
// one.
func NewViReC(cfg ViReCConfig, threads int, dcache mem.Device, memory *mem.Memory, layout cpu.RegLayout) *ViReC {
	if cfg.PhysRegs < 8 {
		panic(fmt.Sprintf("regfile: ViReC needs >= 8 physical registers, got %d", cfg.PhysRegs))
	}
	p, _ := virecPool.Get().(*ViReC)
	if p == nil {
		p = new(ViReC)
		p.excluded = func(i int) bool { return p.lockedPhys[i] || p.fill[i] != fillNone }
		p.oracle = p.oracleDistance
	}
	tags := vrmu.NewTagStore(cfg.PhysRegs, cfg.Policy)
	tags.Reserve(threads)
	*p = ViReC{
		base: newBase(memory, layout, threads),
		cfg:  cfg,
		tags: tags,
		rq:   vrmu.NewRollbackQueue(rollbackDepth, tags),

		bsi:    newBSI(p.bsi, dcache, !cfg.BlockingBSI, p),
		sysBsi: newBSI(p.sysBsi, dcache, true, p),
		pfBsi:  newBSI(p.pfBsi, dcache, true, p),

		prefetchRegs: resized(p.prefetchRegs, threads),
		oracleOcc:    resized(p.oracleOcc, threads),
		oracleCursor: resized(p.oracleCursor, threads),
		oracleLists:  p.oracleLists[:0], oraclePos: p.oraclePos[:0], oracle: p.oracle,

		fill:       resized(p.fill, cfg.PhysRegs),
		lockedPhys: resized(p.lockedPhys, cfg.PhysRegs),
		excluded:   p.excluded,
		sysBuf:     [2]sysSlot{{thread: -1}, {thread: -1}},
	}
	if cfg.Policy == vrmu.Belady {
		tags.SetOracle(p.oracle)
	}
	return p
}

// SetOracleSeq installs a thread's recorded register access sequence (the
// per-instruction in.Regs order from a functional pre-run) for the Belady
// policy's perfect intra-thread future knowledge. It keeps no reference to
// seq, so the caller may reuse the buffer. Threads running the same
// kernel often record the same sequence: when seq equals the previous
// thread's, the thread shares that thread's position lists, which nothing
// writes once built. Each thread keeps its own cursor.
func (p *ViReC) SetOracleSeq(thread int, seq []isa.Reg) {
	if thread > 0 {
		if prev := p.oracleOcc[thread-1]; prev != nil && sameSeq(prev, seq) {
			p.oracleOcc[thread] = prev
			return
		}
	}
	// Count each register's uses, then cut the thread's stretch of the
	// position store into per-register lists of exactly that length. A
	// store that grows leaves earlier threads' lists where they were.
	var n [isa.NumRegs]int
	used := 0
	for _, r := range seq {
		if r != isa.XZR {
			n[r]++
			used++
		}
	}
	start := len(p.oraclePos)
	p.oraclePos = slices.Grow(p.oraclePos, used)[:start+used]
	all := p.oraclePos[start:]
	p.oracleLists = append(p.oracleLists, [isa.NumRegs][]uint32{})
	occ := &p.oracleLists[len(p.oracleLists)-1]
	for r, k := range n {
		occ[r], all = all[:0:k], all[k:]
	}
	for i, r := range seq {
		if r != isa.XZR {
			occ[r] = append(occ[r], uint32(i))
		}
	}
	p.oracleOcc[thread] = occ
}

// sameSeq reports whether occ lists exactly the positions of seq's
// registers, XZR aside. It walks seq position by position and allocates
// nothing.
func sameSeq(occ *[isa.NumRegs][]uint32, seq []isa.Reg) bool {
	var next [isa.NumRegs]int
	for i, r := range seq {
		if r == isa.XZR {
			continue
		}
		k := next[r]
		if k == len(occ[r]) || occ[r][k] != uint32(i) {
			return false
		}
		next[r] = k + 1
	}
	for r, k := range next {
		if k != len(occ[r]) {
			return false
		}
	}
	return true
}

// oracleDistance returns how many committed accesses lie between the
// thread's cursor and its next use of reg (max if never used again).
func (p *ViReC) oracleDistance(thread int, reg isa.Reg) uint64 {
	occ := p.oracleOcc[thread]
	if occ == nil {
		return 0
	}
	positions := occ[reg]
	cur := p.oracleCursor[thread]
	// Binary search for the first position >= cursor.
	lo, hi := 0, len(positions)
	for lo < hi {
		mid := (lo + hi) / 2
		if positions[mid] < cur {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(positions) {
		return 0xffffffff // never used again
	}
	return uint64(positions[lo] - cur)
}

// SetPrefetchRegs installs the predicted register set PrefetchNext loads
// for a thread ahead of its scheduling. The provider keeps regs, so the
// caller must not change it afterwards.
func (p *ViReC) SetPrefetchRegs(thread int, regs []isa.Reg) { p.prefetchRegs[thread] = regs }

var _ cpu.Provider = (*ViReC)(nil)

// Release hands the provider, its tag store and its rollback queue to the
// next NewViReC. Call it once the provider's system is done; a released
// provider cannot run again.
func (p *ViReC) Release() {
	p.tags.Release()
	p.rq.Release()
	virecPool.Put(p)
}

// SetTelemetry attaches the cycle-level tracer to the provider and its
// three BSI engines. A nil tracer keeps every emit path disabled.
func (p *ViReC) SetTelemetry(tr *telemetry.Tracer, coreID int) {
	p.tracer = tr
	p.traceCore = int32(coreID)
	for _, b := range [...]*bsi{p.bsi, p.sysBsi, p.pfBsi} {
		b.tracer = tr
		b.traceCore = int32(coreID)
	}
}

// StampCycle keeps the provider's event timestamp current. The core calls
// it at the top of its Tick (only while tracing), before any pipeline
// stage reaches the provider, so decode-side events carry the exact
// emitting cycle even though the provider's own Tick runs last.
func (p *ViReC) StampCycle(cycle uint64) { p.cycle = cycle }

// fillLatencyBuckets are the fill-latency histogram's bounds, shared by
// every ViReC provider's histogram and never modified.
var fillLatencyBuckets = telemetry.Pow2Buckets(4, 10)

// RegisterMetrics wires the provider's counters, the tag store, the BSI
// traffic counters and the fill-latency histogram into a registry under
// prefix (e.g. "rf0"). Counters alias the exported stats fields, so the
// registry reconciles exactly with the experiment tables.
func (p *ViReC) RegisterMetrics(r *telemetry.Registry, prefix string) {
	p.tags.RegisterMetrics(r, telemetry.Name(prefix, "/vrmu"))
	r.Stats(prefix, &p.Stats)
	// The three BSI engines share one type, so their counters are named
	// here rather than by tags.
	r.Counter(telemetry.Name(prefix, "/fills_issued"), &p.bsi.FillsIssued)
	r.Counter(telemetry.Name(prefix, "/spills_issued"), &p.bsi.SpillsIssued)
	r.Counter(telemetry.Name(prefix, "/sysreg_fills"), &p.sysBsi.FillsIssued)
	r.Counter(telemetry.Name(prefix, "/sysreg_spills"), &p.sysBsi.SpillsIssued)
	r.Counter(telemetry.Name(prefix, "/prefetch_fills"), &p.pfBsi.FillsIssued)
	p.bsi.fillLat = r.Histogram(telemetry.Name(prefix, "/fill_latency_cycles"), fillLatencyBuckets)
}

// Tags exposes the tag store for statistics (hit rates, Figure 12).
func (p *ViReC) Tags() *vrmu.TagStore { return p.tags }

// resident reports whether (thread,reg) has a valid value in the RF: it is
// mapped, and no fill to its slot is pending.
func (p *ViReC) resident(thread int, r isa.Reg) bool {
	phys, ok := p.tags.Lookup(thread, r)
	return ok && p.fill[phys] != fillPending
}

// lockIfPresent adds the physical slot of (thread,reg) to the decode lock
// set.
func (p *ViReC) lockIfPresent(thread int, r isa.Reg) {
	if phys, ok := p.tags.Lookup(thread, r); ok {
		p.lockedPhys[phys] = true
	}
}

// allocate selects a victim, spills it, and installs (thread,reg) in its
// slot. Returns the physical index, or -1 if no victim is available.
// With GroupEvict, the victim's committed same-line siblings are evicted
// alongside it: their spill writes land in the same (pinned) backing
// line, and the freed slots absorb the next misses without evictions.
func (p *ViReC) allocate(thread int, r isa.Reg) int {
	phys := p.tags.SelectVictim(p.excluded)
	if phys < 0 {
		return -1
	}
	var group []int
	if p.cfg.GroupEvict {
		if e := p.tags.Entry(phys); e.Valid {
			var siblings [7]int
			group = p.tags.LineSiblings(&siblings, e.Thread, e.Reg)
		}
	}
	victim, evicted := p.tags.Insert(thread, r, phys)
	if evicted {
		p.spill(victim)
	}
	if len(group) > 0 {
		for _, sib := range group {
			if p.excluded(sib) {
				continue
			}
			e := p.tags.Entry(sib)
			if !e.Valid || !e.C {
				continue // keep in-flight (to-be-replayed) registers
			}
			if v, ok := p.tags.Evict(sib); ok {
				p.spill(v)
				p.GroupEvictions++
			}
		}
	}
	p.lockedPhys[phys] = true
	return phys
}

// spill writes an evicted register back to the backing store. The value
// lands in functional memory immediately (it must be visible to a
// subsequent fill); the BSI store models the timing and keeps the dcache
// pin counters balanced. Dead threads' registers are dropped with a
// metadata-only write.
func (p *ViReC) spill(v vrmu.Victim) {
	addr := p.layout.RegAddr(v.Thread, v.Reg)
	if !v.Dummy {
		p.memory.Write64(addr, v.Value)
	}
	if p.tracer != nil {
		var dirty uint64
		if v.Dirty {
			dirty = 1
		}
		p.tracer.Emit(p.cycle, telemetry.EvVictim, p.traceCore, int32(v.Thread),
			uint64(v.Reg), dirty, 0)
	}
	// Spill elision, the general form of the dummy-destination case: a
	// dirty value the compiler proved dead (or rematerializable from an
	// immediate) is never worth a critical-path writeback. The functional
	// write above always happens — hints steer timing, never values — but
	// the BSI store is demoted to background traffic.
	crit := v.Dirty
	if crit && (v.Dead || v.Remat) {
		crit = false
		p.HintSpillsElided++
	}
	p.bsi.pushStore(bsiOp{addr: addr, kind: mem.Write, noCrit: !crit,
		thread: int32(v.Thread), reg: v.Reg})
}

// fillOp is the backing-store read that fills (thread,reg) into slot phys.
func (p *ViReC) fillOp(thread int, r isa.Reg, phys int) bsiOp {
	return bsiOp{addr: p.layout.RegAddr(thread, r), kind: mem.Read, done: doneFill,
		thread: int32(thread), reg: r, slot: int32(phys)}
}

// startFill begins fetching (thread,reg) from the backing store into slot
// phys.
func (p *ViReC) startFill(thread int, r isa.Reg, phys int) {
	p.fill[phys] = fillPending
	p.bsi.pushLoad(p.fillOp(thread, r, phys))
}

// bsiDone runs the completion of a landed fill or system-register load,
// for all three of the provider's BSI engines.
func (p *ViReC) bsiDone(op bsiOp) {
	switch op.done {
	case doneFill:
		if p.fill[op.slot] == fillPending {
			p.tags.FillValue(int(op.slot), p.memory.Read64(op.addr))
		}
		p.fill[op.slot] = fillNone
	case doneSysregs:
		if s := &p.sysBuf[op.slot]; s.thread == int(op.thread) {
			s.ready = true
		}
	}
}

// Acquire implements the decode-side register access of Section 5.1: tag
// store lookups for every source and destination, miss handling through
// victim selection, eviction and fill, and the dummy-value optimization
// for destination-only registers.
func (p *ViReC) Acquire(thread int, in *isa.Inst, needSrcs []isa.Reg, probe bool) (ready, acts bool) {
	if p.rq.Full() {
		return false, false
	}
	// New instruction at decode: reset the lock set (the previous
	// instruction has dispatched or been squashed) and count its accesses.
	if p.lockedInst != in || p.lockedThread != thread {
		if probe {
			return false, true
		}
		p.lockedInst = in
		p.lockedThread = thread
		clear(p.lockedPhys)
		for _, r := range needSrcs {
			if r == isa.XZR {
				continue
			}
			hit := p.resident(thread, r)
			p.tags.CountAccess(hit)
			if hit && p.cfg.PrefetchNext {
				p.PrefetchHits++
			}
			if !hit && p.tracer != nil {
				p.tracer.Emit(p.cycle, telemetry.EvRFMiss, p.traceCore, int32(thread), uint64(r), 0, 0)
			}
			p.lockIfPresent(thread, r)
		}
		var dsts [2]isa.Reg
		for _, d := range in.DstRegs(dsts[:0]) {
			if d != isa.XZR {
				hit := p.tags.Contains(thread, d)
				p.tags.CountAccess(hit)
				if !hit && p.tracer != nil {
					p.tracer.Emit(p.cycle, telemetry.EvRFMiss, p.traceCore, int32(thread), uint64(d), 1, 0)
				}
				p.lockIfPresent(thread, d)
			}
		}
	}

	ready = true
	for _, r := range needSrcs {
		if r == isa.XZR {
			continue
		}
		if p.resident(thread, r) {
			// Not a state change, so a probe runs it too: the slot was
			// locked when this instruction latched, or by allocate when
			// it claimed the slot for the fill that made it resident.
			p.lockIfPresent(thread, r)
			continue
		}
		ready = false
		if p.tags.Contains(thread, r) {
			continue // mapped but not resident: its fill is under way
		}
		if probe {
			return false, true
		}
		phys := p.allocate(thread, r)
		if phys < 0 {
			continue // every slot locked/pending; retry next cycle
		}
		p.startFill(thread, r, phys)
	}

	var dstBuf [2]isa.Reg
	for _, d := range in.DstRegs(dstBuf[:0]) {
		if d == isa.XZR {
			continue
		}
		if phys, ok := p.tags.Lookup(thread, d); ok {
			p.lockedPhys[phys] = true
			// A destination with a fill still in flight (NoDummyDest
			// path) is allocated but not yet writable-consistent; hold
			// the instruction until the fill lands.
			if p.fill[phys] == fillPending {
				ready = false
			}
			continue
		}
		isSrc := false
		for _, r := range needSrcs {
			if r == d {
				isSrc = true
			}
		}
		if isSrc {
			continue // the source path is already filling it
		}
		if probe {
			return false, true
		}
		phys := p.allocate(thread, d)
		if phys < 0 {
			ready = false
			continue
		}
		if p.cfg.NoDummyDest {
			p.startFill(thread, d, phys)
			ready = false
		} else {
			// Dummy-value optimization: the old value is not needed. A
			// metadata-only read keeps the backing store's pin counters
			// bookkeeping correct without stalling decode.
			p.tags.FillDummy(phys)
			p.DummyDests++
			p.bsi.pushLoad(bsiOp{
				addr:   p.layout.RegAddr(thread, d),
				kind:   mem.Read,
				noCrit: true,
				thread: int32(thread),
				reg:    d,
			})
		}
	}
	return ready, false
}

// ReadValue returns the cached value after touching the entry (pseudo-LRU
// age reset plus speculative C-bit set).
func (p *ViReC) ReadValue(thread int, r isa.Reg) uint64 {
	if r == isa.XZR {
		return 0
	}
	phys, ok := p.tags.Lookup(thread, r)
	if !ok {
		// The core only calls ReadValue after Acquire reported the
		// register resident, so a miss here is corruption; sim.Run
		// recovers this panic into a *sim.CrashError carrying a full
		// diagnostic dump.
		panic(fmt.Sprintf("regfile: ReadValue of non-resident %s (thread %d); %s", r, thread, p.DebugState()))
	}
	p.tags.Touch(phys)
	return p.tags.ReadValue(phys)
}

// WriteValue installs a committed result. If the register was evicted
// between decode and commit it is re-allocated (allocate-on-write); if a
// fill is in flight the fill goes stale so its value is dropped.
func (p *ViReC) WriteValue(thread int, r isa.Reg, v uint64) {
	if r == isa.XZR {
		return
	}
	phys, ok := p.tags.Lookup(thread, r)
	if ok && p.fill[phys] == fillPending {
		p.fill[phys] = fillStale
	}
	if !ok {
		phys = p.allocate(thread, r)
		if phys < 0 {
			// Pathological: every slot locked. Fall back to spilling the
			// value straight to the backing store.
			addr := p.layout.RegAddr(thread, r)
			p.memory.Write64(addr, v)
			p.bsi.pushStore(bsiOp{addr: addr, kind: mem.Write, thread: int32(thread), reg: r})
			return
		}
		p.CommitReallocs++
		p.bsi.pushLoad(bsiOp{addr: p.layout.RegAddr(thread, r), kind: mem.Read, noCrit: true,
			thread: int32(thread), reg: r})
	}
	p.tags.Touch(phys)
	p.tags.WriteValue(phys, v)
}

// InstDecoded pushes the instruction and its physical registers into the
// rollback queue and releases the decode locks.
func (p *ViReC) InstDecoded(thread int, seq uint64, in *isa.Inst) {
	var regs [6]isa.Reg
	var physBuf [4]int
	phys := physBuf[:0]
	for _, r := range in.Regs(regs[:0]) {
		if r == isa.XZR {
			continue
		}
		idx, ok := p.tags.Lookup(thread, r)
		if !ok {
			continue
		}
		dup := false
		for _, seenIdx := range phys {
			if seenIdx == idx {
				dup = true
				break
			}
		}
		if !dup {
			phys = append(phys, idx)
		}
	}
	p.rq.Push(seq, phys, in)
	p.lockedInst = nil
	clear(p.lockedPhys)
}

// InstCommitted retires the oldest rollback-queue entry and applies what
// its instruction carries: under Belady, the thread's future-knowledge
// cursor moves past the instruction's register accesses; under LRC+H, its
// compiler-hint marks reach the tag store. Both wait for commit, so they
// are exactly as speculative as the instruction: a flush drops the entry,
// and the replayed decode pushes it again.
func (p *ViReC) InstCommitted(thread int, seq uint64) {
	in := p.rq.Commit(seq)
	if in == nil {
		return
	}
	if p.cfg.Policy == vrmu.Belady {
		var regs [6]isa.Reg
		for _, r := range in.Regs(regs[:0]) {
			if r != isa.XZR {
				p.oracleCursor[thread]++
			}
		}
	}
	if p.cfg.Policy.HintAware() && in.Hints != 0 {
		p.applyHints(thread, in)
	}
}

// applyHints installs a committed instruction's dead and remat marks into
// the tag store. Registers no longer resident simply lose their mark (the
// eviction already happened; nothing to steer).
func (p *ViReC) applyHints(thread int, in *isa.Inst) {
	var dead [4]isa.Reg
	for _, r := range in.DeadRegs(dead[:0]) {
		if phys, ok := p.tags.Lookup(thread, r); ok {
			p.tags.MarkDead(phys)
		}
	}
	if in.Hints&isa.HintRemat != 0 {
		if phys, ok := p.tags.Lookup(thread, in.Rd); ok {
			p.tags.MarkRemat(phys)
		}
	}
}

// PipelineFlushed resets the C bits of all in-flight registers (unless
// the rollback ablation is active, in which case the queue is drained
// without resets). Either way the flushed instructions' entries go, with
// their Belady accesses and hint marks.
func (p *ViReC) PipelineFlushed(thread int) {
	if p.cfg.NoRollback {
		p.rq.Drop()
		return
	}
	p.rq.Flush()
}

// sysSlotOf returns the ping-pong slot holding thread, or -1.
func (p *ViReC) sysSlotOf(thread int) int {
	for i := range p.sysBuf {
		if p.sysBuf[i].thread == thread {
			return i
		}
	}
	return -1
}

// loadSysregs begins fetching a thread's system-register line into slot i.
func (p *ViReC) loadSysregs(i, thread int) {
	p.sysBuf[i] = sysSlot{thread: thread}
	p.sysBsi.pushLoad(bsiOp{
		addr:   p.layout.SysRegAddr(thread),
		kind:   mem.Read,
		sticky: true,
		done:   doneSysregs,
		thread: int32(thread),
		slot:   int32(i),
	})
}

// CanSwitchTo requires the next thread's system registers to be resident
// in the ping-pong buffer; a miss starts the load and stalls the switch.
func (p *ViReC) CanSwitchTo(next int, probe bool) (ready, acts bool) {
	if i := p.sysSlotOf(next); i >= 0 {
		return p.sysBuf[i].ready, false
	}
	if probe {
		return false, true
	}
	// Not buffered: claim a slot not holding the current thread.
	victim := 0
	cur := p.tags.Current()
	if p.sysBuf[0].thread == cur {
		victim = 1
	}
	if old := p.sysBuf[victim]; old.thread >= 0 && old.ready {
		p.sysBsi.pushStore(bsiOp{addr: p.layout.SysRegAddr(old.thread), kind: mem.Write,
			noCrit: true, thread: int32(old.thread)})
	}
	p.loadSysregs(victim, next)
	return false, false
}

// BlockSwitch masks context switches while register transactions are
// outstanding at the BSI, per Section 5.3.
func (p *ViReC) BlockSwitch() bool { return p.bsi.Outstanding() > 0 }

// SkipQuiescent reports whether Tick would be a pure no-op across all
// three BSIs.
func (p *ViReC) SkipQuiescent() bool {
	return p.bsi.quiet() && p.sysBsi.quiet() && p.pfBsi.quiet()
}

// OnSwitch updates the T bits and rotates the system-register ping-pong
// buffer: the previous thread's line is written back and the successor's
// line is prefetched, overlapping pipeline warmup.
func (p *ViReC) OnSwitch(prev, next, succ int) {
	if prev < 0 {
		p.tags.SetCurrent(next)
	} else {
		p.tags.OnContextSwitch(prev, next)
	}
	if p.cfg.NoSysregPrefetch {
		return
	}
	// Prefetch the successor into the slot vacated by prev (or any slot
	// not holding next).
	if succ < 0 || succ == next || p.sysSlotOf(succ) >= 0 {
		return
	}
	victim := 0
	if p.sysBuf[0].thread == next {
		victim = 1
	}
	if old := p.sysBuf[victim]; old.thread >= 0 && old.thread != next && old.ready {
		p.sysBsi.pushStore(bsiOp{addr: p.layout.SysRegAddr(old.thread), kind: mem.Write,
			noCrit: true, thread: int32(old.thread)})
	}
	p.loadSysregs(victim, succ)
	if p.cfg.PrefetchNext {
		p.prefetchThread(succ)
	}
}

// prefetchThread pulls the predicted registers of an upcoming thread into
// the register file in the background (the prefetch-combined-caching
// extension). Only registers that are neither resident nor already being
// filled are fetched; the replacement policy protects the running
// thread's registers from being displaced (they hold T=0).
func (p *ViReC) prefetchThread(thread int) {
	for _, r := range p.prefetchRegs[thread] {
		if r == isa.XZR || p.tags.Contains(thread, r) {
			continue // resident, or its fill is under way
		}
		phys := p.tags.SelectVictim(p.excluded)
		if phys < 0 {
			return
		}
		// Never displace the running thread's registers for a prefetch.
		if e := p.tags.Entry(phys); e.Valid && e.T == 0 {
			return
		}
		victim, evicted := p.tags.Insert(thread, r, phys)
		if evicted {
			p.spill(victim)
		}
		p.fill[phys] = fillPending
		p.Prefetches++
		p.pfBsi.pushLoad(p.fillOp(thread, r, phys))
	}
}

// ThreadStarted is a no-op: ViReC fills registers on demand.
func (p *ViReC) ThreadStarted(thread int) {}

// ThreadHalted drops the dead thread's registers. Pin counters in the
// backing store are balanced with metadata-only writes. A fill still in
// flight goes stale: its slot stays out of victim choice until it lands,
// and it installs nothing.
func (p *ViReC) ThreadHalted(thread int) {
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		phys, ok := p.tags.Lookup(thread, r)
		if !ok {
			continue
		}
		if p.fill[phys] == fillPending {
			p.fill[phys] = fillStale
		}
		p.bsi.pushStore(bsiOp{addr: p.layout.RegAddr(thread, r), kind: mem.Write,
			noCrit: true, thread: int32(thread), reg: r})
	}
	p.tags.InvalidateThread(thread)
	if i := p.sysSlotOf(thread); i >= 0 {
		p.sysBuf[i] = sysSlot{thread: -1}
	}
	// Release the sticky pin on the dead thread's system-register line.
	p.sysBsi.pushStore(bsiOp{addr: p.layout.SysRegAddr(thread), kind: mem.Write,
		noCrit: true, unpin: true, thread: int32(thread)})
}

// Tick drives the register BSI and the CSL's system-register engine; the
// register BSI goes first, so fills win the dcache port over sysreg
// prefetches.
func (p *ViReC) Tick(cycle uint64) {
	p.cycle = cycle
	p.bsi.Tick(cycle)
	p.sysBsi.Tick(cycle)
	p.pfBsi.Tick(cycle)
}

// DebugState returns a snapshot of internal queue sizes for diagnostics.
func (p *ViReC) DebugState() string {
	var pending, stale, locked int
	for phys, f := range p.fill {
		switch f {
		case fillPending:
			pending++
		case fillStale:
			stale++
		}
		if p.lockedPhys[phys] {
			locked++
		}
	}
	return fmt.Sprintf("pending=%d stale=%d locked=%d bsiOut=%d loads=%d stores=%d sys=[%+v %+v]",
		pending, stale, locked, p.bsi.outstanding, p.bsi.loads.n, p.bsi.stores.n, p.sysBuf[0], p.sysBuf[1])
}

// ---- hardening-layer hooks (diagnostics and invariants) ----

// ResidentLines returns the number of distinct backing-store cache lines
// spanned by the currently resident registers. The hardening layer's
// cross-module invariant compares it against the dcache's pin counters.
func (p *ViReC) ResidentLines() int {
	lines := make(map[mem.Addr]bool)
	for i := 0; i < p.tags.Size(); i++ {
		if e := p.tags.Entry(i); e.Valid {
			lines[p.layout.RegAddr(e.Thread, e.Reg).LineAddr()] = true
		}
	}
	return len(lines)
}

// OutstandingOps returns queued plus in-flight transactions across the
// register, system-register and prefetch BSIs.
func (p *ViReC) OutstandingOps() int {
	return p.bsi.Outstanding() + p.sysBsi.Outstanding() + p.pfBsi.Outstanding()
}

// CheckInvariants validates the provider's internal consistency: the tag
// store's index, the rollback queue's ordering and bounds, and that a slot
// with a pending fill holds a valid entry for the fill to land in. Returns
// "" when everything holds.
func (p *ViReC) CheckInvariants() string {
	if msg := p.tags.CheckInvariants(); msg != "" {
		return "tag store: " + msg
	}
	if msg := p.rq.CheckInvariants(p.tags.Size()); msg != "" {
		return "rollback queue: " + msg
	}
	for phys, f := range p.fill {
		if f == fillPending && !p.tags.Entry(phys).Valid {
			return fmt.Sprintf("physical register %d has a pending fill but no valid entry", phys)
		}
	}
	return ""
}

// DiagDump renders the VRMU state for watchdog and crash reports: tag
// residency per thread with the replacement-policy bits, pending fills
// (the non-resident registers stalled threads are waiting on), BSI
// occupancy, rollback-queue depth and the system-register ping-pong
// buffer.
func (p *ViReC) DiagDump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "vrmu: phys=%d resident=%d policy=%s rollback=%d/%d bsi(out=%d loads=%d stores=%d) sysBsi=%d pfBsi=%d\n",
		p.tags.Size(), p.tags.Occupancy(), p.tags.Policy(), p.rq.Len(), p.rq.Depth(),
		p.bsi.outstanding, p.bsi.loads.n, p.bsi.stores.n,
		p.sysBsi.Outstanding(), p.pfBsi.Outstanding())
	for th := 0; th < p.nThreads; th++ {
		first := true
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			phys, ok := p.tags.Lookup(th, r)
			if !ok {
				continue
			}
			if first {
				fmt.Fprintf(&b, "t%d resident:", th)
				first = false
			}
			e := p.tags.Entry(phys)
			c := 0
			if e.C {
				c = 1
			}
			flags := ""
			if e.Dirty {
				flags += ",dirty"
			}
			if e.Dummy {
				flags += ",dummy"
			}
			if e.Dead {
				flags += ",dead"
			}
			if e.Remat {
				flags += ",remat"
			}
			fmt.Fprintf(&b, " %s(T=%d,C=%d,A=%d%s)", e.Reg, e.T, c, p.tags.Age(phys), flags)
		}
		if !first {
			b.WriteByte('\n')
		}
	}
	for phys, f := range p.fill {
		if f == fillPending {
			e := p.tags.Entry(phys)
			fmt.Fprintf(&b, "pending fill t%d %s (phys %d, non-resident)\n", e.Thread, e.Reg, phys)
		}
	}
	fmt.Fprintf(&b, "sysbuf: [t%d ready=%v] [t%d ready=%v]\n",
		p.sysBuf[0].thread, p.sysBuf[0].ready, p.sysBuf[1].thread, p.sysBuf[1].ready)
	return b.String()
}
