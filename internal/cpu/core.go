// Package cpu implements the coarse-grain multithreaded (CGMT) in-order
// pipeline at the heart of every near-memory processor configuration in
// the ViReC evaluation: a single-issue five-stage core (fetch, decode,
// execute, memory, commit) that detects dcache load misses, flushes the
// pipeline and round-robins to another hardware thread. Register-context
// storage is pluggable through the Provider interface, which is what
// distinguishes the banked, software-switched, ViReC and prefetching
// processors — the pipeline itself is identical, as in the paper.
//
// The simulator splits function from timing: instruction results are
// computed with the isa package's evaluators using operand values captured
// at decode (with full forwarding from in-flight instructions), while all
// timing — stage occupancy, dcache/DRAM latency, register fill stalls,
// context-switch masking — is enforced by the per-cycle Tick loop. Every
// run is deterministic.
package cpu

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"github.com/virec/virec/internal/asm"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/telemetry"
)

// Config parameterizes the pipeline (Table 1's in-order cores).
type Config struct {
	Threads      int // hardware thread slots to schedule
	FetchLatency int // pipelined icache hit latency, cycles
	FetchBufSize int // fetch buffer entries
	SQEntries    int // store queue entries
	MulLatency   int // execute cycles for MUL/MADD
	DivLatency   int // execute cycles for UDIV/SDIV
	FPLatency    int // execute cycles for FADD/FSUB/FMUL/FMADD
	FPDivLatency int // execute cycles for FDIV/FSQRT

	// ValidateValues enables the golden-model check: every operand read
	// from the provider is compared against a shadow architectural
	// context maintained at commit. A mismatch panics — it means the
	// provider's fill/spill value path corrupted a register.
	ValidateValues bool
}

// DefaultConfig returns the Table-1 in-order core configuration.
func DefaultConfig() Config {
	return Config{
		Threads:      8,
		FetchLatency: 2,
		FetchBufSize: 2,
		SQEntries:    5,
		MulLatency:   3,
		DivLatency:   12,
		FPLatency:    4,
		FPDivLatency: 12,
	}
}

// Stats accumulates core statistics. Each uint64 field is a counter,
// registered under its metric tag by RegisterMetrics.
type Stats struct {
	Cycles          uint64 `metric:"cycles"`
	Insts           uint64 `metric:"insts"`
	InstsPerThread  []uint64
	ContextSwitches uint64 `metric:"ctx_switches"`
	LoadMissSignals uint64 `metric:"load_miss_signals"` // dcache switch signals received
	SwitchWaits     uint64 `metric:"switch_waits"`      // cycles CSL waited on CanSwitchTo/BlockSwitch
	DecodeRegStalls uint64 `metric:"decode_reg_stalls"` // cycles decode stalled in Acquire
	DecodeFwdStalls uint64 `metric:"decode_fwd_stalls"` // cycles decode stalled on forwarding
	FetchStalls     uint64 `metric:"fetch_stalls"`      // cycles fetch had no slot
	SQFullStalls    uint64 `metric:"sq_full_stalls"`    // cycles commit stalled on a full store queue
	StoreLoadStalls uint64 `metric:"store_load_stalls"` // load issues held behind an uncommitted same-address store
	SwitchCancels   uint64 `metric:"switch_cancels"`    // switch requests dropped by the commit mask
	MemWaitCycles   uint64 `metric:"mem_wait_cycles"`   // cycles the MEM stage held an unfinished load
	Loads           uint64 `metric:"loads"`
	Stores          uint64 `metric:"stores"`
	BranchFlushes   uint64 `metric:"branch_flushes"`
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Insts) / float64(s.Cycles)
}

// Thread is one hardware thread context.
type Thread struct {
	ID      int
	Prog    *asm.Program
	PC      int
	Flags   isa.Flags
	Halted  bool
	Started bool

	// ProgBase is the address the program occupies for instruction-fetch
	// timing when the core has an icache (instructions are 4 bytes each;
	// the functional instruction comes from Prog directly).
	ProgBase mem.Addr

	shadow [isa.NumRegs]uint64 // golden architectural values (commit order)
}

// Shadow returns the golden (commit-order) value of register r; tests use
// it to check results.
func (t *Thread) Shadow(r isa.Reg) uint64 {
	if r == isa.XZR {
		return 0
	}
	return t.shadow[r]
}

// SetShadow pre-loads an architectural register (workload setup).
func (t *Thread) SetShadow(r isa.Reg, v uint64) {
	if r != isa.XZR {
		t.shadow[r] = v
	}
}

// inflight is one instruction in the backend.
type inflight struct {
	seq    uint64
	thread int
	pc     int
	in     *isa.Inst

	valRn, valRm, valRa, valRd uint64
	flagsIn                    isa.Flags

	result      uint64
	writesReg   bool
	resultReady bool
	newFlags    isa.Flags
	setsFlags   bool

	effAddr    mem.Addr
	loadIssued bool
	loadDone   bool
	loadVal    uint64

	branchResolved bool
	branchTaken    bool
	exReadyAt      uint64
}

// fetchSlot is one fetch-buffer entry, held by value in the fetch ring.
type fetchSlot struct {
	id      uint64 // unique per enqueued slot; icache completions match on it
	pc      int
	readyAt uint64 // fixed-latency path
	ready   bool   // icache path: completion arrived
	issued  bool   // icache path: request accepted
}

// sqEntry is one store-queue entry. Its request is embedded and reused: an
// entry only retires (and is refilled) after its own completion.
type sqEntry struct {
	req    mem.Request
	done   bool
	sent   bool
	doneFn func(uint64) // complete, bound once when the queue is built
}

func (e *sqEntry) complete(uint64) { e.done = true }

// ring is a fixed-capacity FIFO of values. Entries are recycled in place:
// push returns the next free entry for the caller to overwrite.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

// at returns the i-th oldest entry.
func (r *ring[T]) at(i int) *T { return &r.buf[(r.head+i)%len(r.buf)] }

// push claims the entry after the youngest; the caller checks capacity.
func (r *ring[T]) push() *T {
	e := r.at(r.n)
	r.n++
	return e
}

// pop retires the oldest entry.
func (r *ring[T]) pop() {
	r.head = (r.head + 1) % len(r.buf)
	r.n--
}

// clear empties the ring; the next push reuses the first entry.
func (r *ring[T]) clear() { r.head, r.n = 0, 0 }

// loadReq is a recycled dcache load request. Its completion finds the load
// by sequence number: a load squashed while in flight matches nothing, so
// an in-flight record recycled for a younger instruction is never written.
type loadReq struct {
	req        mem.Request
	core       *Core
	seq        uint64
	done, miss func(uint64) // complete and missed, bound once
}

// fetchReq is a recycled icache request. Its completion finds the fetch
// slot by id, so a slot dropped by a redirect is never marked ready
// through storage the ring has since reused.
type fetchReq struct {
	req  mem.Request
	core *Core
	slot uint64
	done func(uint64) // complete, bound once
}

type switchReason uint8

const (
	switchNone switchReason = iota
	switchMiss
	switchYield
	switchHalt
	switchStart
)

// Core is one near-memory processor.
type Core struct {
	cfg      Config
	provider Provider
	dcache   mem.Device
	icache   mem.Device // nil = fixed-latency fetch pipe
	memory   *mem.Memory
	threads  []Thread

	cur     int // running thread, -1 before first schedule
	seq     uint64
	fetchPC int
	fetchID uint64 // id of the youngest fetch slot
	fetchQ  ring[fetchSlot]

	// The four pipeline latches point into recs. At most four records are
	// latched at once and a new one is only needed when decode is empty,
	// so a free record always exists; a record is free as soon as no latch
	// points at it.
	dec  *inflight
	ex   *inflight
	mm   *inflight
	wb   *inflight
	recs [4]inflight

	sq ring[sqEntry]

	// Free lists of request holders. A holder returns to its list inside
	// its own completion, or at once when Access rejects it.
	loadFree  []*loadReq
	fetchFree []*fetchReq

	pendingSwitch        switchReason
	pendingAt            uint64
	committedSinceSwitch bool
	zeroCommitSwitches   int // consecutive switches with no commits between

	// onCommit, when set, observes every architecturally committed
	// instruction (the differential-test harness compares the stream
	// against the functional interpreter). lastCommitSeq backs the
	// no-double-commit invariant: sequence numbers are handed out at
	// decode and replayed instructions are re-decoded with fresh ones,
	// so the committed sequence must be strictly increasing.
	onCommit      func(CommitEvent)
	lastCommitSeq uint64

	cycle  uint64
	halted int

	// Per-call scratch buffers, pre-sized so the decode/commit hot path
	// never allocates; no provider retains the slices past its call.
	scratchSrc  []isa.Reg
	scratchDst  []isa.Reg
	scratchNeed []isa.Reg

	// Telemetry. tracer is nil when tracing is off (Emit and Observe are
	// nil-safe, so the disabled path is one branch per site). The
	// histograms are nil until RegisterMetrics wires them.
	tracer          *telemetry.Tracer
	traceCore       int32
	stamper         cycleStamper // non-nil only when tracing a stamping provider
	switchInterval  *telemetry.Histogram
	sqOccupancy     *telemetry.Histogram
	lastSwitchCycle uint64

	// Stats is exported read-only for reporting.
	Stats Stats
}

// corePool holds released cores. A core built from one keeps its thread
// array, rings, scratch buffers and idle request holders, whose method
// values stay bound to it; everything else starts from zero.
var corePool sync.Pool

// New builds a core over the given provider, dcache and functional memory.
// Threads are created halted-less with zero contexts; use Thread to set
// programs and initial registers, then Start.
func New(cfg Config, provider Provider, dcache mem.Device, memory *mem.Memory) *Core {
	def := DefaultConfig()
	if cfg.Threads == 0 {
		cfg.Threads = def.Threads
	}
	if cfg.FetchLatency == 0 {
		cfg.FetchLatency = def.FetchLatency
	}
	if cfg.FetchBufSize == 0 {
		cfg.FetchBufSize = def.FetchBufSize
	}
	if cfg.SQEntries == 0 {
		cfg.SQEntries = def.SQEntries
	}
	if cfg.MulLatency == 0 {
		cfg.MulLatency = def.MulLatency
	}
	if cfg.DivLatency == 0 {
		cfg.DivLatency = def.DivLatency
	}
	if cfg.FPLatency == 0 {
		cfg.FPLatency = def.FPLatency
	}
	if cfg.FPDivLatency == 0 {
		cfg.FPDivLatency = def.FPDivLatency
	}
	c, _ := corePool.Get().(*Core)
	if c == nil {
		c = &Core{
			scratchSrc:  make([]isa.Reg, 0, 8),
			scratchDst:  make([]isa.Reg, 0, 4),
			scratchNeed: make([]isa.Reg, 0, 8),
		}
	}
	threads := slices.Grow(c.threads[:0], cfg.Threads)[:cfg.Threads]
	clear(threads)
	insts := slices.Grow(c.Stats.InstsPerThread[:0], cfg.Threads)[:cfg.Threads]
	clear(insts)
	*c = Core{
		cfg:      cfg,
		provider: provider,
		dcache:   dcache,
		memory:   memory,
		threads:  threads,
		cur:      -1,
		// Push overwrites a fetch slot whole, and a store-queue entry all
		// but its completion, which is bound once.
		fetchQ: ring[fetchSlot]{buf: slices.Grow(c.fetchQ.buf[:0], cfg.FetchBufSize)[:cfg.FetchBufSize]},
		sq:     ring[sqEntry]{buf: slices.Grow(c.sq.buf[:0], cfg.SQEntries)[:cfg.SQEntries]},

		// Only idle holders are on the lists: one still lent to the old
		// system's caches stays there, and their rebuild drops it.
		loadFree: c.loadFree, fetchFree: c.fetchFree,

		scratchSrc: c.scratchSrc, scratchDst: c.scratchDst, scratchNeed: c.scratchNeed,

		Stats: Stats{InstsPerThread: insts},
	}
	for i := range c.threads {
		c.threads[i].ID = i
	}
	for i := range c.sq.buf {
		if e := &c.sq.buf[i]; e.doneFn == nil {
			e.doneFn = e.complete
		}
	}
	return c
}

// Release hands the core to the next New. Call it once, when nothing
// ticks or reads the core any more; a released core cannot run again.
func (c *Core) Release() { corePool.Put(c) }

// Thread returns hardware thread i for setup.
func (c *Core) Thread(i int) *Thread { return &c.threads[i] }

// SetICache routes instruction-fetch timing through an icache device
// (requests carry Inst=true). Without one, fetch is a fixed-latency
// pipelined path. Must be called before Start.
func (c *Core) SetICache(ic mem.Device) { c.icache = ic }

// Threads returns the number of hardware threads.
func (c *Core) Threads() int { return len(c.threads) }

// Provider returns the register provider (for stats extraction).
func (c *Core) Provider() Provider { return c.provider }

// Start marks setup complete: the first schedule targets thread 0.
func (c *Core) Start() {
	c.halted = 0
	for i := range c.threads {
		if t := &c.threads[i]; t.Prog == nil {
			t.Halted = true
			c.halted++
		}
	}
	if c.halted == len(c.threads) {
		return
	}
	c.pendingSwitch = switchStart
}

// Done reports whether every thread has halted.
func (c *Core) Done() bool { return c.halted == len(c.threads) }

// Cur returns the running thread id (-1 when none).
func (c *Core) Cur() int { return c.cur }

// Tick advances one cycle. The caller ticks the memory hierarchy after
// all cores so that accesses issued this cycle are seen by the caches.
func (c *Core) Tick(cycle uint64) {
	c.cycle = cycle
	if c.stamper != nil {
		c.stamper.StampCycle(cycle)
	}
	if c.Done() {
		return
	}
	c.Stats.Cycles++
	c.count(c.stages(false).stalls, 1)
}

// stallSet is the set of stall counters one cycle charges.
type stallSet uint8

const (
	stallMemWait    stallSet = 1 << iota // MEM holds an issued, unfinished load
	stallDecodeFwd                       // decode waits on an in-flight producer
	stallDecodeReg                       // decode waits in Acquire
	stallFetch                           // fetch buffer full
	stallSwitchWait                      // CSL waits (Mask 1/2, CanSwitchTo)
)

// step is what one cycle's stages decided: the stall counters they
// charge, the earliest cycle a timed wait in them ends (0 = none), and,
// in probe mode only, whether the cycle would change any other state.
// Each stage takes the probe flag and, if it can stall, the cycle's step,
// adds its stall bits and wake to it, and returns whether it acts; in
// probe mode it returns true at the first state change it would make,
// without making it, and a tick's stages never report acting.
type step struct {
	wake   uint64
	stalls stallSet
	acts   bool
}

// minDeadline folds deadline d into cur, where 0 means "none yet".
func minDeadline(cur, d uint64) uint64 {
	if cur == 0 || d < cur {
		return d
	}
	return cur
}

// stages runs one cycle's stages in order, then the provider's background
// engines. In probe mode nothing changes: the chain stops at the first
// stage that would act, and a provider with work queued acts.
func (c *Core) stages(probe bool) step {
	var s step
	if c.commitStage(probe) || c.memStage(probe, &s) || c.exStage(probe, &s) ||
		c.decodeStage(probe, &s) || c.fetchStage(probe, &s) || c.csl(probe, &s) ||
		c.drainSQ(probe) {
		s.acts = true
		return s
	}
	if probe {
		s.acts = !c.provider.SkipQuiescent()
	} else {
		c.provider.Tick(c.cycle)
	}
	return s
}

// count charges n cycles of the stalls in b to their counters.
func (c *Core) count(b stallSet, n uint64) {
	if b&stallMemWait != 0 {
		c.Stats.MemWaitCycles += n
	}
	if b&stallDecodeFwd != 0 {
		c.Stats.DecodeFwdStalls += n
	}
	if b&stallDecodeReg != 0 {
		c.Stats.DecodeRegStalls += n
	}
	if b&stallFetch != 0 {
		c.Stats.FetchStalls += n
	}
	if b&stallSwitchWait != 0 {
		c.Stats.SwitchWaits += n
	}
}

// ---- commit ----

// CommitEvent describes one architecturally committed instruction: its
// location, the destination-register writeback (if any) and the memory
// effect (if any). Store data is masked to the access width so it compares
// directly against what lands in memory.
type CommitEvent struct {
	Thread int
	Seq    uint64
	PC     int
	Inst   *isa.Inst
	Wrote  bool     // a non-XZR register was written back
	Rd     isa.Reg  // destination register when Wrote
	Val    uint64   // value written when Wrote
	Addr   mem.Addr // effective address for loads/stores
	Data   uint64   // store data, masked to the access width
}

// SetOnCommit installs a per-commit observer. The callback fires once per
// committed instruction, in commit order, after the writeback has reached
// the provider and the shadow context. A nil fn disables the hook (the
// commit path then pays one branch).
func (c *Core) SetOnCommit(fn func(CommitEvent)) { c.onCommit = fn }

func (c *Core) commitStage(probe bool) bool {
	f := c.wb
	if f == nil {
		return false
	}
	if probe {
		return true // retires, or counts a full store queue
	}
	in := f.in

	// Stores need a free store-queue slot.
	if in.IsStore() {
		if c.sq.n >= c.cfg.SQEntries {
			c.Stats.SQFullStalls++
			return false
		}
		c.memory.Write(f.effAddr, in.MemBytes(), f.valRd)
		e := c.sq.push()
		e.req = mem.Request{Addr: f.effAddr, Size: in.MemBytes(), Kind: mem.Write}
		e.done, e.sent = false, false
		c.Stats.Stores++
		c.sqOccupancy.Observe(uint64(c.sq.n))
	}

	th := &c.threads[f.thread]
	rd := isa.XZR
	var val uint64
	wrote := false
	if f.writesReg && in.Op != isa.NOP {
		if dsts := in.DstRegs(c.scratchDst[:0]); len(dsts) > 0 {
			rd = dsts[0]
		}
		if rd != isa.XZR {
			val = f.result
			if in.IsLoad() {
				val = f.loadVal
			}
			th.shadow[rd] = val
			c.provider.WriteValue(f.thread, rd, val)
			wrote = true
		}
	}
	if f.setsFlags {
		th.Flags = f.newFlags
	}

	// No-double-commit invariant: flushes squash uncommitted instructions
	// and replays re-decode them under fresh sequence numbers, so the
	// committed sequence is strictly increasing — a repeat here means an
	// instruction retired twice.
	if f.seq <= c.lastCommitSeq {
		panic(fmt.Sprintf("cpu: double commit: seq %d after %d (t%d pc=%d %s)",
			f.seq, c.lastCommitSeq, f.thread, f.pc, in))
	}
	c.lastCommitSeq = f.seq
	if c.onCommit != nil {
		ev := CommitEvent{Thread: f.thread, Seq: f.seq, PC: f.pc, Inst: in,
			Wrote: wrote, Rd: rd, Val: val}
		if in.IsMem() {
			ev.Addr = f.effAddr
			if in.IsStore() {
				d := f.valRd
				if n := in.MemBytes(); n < 8 {
					d &= 1<<(8*uint(n)) - 1
				}
				ev.Data = d
			}
		}
		c.onCommit(ev)
	}

	c.provider.InstCommitted(f.thread, f.seq)
	c.Stats.Insts++
	c.Stats.InstsPerThread[f.thread]++
	c.committedSinceSwitch = true
	if c.tracer != nil {
		c.tracer.Emit(c.cycle, telemetry.EvStage, c.traceCore, int32(f.thread),
			telemetry.StageCommit, uint64(f.pc), f.seq)
	}
	c.wb = nil

	switch in.Op {
	case isa.HALT:
		th.Halted = true
		c.halted++
		c.provider.ThreadHalted(f.thread)
		c.flushPipeline(-1) // discard younger wrong-path instructions
		if !c.Done() {
			c.pendingSwitch = switchHalt
			c.pendingAt = c.cycle
		} else {
			c.cur = -1
		}
	case isa.YIELD:
		if c.pendingSwitch == switchNone {
			c.pendingSwitch = switchYield
			c.pendingAt = c.cycle
		}
	}
	return false
}

// ---- memory stage ----

func (c *Core) memStage(probe bool, st *step) bool {
	f := c.mm
	if f == nil {
		return false
	}
	in := f.in
	if in.IsLoad() {
		if !f.loadIssued {
			if probe {
				return true // issues, or counts a store-load stall
			}
			// An older store stalled at commit (store queue full) has not
			// written functional memory yet; a load overlapping its address
			// must wait, or its completion callback would read around the
			// store. Committed stores are already in functional memory, so
			// only the WB stage can hold such a store.
			if s := c.wb; s != nil && s.in.IsStore() &&
				s.effAddr < f.effAddr+mem.Addr(in.MemBytes()) &&
				f.effAddr < s.effAddr+mem.Addr(s.in.MemBytes()) {
				c.Stats.StoreLoadStalls++
				return false
			}
			c.issueLoad(f)
			if !f.loadIssued {
				return false // port/MSHR busy, retry next cycle
			}
		}
		if !f.loadDone {
			st.stalls |= stallMemWait
			return false
		}
	}
	if c.wb == nil {
		if probe {
			return true
		}
		c.wb = f
		c.mm = nil
	}
	return false
}

func (c *Core) issueLoad(f *inflight) {
	h := c.newLoadReq()
	h.seq = f.seq
	h.req = mem.Request{
		Addr: f.effAddr,
		Size: f.in.MemBytes(),
		Kind: mem.Read,
		Done: h.done,
		Miss: h.miss,
	}
	if !c.dcache.Access(&h.req) {
		c.loadFree = append(c.loadFree, h)
		return
	}
	f.loadIssued = true
	c.Stats.Loads++
}

// newLoadReq takes a load holder off the free list.
func (c *Core) newLoadReq() *loadReq {
	if n := len(c.loadFree); n > 0 {
		h := c.loadFree[n-1]
		c.loadFree = c.loadFree[:n-1]
		return h
	}
	// Free-list growth, bounded by the loads in flight at once.
	h := &loadReq{core: c}
	h.done, h.miss = h.complete, h.missed
	return h
}

// waiting returns the load in MEM if it is still the one h was issued for.
// An unsquashed issued load stays in MEM until its data arrives.
func (h *loadReq) waiting() *inflight {
	if f := h.core.mm; f != nil && f.seq == h.seq {
		return f
	}
	return nil
}

func (h *loadReq) complete(cycle uint64) {
	c := h.core
	f := h.waiting()
	c.loadFree = append(c.loadFree, h)
	if f == nil {
		return // squashed
	}
	f.loadDone = true
	f.loadVal = isa.LoadExtend(f.in.Op, c.memory.Read(f.effAddr, f.in.MemBytes()))
}

func (h *loadReq) missed(cycle uint64) {
	c := h.core
	f := h.waiting()
	if f == nil {
		return
	}
	c.Stats.LoadMissSignals++
	if c.tracer != nil {
		c.tracer.Emit(cycle, telemetry.EvLoadMiss, c.traceCore,
			int32(f.thread), uint64(f.effAddr), 0, 0)
	}
	if c.pendingSwitch == switchNone {
		c.pendingSwitch = switchMiss
		c.pendingAt = cycle
	}
}

// ---- execute ----

func (c *Core) exStage(probe bool, st *step) bool {
	f := c.ex
	if f == nil {
		return false
	}
	in := f.in

	if !f.resultReady {
		if probe {
			return true
		}
		f.exReadyAt = c.cycle
		switch {
		case in.IsMem():
			f.effAddr = mem.Addr(isa.EffAddr(in, f.valRn, f.valRm))
			f.writesReg = in.IsLoad()
		case in.IsBranch():
			f.branchTaken = isa.BranchTaken(in, f.flagsIn, f.valRn)
			f.branchResolved = true
			if in.Op == isa.BL {
				f.result = uint64(f.pc + 1)
				f.writesReg = true
			}
			if f.branchTaken {
				target := int(in.Target)
				if in.Op == isa.RET {
					target = int(f.valRn)
				}
				// Unconditional B/BL were redirected at decode; only
				// redirect (and flush wrong-path work) for the rest.
				if in.Op != isa.B && in.Op != isa.BL {
					c.dec = nil // squash the wrong-path instruction
					c.redirect(target)
					c.Stats.BranchFlushes++
				}
			}
		default:
			r := isa.EvalALU(in, f.valRn, f.valRm, f.valRa, f.flagsIn)
			f.result, f.writesReg = r.Value, r.WritesReg
			f.newFlags, f.setsFlags = r.Flags, r.WritesFlag
			switch in.Op {
			case isa.MUL, isa.MADD:
				f.exReadyAt = c.cycle + uint64(c.cfg.MulLatency) - 1
			case isa.UDIV, isa.SDIV:
				f.exReadyAt = c.cycle + uint64(c.cfg.DivLatency) - 1
			case isa.FADD, isa.FSUB, isa.FMUL, isa.FMADD, isa.SCVTF, isa.FCVTZS:
				f.exReadyAt = c.cycle + uint64(c.cfg.FPLatency) - 1
			case isa.FDIV, isa.FSQRT:
				f.exReadyAt = c.cycle + uint64(c.cfg.FPDivLatency) - 1
			}
		}
		f.resultReady = true
	}
	if c.mm != nil {
		return false // waits for MEM to drain, with no deadline of its own
	}
	if c.cycle < f.exReadyAt {
		st.wake = minDeadline(st.wake, f.exReadyAt)
		return false
	}
	if probe {
		return true
	}
	if c.tracer != nil {
		c.tracer.Emit(c.cycle, telemetry.EvStage, c.traceCore, int32(f.thread),
			telemetry.StageMem, uint64(f.pc), f.seq)
	}
	c.mm = f
	c.ex = nil
	return false
}

// redirect discards the fetch buffer and restarts fetch at target. The
// caller squashes any wrong-path decode latch itself: a branch redirecting
// from decode must not squash itself.
func (c *Core) redirect(target int) {
	c.fetchQ.clear()
	c.fetchPC = target
}

// ---- decode ----

// producerOf finds the youngest in-flight instruction writing r for the
// running thread, searching EX, MEM then WB. It returns the forwarded
// value when available, or stall=true when the producer hasn't finished.
func (c *Core) producerOf(r isa.Reg) (val uint64, found, stall bool) {
	for _, f := range [...]*inflight{c.ex, c.mm, c.wb} {
		if f == nil {
			continue
		}
		dsts := f.in.DstRegs(c.scratchDst[:0])
		writes := false
		for _, d := range dsts {
			if d == r {
				writes = true
			}
		}
		if !writes {
			continue
		}
		if f.in.IsLoad() {
			if f.loadDone {
				return f.loadVal, true, false
			}
			return 0, true, true
		}
		if f.resultReady && f.writesReg {
			return f.result, true, false
		}
		return 0, true, true
	}
	return 0, false, false
}

// flagsProducer finds in-flight flag state: (flags, found, stall).
func (c *Core) flagsProducer() (isa.Flags, bool, bool) {
	for _, f := range [...]*inflight{c.ex, c.mm, c.wb} {
		if f == nil || !f.in.SetsFlags() {
			continue
		}
		if f.resultReady {
			return f.newFlags, true, false
		}
		return isa.Flags{}, true, true
	}
	return isa.Flags{}, false, false
}

func (c *Core) decodeStage(probe bool, st *step) bool {
	f := c.dec
	if f == nil {
		return false
	}
	// Stall decode while an unresolved control-flow instruction is ahead:
	// the scalar core does not fetch or decode down an unknown path.
	if older := c.ex; older != nil && older.in.IsBranch() &&
		!older.branchResolved && older.in.Op != isa.B && older.in.Op != isa.BL {
		return false
	}
	in := f.in

	// Gather operand values: forwarding first, provider for the rest.
	// At most four distinct sources exist, so dedupe by scanning the
	// already-gathered entries instead of building a set.
	srcs := in.SrcRegs(c.scratchSrc[:0])
	need := c.scratchNeed[:0]
	var got [4]operand
	n := 0
srcLoop:
	for _, r := range srcs {
		if r == isa.XZR {
			continue
		}
		for i := 0; i < n; i++ {
			if got[i].reg == r {
				continue srcLoop
			}
		}
		if n >= len(got) {
			break
		}
		v, found, wait := c.producerOf(r)
		if wait {
			st.stalls |= stallDecodeFwd
			return false
		}
		got[n] = operand{reg: r, val: v, ok: found}
		n++
		if !found {
			need = append(need, r)
		}
	}
	var flagsIn isa.Flags
	if in.ReadsFlags() {
		fl, found, wait := c.flagsProducer()
		if wait {
			st.stalls |= stallDecodeFwd
			return false
		}
		if found {
			flagsIn = fl
		} else {
			flagsIn = c.threads[f.thread].Flags
		}
	}

	ready, acts := c.provider.Acquire(f.thread, in, need, probe)
	switch {
	case acts:
		return true
	case !ready:
		st.stalls |= stallDecodeReg
		return false
	case c.ex != nil:
		return false // structural: EX occupied
	case probe:
		return true
	}

	// Read non-forwarded values from the provider.
	for i := 0; i < n; i++ {
		if !got[i].ok {
			got[i].val = c.provider.ReadValue(f.thread, got[i].reg)
			got[i].ok = true
			if c.cfg.ValidateValues {
				want := c.threads[f.thread].Shadow(got[i].reg)
				if got[i].val != want {
					panic(fmt.Sprintf(
						"cpu: value corruption: thread %d %s = %#x, golden %#x (pc %d, %s)",
						f.thread, got[i].reg, got[i].val, want, f.pc, in))
				}
			}
		}
	}
	ops := got[:n]
	// Operand roles depend on the op; see isa.Inst.
	switch {
	case in.IsStore():
		f.valRd = operandVal(ops, in.Rd)
		f.valRn = operandVal(ops, in.Rn)
		f.valRm = operandVal(ops, in.Rm)
	case in.Op == isa.MOVK:
		f.valRn = operandVal(ops, in.Rd) // read-modify-write of Rd
	default:
		f.valRn = operandVal(ops, in.Rn)
		f.valRm = operandVal(ops, in.Rm)
		f.valRa = operandVal(ops, in.Ra)
	}
	f.flagsIn = flagsIn

	// Early redirect for unconditional direct branches.
	if in.Op == isa.B || in.Op == isa.BL {
		c.redirect(int(in.Target))
	}

	c.provider.InstDecoded(f.thread, f.seq, in)
	if c.tracer != nil {
		c.tracer.Emit(c.cycle, telemetry.EvStage, c.traceCore, int32(f.thread),
			telemetry.StageExecute, uint64(f.pc), f.seq)
	}
	c.ex = f
	c.dec = nil
	return false
}

// operand is one source value gathered at decode.
type operand struct {
	reg isa.Reg
	val uint64
	ok  bool
}

// operandVal returns the gathered value of r; XZR and registers the
// instruction does not read are zero.
func operandVal(ops []operand, r isa.Reg) uint64 {
	if r == isa.XZR {
		return 0
	}
	for i := range ops {
		if ops[i].reg == r {
			return ops[i].val
		}
	}
	return 0
}

// ---- fetch ----

func (c *Core) fetchStage(probe bool, st *step) bool {
	if c.cur < 0 || c.threads[c.cur].Halted {
		return false
	}
	// Move a ready slot into decode.
	if c.dec == nil && c.fetchQ.n > 0 && c.fetchReady(c.fetchQ.at(0)) {
		if probe {
			return true
		}
		pc := c.fetchQ.at(0).pc
		c.fetchQ.pop()
		th := &c.threads[c.cur]
		c.seq++
		f := c.freeRecord()
		*f = inflight{
			seq:    c.seq,
			thread: c.cur,
			pc:     pc,
			in:     th.Prog.At(pc),
		}
		c.dec = f
		if c.tracer != nil {
			c.tracer.Emit(c.cycle, telemetry.EvStage, c.traceCore, int32(c.cur),
				telemetry.StageDecode, uint64(pc), c.seq)
		}
	}
	// Issue icache requests for queued slots (one per cycle).
	if c.icache != nil {
		for i := 0; i < c.fetchQ.n; i++ {
			if s := c.fetchQ.at(i); !s.issued {
				if probe {
					return true
				}
				c.issueFetch(s)
				break
			}
		}
	}
	// Enqueue the next fetch. A full buffer stalls; with decode empty, its
	// unready fixed-latency head matures at readyAt.
	if c.fetchQ.n >= c.cfg.FetchBufSize {
		st.stalls |= stallFetch
		if c.dec == nil && c.icache == nil {
			st.wake = minDeadline(st.wake, c.fetchQ.at(0).readyAt)
		}
		return false
	}
	if probe {
		return true
	}
	c.fetchID++
	s := c.fetchQ.push()
	*s = fetchSlot{id: c.fetchID, pc: c.fetchPC,
		readyAt: c.cycle + uint64(c.cfg.FetchLatency)}
	if c.icache != nil {
		c.issueFetch(s)
	}
	c.fetchPC++
	return false
}

// fetchReady reports whether a fetch slot's instruction bytes are
// available to decode.
func (c *Core) fetchReady(s *fetchSlot) bool {
	if c.icache == nil {
		return s.readyAt <= c.cycle
	}
	return s.ready
}

// freeRecord returns an in-flight record no pipeline latch points at.
func (c *Core) freeRecord() *inflight {
	for i := range c.recs {
		if f := &c.recs[i]; f != c.dec && f != c.ex && f != c.mm && f != c.wb {
			return f
		}
	}
	panic("cpu: every in-flight record is latched")
}

// issueFetch sends an instruction-fetch request to the icache. A rejected
// request (port busy) retries on a later cycle.
func (c *Core) issueFetch(s *fetchSlot) {
	h := c.newFetchReq()
	h.slot = s.id
	h.req = mem.Request{
		Addr: c.threads[c.cur].ProgBase + mem.Addr(s.pc*isa.InstBytes),
		Size: isa.InstBytes,
		Kind: mem.Read,
		Inst: true,
		Done: h.done,
	}
	if c.icache.Access(&h.req) {
		s.issued = true
	} else {
		c.fetchFree = append(c.fetchFree, h)
	}
}

// newFetchReq takes a fetch holder off the free list.
func (c *Core) newFetchReq() *fetchReq {
	if n := len(c.fetchFree); n > 0 {
		h := c.fetchFree[n-1]
		c.fetchFree = c.fetchFree[:n-1]
		return h
	}
	// Free-list growth, bounded by the fetches in flight at once.
	h := &fetchReq{core: c}
	h.done = h.complete
	return h
}

// complete marks h's slot ready if the slot is still buffered; a slot
// dropped by a redirect or a switch matches nothing.
func (h *fetchReq) complete(uint64) {
	c := h.core
	c.fetchFree = append(c.fetchFree, h)
	for i := 0; i < c.fetchQ.n; i++ {
		if s := c.fetchQ.at(i); s.id == h.slot {
			s.ready = true
			return
		}
	}
}

// ---- context switching logic ----

// oldestInflight returns the oldest in-flight instruction.
func (c *Core) oldestInflight() *inflight {
	for _, f := range [...]*inflight{c.wb, c.mm, c.ex, c.dec} {
		if f != nil {
			return f
		}
	}
	return nil
}

func (c *Core) csl(probe bool, st *step) bool {
	if c.pendingSwitch == switchNone {
		return false
	}
	if c.cycle < c.pendingAt {
		st.wake = minDeadline(st.wake, c.pendingAt)
		return false
	}
	reason := c.pendingSwitch

	if reason == switchMiss {
		// The missing load may have completed while the switch was
		// masked; if so the switch is moot.
		if c.mm == nil || !c.mm.in.IsLoad() || c.mm.loadDone {
			if probe {
				return true
			}
			c.pendingSwitch = switchNone
			return false
		}
		// Mask 1: older long-running instructions must drain first — the
		// missing load must be the oldest in-flight instruction (the
		// rollback queue's oldest-is-memory signal).
		if c.oldestInflight() != c.mm {
			st.stalls |= stallSwitchWait
			return false
		}
		// Mask 3: the commit-stage signal stops the CSL from cycling
		// through threads when memory latency cannot be covered. A single
		// zero-commit switch is allowed (polling the next thread is how
		// switch-on-miss hides latency); once a full rotation happens
		// with no thread committing anything, hold the current thread
		// until its load returns instead of spinning.
		if !c.committedSinceSwitch && c.zeroCommitSwitches >= c.liveThreads()-1 {
			if probe {
				return true
			}
			c.pendingSwitch = switchNone
			c.Stats.SwitchCancels++
			return false
		}
	}

	// Mask 2: the BSI blocks switches during outstanding fills/spills.
	if c.provider.BlockSwitch() {
		st.stalls |= stallSwitchWait
		return false
	}

	next := c.successor(c.cur)
	if next < 0 || (next == c.cur && reason != switchStart) {
		if probe {
			return true
		}
		c.pendingSwitch = switchNone
		return false
	}
	th := &c.threads[next]
	if !th.Started {
		if probe {
			return true
		}
		th.Started = true
		c.provider.ThreadStarted(next)
	}
	ready, acts := c.provider.CanSwitchTo(next, probe)
	switch {
	case acts:
		return true
	case !ready:
		st.stalls |= stallSwitchWait
		return false
	case probe:
		return true
	}

	// Perform the switch.
	prev := c.cur
	if reason == switchMiss || reason == switchYield {
		c.flushPipeline(prev)
	}
	if prev >= 0 {
		c.provider.PipelineFlushed(prev)
	}
	c.provider.OnSwitch(prev, next, c.successor(next))
	c.cur = next
	c.fetchPC = th.PC
	c.fetchQ.clear()
	if c.committedSinceSwitch {
		c.zeroCommitSwitches = 0
	} else {
		c.zeroCommitSwitches++
	}
	c.committedSinceSwitch = false
	c.pendingSwitch = switchNone
	if reason != switchStart {
		c.Stats.ContextSwitches++
		c.switchInterval.Observe(c.cycle - c.lastSwitchCycle)
	}
	c.lastSwitchCycle = c.cycle
	if c.tracer != nil {
		var why uint64
		switch reason {
		case switchMiss:
			why = telemetry.SwitchLoadMiss
		case switchYield:
			why = telemetry.SwitchYield
		case switchHalt:
			why = telemetry.SwitchHalt
		default:
			why = telemetry.SwitchStart
		}
		c.tracer.Emit(c.cycle, telemetry.EvSwitch, c.traceCore, int32(next),
			uint64(int64(prev)), why, 0)
	}
	return false
}

// flushPipeline squashes all in-flight instructions and, when thread >= 0,
// rewinds that thread's PC to the oldest squashed instruction for replay.
func (c *Core) flushPipeline(thread int) {
	replayPC := -1
	// Scan oldest (WB) to youngest (decode): the replay point is the
	// oldest squashed instruction of the thread.
	for _, f := range [...]*inflight{c.wb, c.mm, c.ex, c.dec} {
		if f != nil && f.thread == thread && replayPC < 0 {
			replayPC = f.pc
		}
	}
	c.dec, c.ex, c.mm, c.wb = nil, nil, nil, nil
	if thread >= 0 {
		switch {
		case replayPC >= 0:
			c.threads[thread].PC = replayPC
		case c.fetchQ.n > 0:
			c.threads[thread].PC = c.fetchQ.at(0).pc
		default:
			c.threads[thread].PC = c.fetchPC
		}
	}
	c.fetchQ.clear()
}

// liveThreads returns the number of unhalted threads.
func (c *Core) liveThreads() int { return len(c.threads) - c.halted }

// successor returns the thread the CSL runs after t: the next live thread
// in round-robin order, counting from thread 0 when t is -1. It is t itself
// when t is the only live thread, and -1 when none is live. The CSL picks
// successor(c.cur) and OnSwitch hands providers successor(next), so the
// schedule is defined once.
func (c *Core) successor(t int) int {
	n := len(c.threads)
	if t < 0 {
		t = n - 1
	}
	for i := 1; i <= n; i++ {
		cand := (t + i) % n
		if !c.threads[cand].Halted {
			return cand
		}
	}
	return -1
}

// ---- store queue ----

func (c *Core) drainSQ(probe bool) bool {
	// Issue the oldest unsent store; the dcache port arbiter naturally
	// prioritizes loads because the MEM stage runs earlier in the cycle.
	for i := 0; i < c.sq.n; i++ {
		if e := c.sq.at(i); !e.sent {
			if probe {
				return true
			}
			e.req.Done = e.doneFn
			if c.dcache.Access(&e.req) {
				e.sent = true
			}
			break
		}
	}
	for c.sq.n > 0 && c.sq.at(0).done {
		if probe {
			return true
		}
		c.sq.pop()
	}
	return false
}

// ---- clock skip-ahead ----

// probe runs the stages in probe mode as a Tick at cycle at would see
// them, leaving the core's clock where it was. Nothing changes: the
// result says whether that cycle would act and, if not, which stall
// counters it would charge and when its earliest timed wait ends. The
// soundness argument lives in DESIGN.md §15.
func (c *Core) probe(at uint64) step {
	now := c.cycle
	c.cycle = at
	s := c.stages(true)
	c.cycle = now
	return s
}

// NextEvent reports the earliest future cycle at which ticking this core
// could do anything beyond a pure stall. ok=false means the core is fully
// passive: nothing changes until an external completion callback arrives
// (those are bounded by the memory devices' own NextEvent scans).
// ok=true with cycle==now+1 means the core must be ticked normally. The
// method is read-only; now must be the last ticked cycle.
func (c *Core) NextEvent(now uint64) (uint64, bool) {
	if c.Done() {
		return 0, false
	}
	s := c.probe(now + 1)
	switch {
	case s.acts:
		return now + 1, true
	case s.wake == 0:
		return 0, false
	}
	return s.wake, true
}

// SkipTo advances the core's clock from its current cycle to last (the
// final cycle of a skipped run), applying exactly the per-cycle effects
// normal ticking would have had: Stats.Cycles, the stall counters the
// probed cycle charges, the trace-clock stamp, and one provider Tick (a
// quiescent no-op that keeps the provider's cycle stamp in sync, so
// policy timestamps stay byte-identical with the unskipped run). The
// caller must have validated the run with NextEvent on every component:
// each cycle in (c.cycle, last] is a pure stall.
func (c *Core) SkipTo(last uint64) {
	if last <= c.cycle {
		return
	}
	if c.stamper != nil {
		c.stamper.StampCycle(last)
	}
	if c.Done() {
		c.cycle = last
		return
	}
	s := c.probe(c.cycle + 1)
	if s.acts {
		panic("cpu: SkipTo on a core that is not purely stalled")
	}
	n := last - c.cycle
	c.cycle = last
	c.Stats.Cycles += n
	c.count(s.stalls, n)
	c.provider.Tick(last)
}

// ---- telemetry ----

// cycleStamper is implemented by providers that timestamp their own trace
// events. The core feeds the stamp at the top of Tick — before any stage
// can call into the provider — so decode-driven provider events (register
// misses, victim selections) carry the exact emitting cycle even though
// the provider's own Tick runs last.
type cycleStamper interface{ StampCycle(uint64) }

// SetTelemetry attaches a cycle-level event tracer. A nil tracer keeps
// the emit paths disabled (one branch, zero allocations).
func (c *Core) SetTelemetry(tr *telemetry.Tracer, coreID int) {
	c.tracer = tr
	c.traceCore = int32(coreID)
	c.stamper = nil
	if tr != nil {
		if s, ok := c.provider.(cycleStamper); ok {
			c.stamper = s
		}
	}
}

// switchIntervalBuckets are the switch-interval histogram's bounds, shared
// by every core's histogram and never modified.
var switchIntervalBuckets = telemetry.Pow2Buckets(8, 12)

// sqBuckets are the store-queue occupancy bounds 0, 1, 2, ...: an n-entry
// queue uses the first n+1, so every depth shares one layout, never modified.
var sqBuckets = telemetry.LinearBuckets(0, 1, 64)

// sqOccupancyBuckets returns the occupancy bounds of an n-entry queue.
func sqOccupancyBuckets(n int) []uint64 {
	if n < len(sqBuckets) {
		return sqBuckets[: n+1 : n+1]
	}
	return telemetry.LinearBuckets(0, 1, n+1)
}

// RegisterMetrics wires the core's counters and histograms into a
// registry under prefix (e.g. "core0"). Counters alias the Stats fields,
// so registered metrics reconcile exactly with the reported tables.
func (c *Core) RegisterMetrics(r *telemetry.Registry, prefix string) {
	r.Stats(prefix, &c.Stats)
	c.switchInterval = r.Histogram(telemetry.Name(prefix, "/switch_interval_cycles"), switchIntervalBuckets)
	c.sqOccupancy = r.Histogram(telemetry.Name(prefix, "/sq_occupancy"), sqOccupancyBuckets(c.cfg.SQEntries))
}

// ---- diagnostics & invariants (the hardening layer's window) ----

func stageStr(f *inflight) string {
	if f == nil {
		return "-"
	}
	return fmt.Sprintf("{t%d pc=%d %s}", f.thread, f.pc, f.in)
}

// DebugDump renders the core's scheduling and pipeline state for
// diagnostic reports (watchdog dumps, crash errors): the running thread,
// pending-switch state, stage occupancy, and per-thread PC/progress.
func (c *Core) DebugDump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cur=t%d live=%d/%d pendingSwitch=%d zeroCommitSwitches=%d fetchQ=%d/%d sq=%d/%d\n",
		c.cur, c.liveThreads(), len(c.threads), c.pendingSwitch, c.zeroCommitSwitches,
		c.fetchQ.n, c.cfg.FetchBufSize, c.sq.n, c.cfg.SQEntries)
	fmt.Fprintf(&b, "stages: dec=%s ex=%s mem=%s wb=%s\n",
		stageStr(c.dec), stageStr(c.ex), stageStr(c.mm), stageStr(c.wb))
	for i := range c.threads {
		t := &c.threads[i]
		state := "ready"
		switch {
		case t.Halted:
			state = "halted"
		case t.ID == c.cur:
			state = "running"
		case !t.Started:
			state = "not-started"
		}
		fmt.Fprintf(&b, "t%d: pc=%d %s insts=%d\n", t.ID, t.PC, state, c.Stats.InstsPerThread[t.ID])
	}
	return b.String()
}

// CheckInvariants validates the pipeline's structural bounds — the fetch
// buffer and store queue must never exceed their configured sizes, the
// halted count must agree with the per-thread flags, and the running
// thread must be a real live thread. Returns "" when everything holds.
func (c *Core) CheckInvariants() string {
	if c.fetchQ.n > c.cfg.FetchBufSize {
		return fmt.Sprintf("fetch buffer holds %d slots, limit %d", c.fetchQ.n, c.cfg.FetchBufSize)
	}
	if c.sq.n > c.cfg.SQEntries {
		return fmt.Sprintf("store queue holds %d entries, limit %d", c.sq.n, c.cfg.SQEntries)
	}
	halted := 0
	for i := range c.threads {
		if c.threads[i].Halted {
			halted++
		}
	}
	if halted != c.halted {
		return fmt.Sprintf("halted counter %d disagrees with %d halted threads", c.halted, halted)
	}
	if c.cur < -1 || c.cur >= len(c.threads) {
		return fmt.Sprintf("running thread %d out of range", c.cur)
	}
	return ""
}
