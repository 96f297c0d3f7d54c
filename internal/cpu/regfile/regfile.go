// Package regfile provides the four register-context storage providers
// behind the cpu.Provider interface, corresponding to the processor
// configurations evaluated in the ViReC paper:
//
//   - Banked: one full register bank per hardware thread (the paper's
//     "banked core" baseline). Zero-cost context switches, large area.
//   - Software: a single register bank; contexts are saved and restored
//     through the dcache on every switch (Figure 3a).
//   - ViReC: the paper's contribution — a small physical register file
//     used as a cache for partial contexts, managed by the VRMU with the
//     LRC replacement policy and a backing store interface (Figure 3c).
//   - Prefetch: two banks used as double buffers with full-context or
//     oracle exact-context prefetching (the comparison in Figure 9).
//
// All providers move register state through the same reserved backing
// memory region (cpu.RegLayout) so their traffic is directly comparable.
package regfile

import (
	"github.com/virec/virec/internal/cpu"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/telemetry"
)

// base carries the plumbing every provider needs.
type base struct {
	dcache   mem.Device
	memory   *mem.Memory
	layout   cpu.RegLayout
	nThreads int
	halted   []bool
}

func newBase(dcache mem.Device, memory *mem.Memory, layout cpu.RegLayout, nThreads int) base {
	return base{
		dcache:   dcache,
		memory:   memory,
		layout:   layout,
		nThreads: nThreads,
		halted:   make([]bool, nThreads),
	}
}

// nextOf returns the round-robin successor of thread t among live
// threads, or -1 when none remain.
func (b *base) nextOf(t int) int {
	for i := 1; i <= b.nThreads; i++ {
		cand := (t + i) % b.nThreads
		if !b.halted[cand] {
			return cand
		}
	}
	return -1
}

// liveThreads returns the number of unhalted threads.
func (b *base) liveThreads() int {
	n := 0
	for _, h := range b.halted {
		if !h {
			n++
		}
	}
	return n
}

// bsiOp is one register transaction queued at the backing store interface.
// Ops are queued by value; when the transaction lands, the bsi hands the op
// back to its owning provider, which runs the completion named by done.
// Fields run from widest to narrowest, so an op packs into 24 bytes.
type bsiOp struct {
	addr mem.Addr

	// The (thread, register) the transaction moves: telemetry attribution
	// and completion target. slot is the physical register, bank or
	// ping-pong buffer slot the completion updates.
	thread int32
	slot   int32
	reg    isa.Reg

	kind   mem.Kind
	noCrit bool // metadata-only (dummy-destination bookkeeping)
	sticky bool // sticky-pin the line (system registers)
	unpin  bool // release a sticky pin (thread halt)
	done   opDone
}

// opDone names the completion an op runs when it lands. Each provider
// interprets the kinds it issues in its bsiDone method.
type opDone uint8

const (
	doneNone    opDone = iota // nobody waits (spills, metadata-only traffic)
	doneFill                  // install the loaded register value
	doneSysregs               // ViReC: a system-register line is buffered
	doneDemand                // Prefetch: an on-demand fill for an oracle miss
	doneCount                 // a counted transfer drained
)

// bsiOwner is the provider a bsi reports completions to.
type bsiOwner interface {
	bsiDone(op bsiOp)
}

// opQueue is a FIFO of ops held by value in a ring that grows by doubling,
// so a steady state of queued traffic allocates nothing.
type opQueue struct {
	buf  []bsiOp
	head int
	n    int
}

func (q *opQueue) push(op bsiOp) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = op
	q.n++
}

// front returns the oldest op; the queue must be non-empty.
func (q *opQueue) front() *bsiOp { return &q.buf[q.head] }

// pop removes the oldest op.
func (q *opQueue) pop() {
	q.head = (q.head + 1) % len(q.buf)
	q.n--
}

func (q *opQueue) grow() {
	//virec:alloc-ok queue growth, bounded by the deepest backlog of a run
	buf := make([]bsiOp, max(8, 2*len(q.buf)))
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf, q.head = buf, 0
}

// bsiReq is a recycled dcache request carrying one issued op. It returns
// to its bsi's free list inside its own completion, or at once when the
// dcache rejects it, so a port-busy retry reuses the same request.
type bsiReq struct {
	req      mem.Request
	b        *bsi
	op       bsiOp
	issuedAt uint64
	track    bool         // observe fill latency / trace the fill's return
	done     func(uint64) // complete, bound once
}

func (h *bsiReq) complete(cy uint64) {
	b, op, issuedAt, track := h.b, h.op, h.issuedAt, h.track
	b.free = append(b.free, h)
	b.outstanding--
	if track {
		b.fillLat.Observe(cy - issuedAt)
		if b.tracer != nil {
			b.tracer.Emit(cy, telemetry.EvFillDone, b.traceCore, op.thread,
				uint64(op.addr), cy-issuedAt, uint64(op.reg))
		}
	}
	if op.done != doneNone {
		b.owner.bsiDone(op)
	}
}

// bsi is the backing store interface: it issues register loads and stores
// to the dcache, loads before stores (fills are on the critical path),
// with a configurable issue width. A blocking BSI allows one outstanding
// transaction; the non-blocking BSI pipelines them (Section 5.3).
type bsi struct {
	dcache      mem.Device
	owner       bsiOwner
	loads       opQueue
	stores      opQueue
	free        []*bsiReq
	outstanding int
	nonBlocking bool
	perCycle    int

	// Telemetry (nil when disabled; Emit/Observe are nil-safe).
	tracer    *telemetry.Tracer
	traceCore int32
	fillLat   *telemetry.Histogram

	// Stats
	FillsIssued  uint64
	SpillsIssued uint64
}

func newBSI(dcache mem.Device, nonBlocking bool, owner bsiOwner) *bsi {
	return &bsi{dcache: dcache, owner: owner, nonBlocking: nonBlocking, perCycle: 1}
}

func (b *bsi) pushLoad(op bsiOp)  { b.loads.push(op) }
func (b *bsi) pushStore(op bsiOp) { b.stores.push(op) }

// Outstanding reports queued plus in-flight transactions; the CSL masks
// context switches while it is non-zero.
func (b *bsi) Outstanding() int {
	return b.loads.n + b.stores.n + b.outstanding
}

// quiet reports whether Tick would be a pure no-op: nothing is queued for
// issue. In-flight transactions (outstanding > 0) complete through dcache
// callbacks and need no BSI ticks, so they do not block clock skip-ahead.
func (b *bsi) quiet() bool { return b.loads.n == 0 && b.stores.n == 0 }

// newReq takes a request holder off the free list.
func (b *bsi) newReq() *bsiReq {
	if n := len(b.free); n > 0 {
		h := b.free[n-1]
		b.free = b.free[:n-1]
		return h
	}
	//virec:alloc-ok free-list growth, bounded by the transactions in flight at once
	h := &bsiReq{b: b}
	h.done = h.complete
	return h
}

// Tick issues queued transactions to the dcache, loads first.
//
//virec:hotpath
func (b *bsi) Tick(cycle uint64) {
	issued := 0
	for issued < b.perCycle {
		if !b.nonBlocking && b.outstanding > 0 {
			return
		}
		q, fromLoads := &b.loads, true
		if q.n == 0 {
			q, fromLoads = &b.stores, false
			if q.n == 0 {
				return
			}
		}
		op := q.front()
		h := b.newReq()
		h.op = *op
		h.issuedAt = cycle
		h.track = fromLoads && !op.noCrit && (b.fillLat != nil || b.tracer != nil)
		h.req = mem.Request{
			Addr:         op.addr,
			Size:         8,
			Kind:         op.kind,
			RegisterFill: true,
			NoCritical:   op.noCrit,
			PinSticky:    op.sticky,
			Unpin:        op.unpin,
			Done:         h.done,
		}
		if !b.dcache.Access(&h.req) {
			b.free = append(b.free, h)
			return // dcache port busy (LSQ has priority); retry next cycle
		}
		b.outstanding++
		q.pop()
		if fromLoads {
			b.FillsIssued++
			if b.tracer != nil {
				b.tracer.Emit(cycle, telemetry.EvFill, b.traceCore, h.op.thread,
					uint64(h.op.addr), uint64(h.op.reg), 0)
			}
		} else {
			b.SpillsIssued++
			if b.tracer != nil {
				b.tracer.Emit(cycle, telemetry.EvSpill, b.traceCore, h.op.thread,
					uint64(h.op.addr), uint64(h.op.reg), 0)
			}
		}
		issued++
	}
}
