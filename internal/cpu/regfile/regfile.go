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
	"math"

	"github.com/virec/virec/internal/cpu"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/telemetry"
)

// base carries the plumbing every provider needs. It holds no schedule
// state: the core names the successor in OnSwitch and reports each halt
// through ThreadHalted.
type base struct {
	memory   *mem.Memory
	layout   cpu.RegLayout
	nThreads int
}

func newBase(memory *mem.Memory, layout cpu.RegLayout, nThreads int) base {
	return base{memory: memory, layout: layout, nThreads: nThreads}
}

// Each provider type keeps the released providers of its type in a pool,
// and its constructor rebuilds one of them with a single struct literal:
// what carries over is storage whose size is checked (through resized or
// newBSI) and request holders bound to it; everything else starts from
// zero, so no state of the old system survives the rebuild.

// resized returns s cut to n zeroed elements, or a new slice when s holds
// fewer than n.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
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

	// run is the number of ops an opQueue entry stands for: the entry's op
	// and its copies at addr+8, addr+16, and so on. Ops outside a queue
	// have run 0.
	run uint16
	reg isa.Reg

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
// so a steady state of queued traffic allocates nothing. One entry holds a
// run of ops equal in every field but addr, which steps by one register
// (8 bytes): a full-context store-back is one entry, not 65. Runs change
// only how the ops are held, never which ops come out or in what order.
type opQueue struct {
	buf     []bsiOp
	head    int
	entries int // ring slots in use
	n       int // ops queued
}

// emptied returns an empty queue on q's ring. An op holds no pointers, so
// the ring is not cleared.
func (q *opQueue) emptied() opQueue { return opQueue{buf: q.buf} }

func (q *opQueue) push(op bsiOp) {
	q.n++
	if q.entries > 0 {
		tail := &q.buf[(q.head+q.entries-1)%len(q.buf)]
		same := op
		same.addr, same.run = tail.addr, tail.run
		if op.addr == tail.addr+8*mem.Addr(tail.run) && tail.run < math.MaxUint16 && same == *tail {
			tail.run++
			return
		}
	}
	if q.entries == len(q.buf) {
		q.grow()
	}
	op.run = 1
	q.buf[(q.head+q.entries)%len(q.buf)] = op
	q.entries++
}

// front returns the oldest op; the queue must be non-empty.
func (q *opQueue) front() bsiOp {
	op := q.buf[q.head]
	op.run = 0
	return op
}

// pop removes the oldest op.
func (q *opQueue) pop() {
	q.n--
	if h := &q.buf[q.head]; h.run > 1 {
		h.addr += 8
		h.run--
		return
	}
	q.head = (q.head + 1) % len(q.buf)
	q.entries--
}

func (q *opQueue) grow() {
	// Queue growth, bounded by the most runs a simulation's backlog holds.
	buf := make([]bsiOp, max(8, 2*len(q.buf)))
	for i := 0; i < q.entries; i++ {
		buf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf, q.head = buf, 0
}

// bsiReq is a recycled dcache request carrying one issued op. It returns
// to its bsi's free list inside its own completion, or at once when the
// dcache rejects it, so a port-busy retry reuses the same request. It is
// bound to its bsi for good.
type bsiReq struct {
	req      mem.Request
	b        *bsi
	next     *bsiReq // the holder below this one on a free list
	op       bsiOp
	issuedAt uint64
	track    bool         // observe fill latency / trace the fill's return
	done     func(uint64) // complete, bound once
}

func (h *bsiReq) complete(cy uint64) {
	b, op, issuedAt, track := h.b, h.op, h.issuedAt, h.track
	b.putReq(h)
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
// to the dcache, one per cycle, loads before stores (fills are on the
// critical path). A blocking BSI allows one outstanding transaction; the
// non-blocking BSI pipelines them (Section 5.3).
type bsi struct {
	dcache      mem.Device
	owner       bsiOwner
	loads       opQueue
	stores      opQueue
	free        *bsiReq // a stack of idle holders, linked through next
	outstanding int
	nonBlocking bool

	// Telemetry (nil when disabled; Emit/Observe are nil-safe).
	tracer    *telemetry.Tracer
	traceCore int32
	fillLat   *telemetry.Histogram

	// Stats
	FillsIssued  uint64
	SpillsIssued uint64
}

// newBSI builds a BSI into b, a released provider's BSI, or into a new one
// when b is nil. A rebuilt BSI keeps its idle holders and its queue rings
// and starts with nothing queued or outstanding. A holder still lent to the
// old system's dcache is on no free list, so it is never issued again.
func newBSI(b *bsi, dcache mem.Device, nonBlocking bool, owner bsiOwner) *bsi {
	if b == nil {
		b = new(bsi)
	}
	*b = bsi{dcache: dcache, owner: owner, nonBlocking: nonBlocking, free: b.free,
		loads: b.loads.emptied(), stores: b.stores.emptied()}
	return b
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
	h := b.free
	if h == nil {
		// Free-list growth, bounded by the transactions in flight at once.
		h = &bsiReq{b: b}
		h.done = h.complete
	}
	b.free, h.next = h.next, nil
	return h
}

// putReq pushes an idle holder onto the free list.
func (b *bsi) putReq(h *bsiReq) { h.next, b.free = b.free, h }

// Tick issues the oldest queued transaction to the dcache, loads first.
func (b *bsi) Tick(cycle uint64) {
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
	h.op = op
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
		b.putReq(h)
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
}
