// Package xbar models the system crossbar that connects near-memory
// processors to the memory controller. It adds a fixed traversal latency
// in each direction and enforces a per-cycle bandwidth limit; under high
// system activity (Figure 11) the shared link becomes a contention point
// alongside the DRAM banks.
package xbar

import (
	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/telemetry"
)

// Config parameterizes the crossbar.
type Config struct {
	Latency    int // one-way traversal cycles
	PerCycle   int // requests forwarded to the memory controller per cycle
	QueueDepth int // buffered requests before back-pressure
}

// DefaultConfig returns the crossbar used by the evaluation: a short
// on-die interconnect between the near-memory cores and the controller.
func DefaultConfig() Config {
	return Config{Latency: 6, PerCycle: 2, QueueDepth: 64}
}

// Stats accumulates crossbar statistics. Each uint64 field is a counter,
// registered under its metric tag by RegisterMetrics.
type Stats struct {
	Forwarded uint64 `metric:"forwarded"`
	Rejected  uint64 `metric:"rejected"`
	MaxQueue  int
}

// RegisterMetrics wires the crossbar's counters into a telemetry registry
// under prefix (e.g. "xbar"). Counters alias the Stats fields.
func (x *Xbar) RegisterMetrics(r *telemetry.Registry, prefix string) {
	r.Stats(prefix, &x.Stats)
	r.Gauge(prefix+"/max_queue", func() float64 { return float64(x.Stats.MaxQueue) })
}

// event is one traversal in flight: a request toward the controller, or a
// response carrying the original completion back to the requester.
type event struct {
	cycle uint64
	seq   uint64
	req   *mem.Request // inQ
	done  func(uint64) // respQ
}

// eventHeap is a hand-rolled min-heap ordered by (cycle, seq); seq is
// unique so pops are deterministic. Monomorphic sift routines avoid the
// per-event interface boxing container/heap would add.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].cycle != h[j].cycle {
		return h[i].cycle < h[j].cycle
	}
	return h[i].seq < h[j].seq
}

//virec:hotpath
func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

//virec:hotpath
func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // drop the request and completion references for the GC
	s = s[:n]
	*h = s
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && s.less(l, smallest) {
			smallest = l
		}
		if r < n && s.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return top
}

// forward is a recycled copy of a request passed to the controller. Its
// completion queues the original's Done for the return traversal, then
// puts the holder back on the crossbar's free list.
type forward struct {
	req  mem.Request
	x    *Xbar
	orig func(uint64) // the requester's Done
	done func(uint64) // complete, bound once
}

func (f *forward) complete(c uint64) {
	x, orig := f.x, f.orig
	f.orig = nil
	x.free = append(x.free, f)
	if orig == nil {
		return
	}
	x.seq++
	x.respQ.push(event{cycle: c + uint64(x.cfg.Latency), seq: x.seq, done: orig})
}

// Xbar forwards requests to a lower-level device after its traversal
// latency, and delays responses by the same latency on the way back.
// It implements mem.Device.
type Xbar struct {
	cfg   Config
	below mem.Device
	inQ   eventHeap      // requests in flight toward the controller
	respQ eventHeap      // responses in flight back to the cores
	ready []*mem.Request // arrived, awaiting forwarding bandwidth
	free  []*forward     // forward holders not in flight
	seq   uint64
	now   uint64

	// Stats is exported read-only for reporting.
	Stats Stats
}

// New builds a crossbar over the lower-level device.
func New(cfg Config, below mem.Device) *Xbar {
	def := DefaultConfig()
	if cfg.Latency == 0 {
		cfg.Latency = def.Latency
	}
	if cfg.PerCycle == 0 {
		cfg.PerCycle = def.PerCycle
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = def.QueueDepth
	}
	return &Xbar{cfg: cfg, below: below}
}

// Access accepts a request for traversal. Returns false under
// back-pressure (full queue).
func (x *Xbar) Access(r *mem.Request) bool {
	if len(x.inQ)+len(x.ready) >= x.cfg.QueueDepth {
		x.Stats.Rejected++
		return false
	}
	x.seq++
	x.inQ.push(event{cycle: x.now + uint64(x.cfg.Latency), seq: x.seq, req: r})
	if q := len(x.inQ) + len(x.ready); q > x.Stats.MaxQueue {
		x.Stats.MaxQueue = q
	}
	return true
}

// newForward takes a forward holder off the free list.
func (x *Xbar) newForward() *forward {
	if n := len(x.free); n > 0 {
		f := x.free[n-1]
		x.free = x.free[:n-1]
		return f
	}
	//virec:alloc-ok free-list growth, bounded by the requests below the crossbar at once
	f := &forward{x: x}
	f.done = f.complete
	return f
}

// Tick moves arrived requests to the controller (bounded per cycle) and
// delivers delayed responses.
//
//virec:hotpath
func (x *Xbar) Tick(cycle uint64) {
	x.now = cycle
	for len(x.respQ) > 0 && x.respQ[0].cycle <= cycle {
		ev := x.respQ.pop()
		ev.done(ev.cycle)
	}
	for len(x.inQ) > 0 && x.inQ[0].cycle <= cycle {
		x.ready = append(x.ready, x.inQ.pop().req)
	}
	forwarded := 0
	for forwarded < len(x.ready) && forwarded < x.cfg.PerCycle {
		r := x.ready[forwarded]
		f := x.newForward()
		f.req = *r
		f.req.Done = f.done
		f.orig = r.Done
		if !x.below.Access(&f.req) {
			f.orig = nil
			x.free = append(x.free, f)
			break
		}
		forwarded++
		x.Stats.Forwarded++
	}
	if forwarded > 0 {
		n := copy(x.ready, x.ready[forwarded:])
		clear(x.ready[n:])
		x.ready = x.ready[:n]
	}
}

// NextEvent reports the earliest future cycle at which Tick would do real
// work, assuming no intervening accesses: arrived requests awaiting
// forwarding bandwidth retry every cycle; otherwise the earliest in-flight
// traversal (either direction) matures. ok=false means the crossbar is
// idle. Read-only; now must be the last ticked cycle.
func (x *Xbar) NextEvent(now uint64) (uint64, bool) {
	if len(x.ready) > 0 {
		return now + 1, true
	}
	ev, ok := uint64(0), false
	if len(x.inQ) > 0 {
		ev, ok = x.inQ[0].cycle, true
	}
	if len(x.respQ) > 0 && (!ok || x.respQ[0].cycle < ev) {
		ev, ok = x.respQ[0].cycle, true
	}
	if ok && ev <= now {
		ev = now + 1
	}
	return ev, ok
}

// Idle reports whether nothing is in flight through the crossbar.
func (x *Xbar) Idle() bool {
	return len(x.inQ) == 0 && len(x.respQ) == 0 && len(x.ready) == 0
}
