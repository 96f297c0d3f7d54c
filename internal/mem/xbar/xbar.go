// Package xbar models the system crossbar that connects near-memory
// processors to the memory controller. It adds a fixed traversal latency
// in each direction and enforces a per-cycle bandwidth limit; under high
// system activity (Figure 11) the shared link becomes a contention point
// alongside the DRAM banks.
package xbar

import (
	"sync"

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
	r.Gauge(telemetry.Name(prefix, "/max_queue"), x.maxQueueGauge)
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
	x.respQ.Push(c+uint64(x.cfg.Latency), orig)
}

// Xbar forwards requests to a lower-level device after its traversal
// latency, and delays responses by the same latency on the way back.
// It implements mem.Device.
type Xbar struct {
	cfg   Config
	below mem.Device
	inQ   mem.EventQueue[*mem.Request] // requests in flight toward the controller
	respQ mem.EventQueue[func(uint64)] // requesters' Dones in flight back to the cores
	ready []*mem.Request               // arrived, awaiting forwarding bandwidth
	free  []*forward                   // forward holders not in flight
	now   uint64

	maxQueueGauge func() float64 // bound once

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
	x, _ := xbarPool.Get().(*Xbar)
	if x == nil {
		x = new(Xbar)
		x.maxQueueGauge = func() float64 { return float64(x.Stats.MaxQueue) }
	}
	clear(x.ready)
	*x = Xbar{cfg: cfg, below: below, inQ: x.inQ.Emptied(), respQ: x.respQ.Emptied(),
		ready: x.ready[:0], free: x.free, maxQueueGauge: x.maxQueueGauge}
	return x
}

// xbarPool holds released crossbars. New rebuilds one with its idle
// forward holders and its queues' storage, and nothing queued or in
// flight: those requests are dropped, never completed.
var xbarPool sync.Pool

// Release hands the crossbar to the next New, once nothing uses it.
func (x *Xbar) Release() { xbarPool.Put(x) }

// Access accepts a request for traversal. Returns false under
// back-pressure (full queue).
func (x *Xbar) Access(r *mem.Request) bool {
	if x.inQ.Len()+len(x.ready) >= x.cfg.QueueDepth {
		x.Stats.Rejected++
		return false
	}
	x.inQ.Push(x.now+uint64(x.cfg.Latency), r)
	if q := x.inQ.Len() + len(x.ready); q > x.Stats.MaxQueue {
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
	// Free-list growth, bounded by the requests below the crossbar at once.
	f := &forward{x: x}
	f.done = f.complete
	return f
}

// Tick moves arrived requests to the controller (bounded per cycle) and
// delivers delayed responses.
func (x *Xbar) Tick(cycle uint64) {
	x.now = cycle
	for x.respQ.Due(cycle) {
		at, done := x.respQ.Pop()
		done(at)
	}
	for x.inQ.Due(cycle) {
		_, r := x.inQ.Pop()
		x.ready = append(x.ready, r)
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
	ev, ok := x.inQ.Next(now)
	if resp, rok := x.respQ.Next(now); rok && (!ok || resp < ev) {
		ev, ok = resp, true
	}
	return ev, ok
}

// Idle reports whether nothing is in flight through the crossbar.
func (x *Xbar) Idle() bool {
	return x.inQ.Len() == 0 && x.respQ.Len() == 0 && len(x.ready) == 0
}
