// Package dram models a DDR5-flavoured main memory: multiple channels,
// banks with open-row state, tRP/tRCD/tCL timing and a shared per-channel
// data bus. It reproduces the two behaviours the ViReC evaluation depends
// on — a realistic idle latency and latency that grows under load
// (Figure 11's system-activity sweep) — without simulating command-level
// DRAM protocol.
//
// All timing is expressed in core cycles (1 GHz in the paper's setup).
package dram

import (
	"fmt"
	"sync"

	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/telemetry"
)

// Config parameterizes the memory model. The defaults follow the paper's
// Table 1: DDR5_6400, 1 rank, 2 channels, tRP-tCL-tRCD = 14-14-14.
type Config struct {
	Channels    int // independent channels
	BanksPerCh  int // banks usable in parallel per channel
	RowBytes    int // row-buffer size per bank
	TRP         int // precharge, core cycles
	TRCD        int // activate, core cycles
	TCL         int // CAS latency, core cycles
	TRC         int // row cycle: min time between activates of one bank
	TFAW        int // four-activate window per channel
	TBurst      int // data-bus occupancy per 64B line, core cycles
	CtrlLatency int // controller front-end latency, core cycles
	QueueDepth  int // per-channel request queue entries
	WindowSize  int // how deep FCFS-with-bank-bypass scans the queue
}

// DefaultConfig returns the Table-1 memory configuration.
func DefaultConfig() Config {
	return Config{
		Channels:    2,
		BanksPerCh:  16,
		RowBytes:    8192,
		TRP:         14,
		TRCD:        14,
		TCL:         14,
		TRC:         46,
		TFAW:        20,
		TBurst:      4,
		CtrlLatency: 10,
		QueueDepth:  64,
		WindowSize:  16,
	}
}

// Stats accumulates memory-controller statistics. Each field is a
// counter, registered under its metric tag by RegisterMetrics.
type Stats struct {
	Reads        uint64 `metric:"reads"`
	Writes       uint64 `metric:"writes"`
	RowHits      uint64 `metric:"row_hits"`
	RowMisses    uint64 `metric:"row_misses"`         // bank closed
	RowConflicts uint64 `metric:"row_conflicts"`      // wrong row open
	TotalLatency uint64 `metric:"total_read_latency"` // sum of read latencies (cycles)
	Rejected     uint64 `metric:"rejected"`           // accesses refused because a queue was full
}

// AvgReadLatency returns the mean read latency in cycles.
func (s *Stats) AvgReadLatency() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.TotalLatency) / float64(s.Reads)
}

// RegisterMetrics wires the controller's counters into a telemetry
// registry under prefix (e.g. "dram"). Counters alias the Stats fields.
func (d *DRAM) RegisterMetrics(r *telemetry.Registry, prefix string) {
	r.Stats(prefix, &d.Stats)
	r.Gauge(telemetry.Name(prefix, "/avg_read_latency"), d.latencyGauge)
	r.Gauge(telemetry.Name(prefix, "/queue_occupancy"), d.queueGauge)
}

type bank struct {
	openRow   int64 // -1 when closed
	busyUntil uint64
}

type channel struct {
	queue   []entry // held by value, so enqueueing allocates nothing
	banks   []bank
	busFree uint64 // first cycle the data bus is free
	// acts holds the last four activate times (tFAW sliding window),
	// initialized far in the past.
	acts [4]int64
}

type entry struct {
	req     *mem.Request
	arrived uint64
}

// completion is an issued access on its way back to the requester.
type completion struct {
	req   *mem.Request
	read  bool
	start uint64 // arrival cycle, for the read-latency sum
}

// DRAM is the memory controller plus channels. It implements mem.Device.
type DRAM struct {
	cfg      Config
	channels []channel
	pending  mem.EventQueue[completion]
	now      uint64

	// The gauges' funcs, bound once.
	latencyGauge, queueGauge func() float64

	// Stats is exported read-only for reporting.
	Stats Stats
}

// New constructs a DRAM from cfg, filling zero fields from DefaultConfig.
func New(cfg Config) *DRAM {
	def := DefaultConfig()
	if cfg.Channels == 0 {
		cfg.Channels = def.Channels
	}
	if cfg.BanksPerCh == 0 {
		cfg.BanksPerCh = def.BanksPerCh
	}
	if cfg.RowBytes == 0 {
		cfg.RowBytes = def.RowBytes
	}
	if cfg.TRP == 0 {
		cfg.TRP = def.TRP
	}
	if cfg.TRCD == 0 {
		cfg.TRCD = def.TRCD
	}
	if cfg.TCL == 0 {
		cfg.TCL = def.TCL
	}
	if cfg.TRC == 0 {
		cfg.TRC = def.TRC
	}
	if cfg.TFAW == 0 {
		cfg.TFAW = def.TFAW
	}
	if cfg.TBurst == 0 {
		cfg.TBurst = def.TBurst
	}
	if cfg.CtrlLatency == 0 {
		cfg.CtrlLatency = def.CtrlLatency
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = def.QueueDepth
	}
	if cfg.WindowSize == 0 {
		cfg.WindowSize = def.WindowSize
	}
	d, _ := dramPool.Get().(*DRAM)
	if d == nil {
		d = new(DRAM)
		d.latencyGauge = d.Stats.AvgReadLatency
		d.queueGauge = func() float64 { return float64(d.QueueOccupancy()) }
	}
	channels := d.channels
	if len(channels) != cfg.Channels {
		channels = make([]channel, cfg.Channels)
	}
	for i := range channels {
		c := &channels[i]
		banks := c.banks
		if len(banks) != cfg.BanksPerCh {
			banks = make([]bank, cfg.BanksPerCh)
		}
		for b := range banks {
			banks[b] = bank{openRow: -1}
		}
		clear(c.queue)
		*c = channel{queue: c.queue[:0], banks: banks, acts: [4]int64{-1 << 40, -1 << 40, -1 << 40, -1 << 40}}
	}
	*d = DRAM{cfg: cfg, channels: channels, pending: d.pending.Emptied(),
		latencyGauge: d.latencyGauge, queueGauge: d.queueGauge}
	return d
}

// dramPool holds released controllers. New rebuilds one with its channel,
// bank and queue storage, every bank closed and nothing queued or in
// flight: those requests are dropped, never completed.
var dramPool sync.Pool

// Release hands the controller to the next New, once nothing uses it.
func (d *DRAM) Release() { dramPool.Put(d) }

// route maps a line address to (channel, bank, row). Channel bits come
// from the line address so sequential lines interleave across channels.
func (d *DRAM) route(a mem.Addr) (ch, bk int, row int64) {
	line := uint64(a) / mem.LineBytes
	ch = int(line % uint64(d.cfg.Channels))
	line /= uint64(d.cfg.Channels)
	bk = int(line % uint64(d.cfg.BanksPerCh))
	line /= uint64(d.cfg.BanksPerCh)
	linesPerRow := uint64(d.cfg.RowBytes / mem.LineBytes)
	row = int64(line / linesPerRow)
	return ch, bk, row
}

// Access enqueues a request. It returns false when the channel queue is
// full; the caller must retry.
func (d *DRAM) Access(r *mem.Request) bool {
	ch, _, _ := d.route(r.Addr)
	c := &d.channels[ch]
	if len(c.queue) >= d.cfg.QueueDepth {
		d.Stats.Rejected++
		return false
	}
	c.queue = append(c.queue, entry{req: r, arrived: d.now})
	return true
}

// Tick advances the controller one core cycle: it retires due completions
// and issues at most one request per channel using FCFS with bank-bypass
// (the first queued request whose bank and bus are available goes next,
// which exposes bank-level parallelism without full FR-FCFS reordering).
func (d *DRAM) Tick(cycle uint64) {
	d.now = cycle
	for d.pending.Due(cycle) {
		at, c := d.pending.Pop()
		if c.read {
			d.Stats.TotalLatency += at - c.start
		}
		c.req.Complete(at)
	}
	for ci := range d.channels {
		d.issueOne(ci, cycle)
	}
}

func (d *DRAM) issueOne(ci int, cycle uint64) {
	c := &d.channels[ci]
	window := len(c.queue)
	if window > d.cfg.WindowSize {
		window = d.cfg.WindowSize
	}
	for qi := 0; qi < window; qi++ {
		e := &c.queue[qi]
		_, bk, row := d.route(e.req.Addr)
		b := &c.banks[bk]
		if b.busyUntil > cycle || c.busFree > cycle {
			continue
		}
		needsActivate := b.openRow != row
		if needsActivate && c.acts[0]+int64(d.cfg.TFAW) > int64(cycle) {
			// Four-activate window exhausted: no activate this cycle.
			continue
		}
		// Issue this request.
		var access uint64
		activated := false
		switch {
		case b.openRow == row:
			d.Stats.RowHits++
			access = uint64(d.cfg.TCL)
		case b.openRow == -1:
			d.Stats.RowMisses++
			access = uint64(d.cfg.TRCD + d.cfg.TCL)
			activated = true
		default:
			d.Stats.RowConflicts++
			access = uint64(d.cfg.TRP + d.cfg.TRCD + d.cfg.TCL)
			activated = true
		}
		if activated {
			copy(c.acts[:3], c.acts[1:])
			c.acts[3] = int64(cycle)
		}
		b.openRow = row
		done := cycle + access + uint64(d.cfg.TBurst)
		b.busyUntil = done
		if activated {
			// The bank cannot re-activate until the row cycle elapses;
			// under row-miss-heavy traffic this is the capacity limit
			// that makes observed latency grow with system load.
			if rc := cycle + uint64(d.cfg.TRC); rc > b.busyUntil {
				b.busyUntil = rc
			}
		}
		c.busFree = cycle + uint64(d.cfg.TBurst)

		read := e.req.Kind == mem.Read
		if read {
			d.Stats.Reads++
		} else {
			d.Stats.Writes++
		}
		d.pending.Push(done+uint64(d.cfg.CtrlLatency),
			completion{req: e.req, read: read, start: e.arrived})
		n := copy(c.queue[qi:], c.queue[qi+1:]) + qi
		c.queue[n] = entry{} // drop the *mem.Request reference for the GC
		c.queue = c.queue[:n]
		return
	}
}

// NextEvent reports the earliest future cycle at which Tick would do real
// work, assuming no intervening accesses: the next due completion, or the
// first cycle any queued request inside the scheduling window clears its
// bank-busy, bus and tFAW constraints. Those constraints only change when
// an issue happens, so no issue can occur before the reported cycle.
// ok=false means the controller is fully drained. Read-only; now must be
// the last ticked cycle.
func (d *DRAM) NextEvent(now uint64) (uint64, bool) {
	ev, ok := d.pending.Next(now)
	for ci := range d.channels {
		c := &d.channels[ci]
		window := len(c.queue)
		if window > d.cfg.WindowSize {
			window = d.cfg.WindowSize
		}
		for qi := 0; qi < window; qi++ {
			_, bk, row := d.route(c.queue[qi].req.Addr)
			b := &c.banks[bk]
			ready := b.busyUntil
			if c.busFree > ready {
				ready = c.busFree
			}
			if b.openRow != row {
				if faw := c.acts[0] + int64(d.cfg.TFAW); faw > int64(ready) {
					ready = uint64(faw)
				}
			}
			if !ok || ready < ev {
				ev, ok = ready, true
			}
		}
	}
	if ok && ev <= now {
		ev = now + 1 // a request whose constraints have already cleared
	}
	return ev, ok
}

// QueueOccupancy returns the total number of queued (unissued) requests,
// for tests and load monitoring.
func (d *DRAM) QueueOccupancy() int {
	n := 0
	for i := range d.channels {
		n += len(d.channels[i].queue)
	}
	return n
}

// Drain reports whether all queues and in-flight accesses are empty.
func (d *DRAM) Drain() bool {
	return d.QueueOccupancy() == 0 && d.pending.Len() == 0
}

// String summarizes the configuration.
func (d *DRAM) String() string {
	return fmt.Sprintf("dram{ch=%d banks=%d tRP/tRCD/tCL=%d/%d/%d}",
		d.cfg.Channels, d.cfg.BanksPerCh, d.cfg.TRP, d.cfg.TRCD, d.cfg.TCL)
}

// UnloadedReadLatency returns the best-case read latency in cycles
// (closed bank): controller + tRCD + tCL + burst.
func (d *DRAM) UnloadedReadLatency() int {
	return d.cfg.CtrlLatency + d.cfg.TRCD + d.cfg.TCL + d.cfg.TBurst
}
