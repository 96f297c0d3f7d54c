// Package cache models a set-associative write-back cache with MSHRs and
// a bounded access port, plus the ViReC backing-store extensions from
// Section 5.3 of the paper: cache lines are tagged as register or data
// lines, register lines carry a 3-bit pin counter that prevents their
// eviction while registers from the line are alive in the register file,
// and load misses to *data* addresses raise a miss signal that the context
// switching logic uses to trigger a thread switch. Misses to the reserved
// register region never raise the signal.
package cache

import (
	"fmt"
	"sync"

	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/telemetry"
)

// Config parameterizes a cache instance.
type Config struct {
	Name       string
	SizeBytes  int
	Assoc      int
	HitLatency int // cycles from access to data for a hit
	MSHRs      int // outstanding line fills
	Ports      int // accesses accepted per cycle

	// RegRegionBase/RegRegionSize delimit the reserved register region.
	// Requests with RegisterFill set must target this region; misses
	// inside it never raise the miss signal. Zero size disables pinning.
	RegRegionBase mem.Addr
	RegRegionSize uint64

	// PinningDisabled turns off register-line pinning (an ablation from
	// DESIGN.md): register lines become ordinary evictable lines.
	PinningDisabled bool
}

// Stats accumulates cache statistics. Each field is a counter,
// registered under its metric tag by RegisterMetrics.
type Stats struct {
	Hits         uint64 `metric:"hits"`
	Misses       uint64 `metric:"misses"`
	MergedMisses uint64 `metric:"merged_misses"` // secondary misses merged into an MSHR
	Writebacks   uint64 `metric:"writebacks"`
	Fills        uint64 `metric:"fills"`
	PortRejects  uint64 `metric:"port_rejects"`
	MSHRRejects  uint64 `metric:"mshr_rejects"`
	PinnedEvicts uint64 `metric:"pinned_evicts"`  // pinned register lines sacrificed for data misses
	RegReads     uint64 `metric:"reg_reads"`      // register-region reads (fills into the RF)
	RegWrites    uint64 `metric:"reg_writes"`     // register-region writes (spills out of the RF)
	DataLoadMiss uint64 `metric:"data_load_miss"` // misses that raised the context-switch signal
}

// HitRate returns hits / (hits+misses).
func (s *Stats) HitRate() float64 {
	t := s.Hits + s.Misses + s.MergedMisses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

const maxPin = 7 // 3-bit pin counter, saturating

type line struct {
	tag     uint64
	valid   bool
	dirty   bool
	isReg   bool  // register/data bit
	pin     uint8 // 3-bit pin counter
	sticky  bool  // pinned until an explicit Unpin (system registers)
	lastUse uint64
}

// mshr tracks one outstanding line fill. MSHRs are recycled through the
// cache's free list: each embeds its fill request, whose Done is bound once
// to fillDone, and keeps its waiting slice's capacity.
type mshr struct {
	c           *Cache
	lineAddr    mem.Addr
	set         int
	issued      bool
	waiting     []*mem.Request
	dirtyOnFill bool // a merged write marks the line dirty when it lands
	fill        mem.Request
	done        func(uint64) // fillDone, bound once
}

func (m *mshr) fillDone(cycle uint64) { m.c.fillDone(m, cycle) }

// writeback is a recycled dirty-line write to the level below. Its Done,
// bound once, puts it back on the cache's free list when the write lands.
type writeback struct {
	c    *Cache
	req  mem.Request
	done func(uint64) // complete, bound once
}

func (w *writeback) complete(uint64) { w.c.freeWB = append(w.c.freeWB, w) }

// cachePools holds released caches by line count, so a released cache's
// line array serves the next cache of its size. Every cache shares them.
var cachePools struct {
	sync.Mutex
	m map[int]*sync.Pool
}

// cachePool returns the pool of n-line caches.
func cachePool(n int) *sync.Pool {
	cachePools.Lock()
	defer cachePools.Unlock()
	p := cachePools.m[n]
	if p == nil {
		if cachePools.m == nil {
			cachePools.m = make(map[int]*sync.Pool)
		}
		p = new(sync.Pool)
		cachePools.m[n] = p
	}
	return p
}

// Cache is a set-associative write-back cache. It implements mem.Device.
type Cache struct {
	cfg     Config
	lines   []line // way w of set s is lines[s*cfg.Assoc+w]
	numSets int
	mshrs   map[mem.Addr]*mshr
	free    []*mshr      // MSHRs not in use, at most Config.MSHRs
	freeWB  []*writeback // writebacks not in flight
	below   mem.Device

	pendingHits mem.EventQueue[*mem.Request]
	writebackQ  []*mem.Request // retried when below rejects
	fillRetryQ  []*mshr        // fills the lower level rejected
	useClock    uint64
	acceptedNow int
	now         uint64

	// pinnedNow is a running count of valid pinned lines, maintained at
	// the pin-transition sites so telemetry and invariants never need the
	// full-array scan PinnedLines() does.
	pinnedNow int

	// Telemetry (nil when disabled; Emit/Observe are nil-safe). The
	// gauges' funcs are bound once.
	tracer      *telemetry.Tracer
	traceCore   int32
	pinnedHist  *telemetry.Histogram
	pinnedGauge func() float64
	mshrGauge   func() float64

	// Stats is exported read-only for reporting.
	Stats Stats
}

// New builds a cache over the given lower-level device. It rebuilds a
// released cache of the same line count when there is one: the line array
// comes back zeroed, and the idle MSHRs and writebacks and the queues'
// storage carry over, but nothing queued or in flight does. Those requests
// are dropped, never completed.
func New(cfg Config, below mem.Device) *Cache {
	if cfg.SizeBytes <= 0 || cfg.Assoc <= 0 {
		panic(fmt.Sprintf("cache %s: bad geometry %+v", cfg.Name, cfg))
	}
	numLines := cfg.SizeBytes / mem.LineBytes
	numSets := numLines / cfg.Assoc
	if numSets == 0 {
		numSets = 1
		cfg.Assoc = numLines
	}
	if cfg.Ports <= 0 {
		cfg.Ports = 1
	}
	if cfg.MSHRs <= 0 {
		cfg.MSHRs = 1
	}
	c, _ := cachePool(numSets * cfg.Assoc).Get().(*Cache)
	if c == nil {
		c = &Cache{lines: make([]line, numSets*cfg.Assoc), mshrs: make(map[mem.Addr]*mshr)}
		c.pinnedGauge = func() float64 { return float64(c.PinnedLines()) }
		c.mshrGauge = func() float64 { return float64(len(c.mshrs)) }
	}
	clear(c.lines)
	clear(c.mshrs)
	clear(c.writebackQ)
	clear(c.fillRetryQ)
	*c = Cache{cfg: cfg, lines: c.lines, numSets: numSets, mshrs: c.mshrs, free: c.free,
		freeWB: c.freeWB, below: below, pendingHits: c.pendingHits.Emptied(),
		writebackQ: c.writebackQ[:0], fillRetryQ: c.fillRetryQ[:0],
		pinnedGauge: c.pinnedGauge, mshrGauge: c.mshrGauge}
	return c
}

// Release hands the cache to the next New of its line count. Only its
// owner may release it, once, when nothing uses it any more.
func (c *Cache) Release() { cachePool(len(c.lines)).Put(c) }

// set returns the ways of set s.
func (c *Cache) set(s int) []line {
	return c.lines[s*c.cfg.Assoc : (s+1)*c.cfg.Assoc]
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) index(a mem.Addr) (set int, tag uint64) {
	lineNum := uint64(a) / mem.LineBytes
	return int(lineNum % uint64(c.numSets)), lineNum / uint64(c.numSets)
}

// inRegRegion reports whether a falls in the reserved register region.
func (c *Cache) inRegRegion(a mem.Addr) bool {
	return c.cfg.RegRegionSize > 0 &&
		a >= c.cfg.RegRegionBase &&
		uint64(a-c.cfg.RegRegionBase) < c.cfg.RegRegionSize
}

// newMSHR takes an MSHR off the free list.
func (c *Cache) newMSHR() *mshr {
	if n := len(c.free); n > 0 {
		m := c.free[n-1]
		c.free = c.free[:n-1]
		return m
	}
	// Free-list growth, bounded by Config.MSHRs.
	m := &mshr{c: c}
	m.done = m.fillDone
	return m
}

// Access presents a request to the cache. It returns false if the port is
// saturated this cycle, no MSHR is free for a miss, or every way in the
// target set is pinned or filling.
func (c *Cache) Access(r *mem.Request) bool {
	if c.acceptedNow >= c.cfg.Ports {
		c.Stats.PortRejects++
		return false
	}
	la := r.Addr.LineAddr()
	set, tag := c.index(r.Addr)

	// Hit?
	ways := c.set(set)
	for w := range ways {
		ln := &ways[w]
		if ln.valid && ln.tag == tag {
			c.acceptedNow++
			c.useClock++
			ln.lastUse = c.useClock
			if r.Kind == mem.Write {
				ln.dirty = true
			}
			c.touchRegLine(ln, r)
			c.Stats.Hits++
			c.pendingHits.Push(c.now+uint64(c.cfg.HitLatency), r)
			return true
		}
	}

	// Merged miss?
	if m, ok := c.mshrs[la]; ok {
		c.acceptedNow++
		c.Stats.MergedMisses++
		if r.Kind == mem.Write {
			m.dirtyOnFill = true
		}
		m.waiting = append(m.waiting, r)
		c.signalMiss(r)
		return true
	}

	// Primary miss: allocate an MSHR; the victim way is chosen when the
	// fill returns, so in-flight fills never block a set.
	if len(c.mshrs) >= c.cfg.MSHRs {
		c.Stats.MSHRRejects++
		return false
	}
	c.acceptedNow++
	c.Stats.Misses++
	c.signalMiss(r)

	m := c.newMSHR()
	m.lineAddr, m.set, m.issued = la, set, false
	m.waiting = append(m.waiting, r)
	m.dirtyOnFill = r.Kind == mem.Write
	// The fill carries the first waiter's routing hints so lower levels
	// can classify traffic. A rejected fill is retried as is.
	m.fill = mem.Request{
		Addr:         la,
		Size:         mem.LineBytes,
		Kind:         mem.Read,
		Inst:         r.Inst,
		RegisterFill: r.RegisterFill,
		Done:         m.done,
	}
	c.mshrs[la] = m
	c.issueFill(m)
	if !m.issued {
		c.fillRetryQ = append(c.fillRetryQ, m)
	}
	return true
}

// touchRegLine maintains the register/data bit and the pin counter.
func (c *Cache) touchRegLine(ln *line, r *mem.Request) {
	if !c.inRegRegion(r.Addr) {
		return
	}
	ln.isReg = true
	if r.Kind == mem.Read {
		c.Stats.RegReads++
	} else {
		c.Stats.RegWrites++
	}
	if c.cfg.PinningDisabled {
		return
	}
	wasPinned := ln.pin > 0 || ln.sticky
	if r.Unpin {
		ln.sticky = false
		ln.pin = 0
	} else {
		if r.PinSticky {
			ln.sticky = true
		}
		if r.Kind == mem.Read {
			if ln.pin < maxPin {
				ln.pin++
			}
		} else if ln.pin > 0 {
			ln.pin--
		}
	}
	c.pinTransition(ln, wasPinned, r.Addr.LineAddr())
}

// pinTransition updates the running pinned-line count and emits the
// pin/unpin trace events when a line crosses the pinned boundary.
func (c *Cache) pinTransition(ln *line, wasPinned bool, la mem.Addr) {
	nowPinned := ln.pin > 0 || ln.sticky
	if wasPinned == nowPinned {
		return
	}
	if nowPinned {
		c.pinnedNow++
		if c.tracer != nil {
			c.tracer.Emit(c.now, telemetry.EvPin, c.traceCore, telemetry.NoThread, uint64(la), 0, 0)
		}
	} else {
		c.pinnedNow--
		if c.tracer != nil {
			c.tracer.Emit(c.now, telemetry.EvUnpin, c.traceCore, telemetry.NoThread, uint64(la), 0, 0)
		}
	}
	c.pinnedHist.Observe(uint64(c.pinnedNow))
}

// signalMiss raises the context-switch signal for data load misses.
func (c *Cache) signalMiss(r *mem.Request) {
	if r.Kind != mem.Read || r.RegisterFill || r.Inst {
		return
	}
	if c.inRegRegion(r.Addr) {
		return
	}
	c.Stats.DataLoadMiss++
	if r.Miss != nil {
		r.Miss(c.now + uint64(c.cfg.HitLatency))
	}
}

// victim picks the LRU way among evictable lines. Pinned register lines
// are skipped while any unpinned way exists, but when a set fills up with
// pinned lines the LRU pinned line is sacrificed anyway — pinning
// accelerates register traffic, it must never starve data accesses.
func (c *Cache) victim(set int) int {
	best, bestPinned := -1, -1
	var bestUse, bestPinnedUse uint64
	ways := c.set(set)
	for w := range ways {
		ln := &ways[w]
		if !ln.valid {
			return w
		}
		if ln.pin > 0 || ln.sticky {
			if bestPinned < 0 || ln.lastUse < bestPinnedUse {
				bestPinned, bestPinnedUse = w, ln.lastUse
			}
			continue
		}
		if best < 0 || ln.lastUse < bestUse {
			best, bestUse = w, ln.lastUse
		}
	}
	if best >= 0 {
		return best
	}
	if bestPinned >= 0 {
		c.Stats.PinnedEvicts++
		return bestPinned
	}
	return -1
}

func (c *Cache) lineAddrOf(set int, tag uint64) mem.Addr {
	return mem.Addr((tag*uint64(c.numSets) + uint64(set)) * mem.LineBytes)
}

// newWriteback takes a writeback off the free list.
func (c *Cache) newWriteback() *writeback {
	if n := len(c.freeWB); n > 0 {
		w := c.freeWB[n-1]
		c.freeWB = c.freeWB[:n-1]
		return w
	}
	// Free-list growth, bounded by the writebacks in flight at once.
	w := &writeback{c: c}
	w.done = w.complete
	return w
}

func (c *Cache) issueFill(m *mshr) {
	if !m.issued && c.below.Access(&m.fill) {
		m.issued = true
	}
}

func (c *Cache) fillDone(m *mshr, cycle uint64) {
	c.Stats.Fills++
	way := c.victim(m.set)
	// victim always finds a way: invalid first, then LRU unpinned, then a
	// sacrificed pinned line.
	ln := &c.set(m.set)[way]
	if ln.valid && ln.dirty {
		c.Stats.Writebacks++
		wb := c.newWriteback()
		wb.req = mem.Request{
			Addr: c.lineAddrOf(m.set, ln.tag),
			Size: mem.LineBytes,
			Kind: mem.Write,
			Done: wb.done,
		}
		c.writebackQ = append(c.writebackQ, &wb.req)
	}
	if ln.valid && (ln.pin > 0 || ln.sticky) {
		// A pinned line sacrificed for this fill leaves the pinned set.
		c.pinnedNow--
		if c.tracer != nil {
			c.tracer.Emit(cycle, telemetry.EvUnpin, c.traceCore, telemetry.NoThread,
				uint64(c.lineAddrOf(m.set, ln.tag)), 0, 0)
		}
		c.pinnedHist.Observe(uint64(c.pinnedNow))
	}
	_, tag := c.index(m.lineAddr)
	c.useClock++
	*ln = line{tag: tag, valid: true, dirty: m.dirtyOnFill, lastUse: c.useClock}
	for _, r := range m.waiting {
		c.touchRegLine(ln, r)
		r.Complete(cycle)
	}
	delete(c.mshrs, m.lineAddr)
	clear(m.waiting)
	m.waiting = m.waiting[:0]
	c.free = append(c.free, m)
}

// Tick retires due hits, retries unissued fills and drains the writeback
// queue. It must be called once per cycle before the lower level's Tick.
func (c *Cache) Tick(cycle uint64) {
	c.now = cycle
	c.acceptedNow = 0
	for c.pendingHits.Due(cycle) {
		at, r := c.pendingHits.Pop()
		r.Complete(at)
	}
	if len(c.fillRetryQ) > 0 {
		remaining := c.fillRetryQ[:0]
		for _, m := range c.fillRetryQ {
			if !m.issued {
				c.issueFill(m)
			}
			if !m.issued {
				remaining = append(remaining, m)
			}
		}
		c.fillRetryQ = remaining
	}
	sent := 0
	for sent < len(c.writebackQ) && c.below.Access(c.writebackQ[sent]) {
		sent++
	}
	if sent > 0 {
		n := copy(c.writebackQ, c.writebackQ[sent:])
		clear(c.writebackQ[n:])
		c.writebackQ = c.writebackQ[:n]
	}
}

// NextEvent reports the earliest future cycle at which Tick would do real
// work, assuming no intervening accesses: a queued fill retry or
// writeback needs every cycle, otherwise the next due hit completion is
// the deadline. ok=false means the cache is passive — any issued line
// fills complete through the lower level's own events. Read-only; now
// must be the last ticked cycle.
func (c *Cache) NextEvent(now uint64) (uint64, bool) {
	if len(c.fillRetryQ) > 0 || len(c.writebackQ) > 0 {
		return now + 1, true
	}
	return c.pendingHits.Next(now)
}

// PinnedLines returns the number of currently pinned lines (tests, stats).
func (c *Cache) PinnedLines() int {
	n := 0
	for i := range c.lines {
		ln := &c.lines[i]
		if ln.valid && (ln.pin > 0 || ln.sticky) {
			n++
		}
	}
	return n
}

// PinnedGeneralRegLines returns the number of valid lines held by the
// per-register pin counter alone (sticky system-register lines are
// excluded). The hardening layer's cross-module invariant bounds this
// count by the VRMU's resident lines plus outstanding BSI transactions.
func (c *Cache) PinnedGeneralRegLines() int {
	n := 0
	for i := range c.lines {
		ln := &c.lines[i]
		if ln.valid && ln.pin > 0 && !ln.sticky {
			n++
		}
	}
	return n
}

// MSHRsInUse returns the number of allocated MSHRs (diagnostics).
func (c *Cache) MSHRsInUse() int { return len(c.mshrs) }

// SetTelemetry attaches the cycle-level tracer (pin/unpin events).
func (c *Cache) SetTelemetry(tr *telemetry.Tracer, coreID int) {
	c.tracer = tr
	c.traceCore = int32(coreID)
}

// pinnedBuckets are the pinned-line histogram's bounds, shared by every
// cache's histogram and never modified.
var pinnedBuckets = telemetry.LinearBuckets(0, 4, 16)

// RegisterMetrics wires the cache's counters, occupancy gauges and the
// pinned-line histogram into a registry under prefix (e.g. "dcache0").
func (c *Cache) RegisterMetrics(r *telemetry.Registry, prefix string) {
	r.Stats(prefix, &c.Stats)
	r.Gauge(telemetry.Name(prefix, "/pinned_lines"), c.pinnedGauge)
	r.Gauge(telemetry.Name(prefix, "/mshrs_in_use"), c.mshrGauge)
	c.pinnedHist = r.Histogram(telemetry.Name(prefix, "/pinned_lines_hist"), pinnedBuckets)
}

// CheckInvariants validates internal consistency; tests call it after
// workloads run. It returns a descriptive error string or "".
func (c *Cache) CheckInvariants() string {
	if len(c.mshrs) > c.cfg.MSHRs {
		return fmt.Sprintf("%d MSHRs in use, limit %d", len(c.mshrs), c.cfg.MSHRs)
	}
	for i := range c.lines {
		ln := &c.lines[i]
		s, w := i/c.cfg.Assoc, i%c.cfg.Assoc
		if ln.pin > maxPin {
			return fmt.Sprintf("set %d way %d pin %d > max", s, w, ln.pin)
		}
		if (ln.pin > 0 || ln.sticky) && !ln.isReg {
			return fmt.Sprintf("set %d way %d pinned but not a register line", s, w)
		}
		if (ln.pin > 0 || ln.sticky) && c.cfg.PinningDisabled {
			return fmt.Sprintf("set %d way %d pinned with pinning disabled", s, w)
		}
	}
	if n := c.PinnedLines(); n != c.pinnedNow {
		return fmt.Sprintf("running pinned-line count %d disagrees with %d pinned lines", c.pinnedNow, n)
	}
	return ""
}

// Idle reports whether no hits, fills or writebacks are outstanding.
func (c *Cache) Idle() bool {
	return c.pendingHits.Len() == 0 && len(c.mshrs) == 0 && len(c.writebackQ) == 0
}
