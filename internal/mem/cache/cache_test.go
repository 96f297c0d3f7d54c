package cache

import (
	"testing"

	"github.com/virec/virec/internal/mem"
)

// stubMem is the fixed-latency lower-level device for cache tests: a
// mem.DelayDevice that can reject its first accesses and counts the ones
// it accepts.
type stubMem struct {
	mem.DelayDevice
	accesses int
	writes   int
	rejectN  int // reject the first rejectN accesses
}

func newStub(latency uint64) *stubMem {
	return &stubMem{DelayDevice: mem.DelayDevice{Latency: latency}}
}

func (s *stubMem) Access(r *mem.Request) bool {
	if s.rejectN > 0 {
		s.rejectN--
		return false
	}
	s.accesses++
	if r.Kind == mem.Write {
		s.writes++
	}
	return s.DelayDevice.Access(r)
}

func newTestCache(cfg Config) (*Cache, *stubMem) {
	if cfg.SizeBytes == 0 {
		cfg.SizeBytes = 8 * 1024
	}
	if cfg.Assoc == 0 {
		cfg.Assoc = 4
	}
	if cfg.HitLatency == 0 {
		cfg.HitLatency = 2
	}
	if cfg.MSHRs == 0 {
		cfg.MSHRs = 8
	}
	if cfg.Ports == 0 {
		cfg.Ports = 1
	}
	stub := newStub(50)
	return New(cfg, stub), stub
}

// drive ticks cache+stub until pred or limit.
func drive(c *Cache, s *stubMem, limit uint64, pred func() bool) {
	for cy := uint64(1); cy <= limit; cy++ {
		c.Tick(cy)
		s.Tick(cy)
		if pred() {
			return
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	c, s := newTestCache(Config{})
	var missAt, hitAt uint64
	n := 0
	r1 := &mem.Request{Addr: 0x1000, Kind: mem.Read, Done: func(cy uint64) { missAt = cy; n++ }}
	c.Tick(1)
	s.Tick(1)
	if !c.Access(r1) {
		t.Fatal("cold access rejected")
	}
	drive(c, s, 500, func() bool { return n == 1 })
	if n != 1 {
		t.Fatal("miss never completed")
	}
	if missAt < 50 {
		t.Errorf("miss completed at %d, expected >= memory latency 50", missAt)
	}
	// Same line now hits.
	r2 := &mem.Request{Addr: 0x1008, Kind: mem.Read, Done: func(cy uint64) { hitAt = cy; n++ }}
	start := missAt + 10
	c.Tick(start)
	s.Tick(start)
	if !c.Access(r2) {
		t.Fatal("hit access rejected")
	}
	drive(c, s, start+100, func() bool { return n == 2 })
	if hitAt != start+2 {
		t.Errorf("hit completed at %d, want %d (hit latency 2)", hitAt, start+2)
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestMissMerging(t *testing.T) {
	c, s := newTestCache(Config{})
	n := 0
	c.Tick(1)
	s.Tick(1)
	c.Access(&mem.Request{Addr: 0x40, Kind: mem.Read, Done: func(uint64) { n++ }})
	c.Tick(2)
	s.Tick(2)
	c.Access(&mem.Request{Addr: 0x48, Kind: mem.Read, Done: func(uint64) { n++ }})
	drive(c, s, 500, func() bool { return n == 2 })
	if n != 2 {
		t.Fatal("merged requests did not both complete")
	}
	if c.Stats.Misses != 1 || c.Stats.MergedMisses != 1 {
		t.Errorf("want 1 primary + 1 merged miss, got %+v", c.Stats)
	}
	if s.accesses != 1 {
		t.Errorf("memory saw %d accesses, want 1 (merge)", s.accesses)
	}
}

func TestMSHRLimit(t *testing.T) {
	c, s := newTestCache(Config{MSHRs: 2, Ports: 4})
	c.Tick(1)
	s.Tick(1)
	ok1 := c.Access(&mem.Request{Addr: 0x0, Kind: mem.Read})
	ok2 := c.Access(&mem.Request{Addr: 0x1000, Kind: mem.Read})
	ok3 := c.Access(&mem.Request{Addr: 0x2000, Kind: mem.Read})
	if !ok1 || !ok2 {
		t.Fatal("first two misses must be accepted")
	}
	if ok3 {
		t.Error("third miss must be rejected with 2 MSHRs")
	}
	if c.Stats.MSHRRejects != 1 {
		t.Errorf("MSHRRejects = %d, want 1", c.Stats.MSHRRejects)
	}
}

func TestPortLimit(t *testing.T) {
	c, s := newTestCache(Config{Ports: 1, MSHRs: 8})
	c.Tick(1)
	s.Tick(1)
	ok1 := c.Access(&mem.Request{Addr: 0x0, Kind: mem.Read})
	ok2 := c.Access(&mem.Request{Addr: 0x1000, Kind: mem.Read})
	if !ok1 {
		t.Fatal("first access rejected")
	}
	if ok2 {
		t.Error("second access in same cycle must be rejected with 1 port")
	}
	c.Tick(2)
	s.Tick(2)
	if !c.Access(&mem.Request{Addr: 0x1000, Kind: mem.Read}) {
		t.Error("retry next cycle must succeed")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	// Direct-mapped tiny cache: 2 lines. Write line A, then read two other
	// lines mapping to the same set to force A's eviction and writeback.
	c, s := newTestCache(Config{SizeBytes: 128, Assoc: 1, MSHRs: 4, Ports: 4})
	done := 0
	c.Tick(1)
	s.Tick(1)
	c.Access(&mem.Request{Addr: 0x0, Kind: mem.Write, Done: func(uint64) { done++ }})
	drive(c, s, 500, func() bool { return done == 1 })
	// 0x80 maps to the same set as 0x0 in a 128B direct-mapped cache.
	c.Access(&mem.Request{Addr: 0x80, Kind: mem.Read, Done: func(uint64) { done++ }})
	drive(c, s, 1000, func() bool { return done == 2 })
	if c.Stats.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
	drive(c, s, 2000, func() bool { return s.writes == 1 })
	if s.writes != 1 {
		t.Errorf("memory saw %d writes, want 1 writeback", s.writes)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	c, s := newTestCache(Config{SizeBytes: 128, Assoc: 1, MSHRs: 4, Ports: 4})
	done := 0
	c.Tick(1)
	s.Tick(1)
	c.Access(&mem.Request{Addr: 0x0, Kind: mem.Read, Done: func(uint64) { done++ }})
	drive(c, s, 500, func() bool { return done == 1 })
	c.Access(&mem.Request{Addr: 0x80, Kind: mem.Read, Done: func(uint64) { done++ }})
	drive(c, s, 1000, func() bool { return done == 2 })
	if c.Stats.Writebacks != 0 {
		t.Errorf("writebacks = %d, want 0 for clean line", c.Stats.Writebacks)
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way set: lines A, B cached; touch A; insert C; B must be evicted,
	// so A still hits.
	c, s := newTestCache(Config{SizeBytes: 128, Assoc: 2, MSHRs: 4, Ports: 4})
	// All of 0x0, 0x80, 0x100 map to set 0 (one set only: 128B/64B/2-way = 1 set).
	done := 0
	inc := func(uint64) { done++ }
	c.Tick(1)
	s.Tick(1)
	c.Access(&mem.Request{Addr: 0x0, Kind: mem.Read, Done: inc})
	drive(c, s, 500, func() bool { return done == 1 })
	c.Access(&mem.Request{Addr: 0x80, Kind: mem.Read, Done: inc})
	drive(c, s, 1000, func() bool { return done == 2 })
	c.Access(&mem.Request{Addr: 0x0, Kind: mem.Read, Done: inc}) // touch A
	drive(c, s, 1500, func() bool { return done == 3 })
	c.Access(&mem.Request{Addr: 0x100, Kind: mem.Read, Done: inc}) // insert C
	drive(c, s, 2000, func() bool { return done == 4 })
	hitsBefore := c.Stats.Hits
	c.Access(&mem.Request{Addr: 0x0, Kind: mem.Read, Done: inc}) // A again
	drive(c, s, 2500, func() bool { return done == 5 })
	if c.Stats.Hits != hitsBefore+1 {
		t.Errorf("LRU evicted the wrong way: A missed after C insert")
	}
}

const regBase = 0x100000

func regCache() (*Cache, *stubMem) {
	return newTestCacheReg(Config{
		SizeBytes: 1024, Assoc: 4, MSHRs: 8, Ports: 4,
		RegRegionBase: regBase, RegRegionSize: 0x10000,
	})
}

func newTestCacheReg(cfg Config) (*Cache, *stubMem) {
	cfg.HitLatency = 2
	stub := newStub(50)
	return New(cfg, stub), stub
}

func TestRegisterLinePinning(t *testing.T) {
	c, s := regCache()
	done := 0
	inc := func(uint64) { done++ }
	c.Tick(1)
	s.Tick(1)
	// Fill a register (read from register region) -> pin 1.
	c.Access(&mem.Request{Addr: regBase, Kind: mem.Read, RegisterFill: true, Done: inc})
	drive(c, s, 500, func() bool { return done == 1 })
	if c.PinnedLines() != 1 {
		t.Fatalf("pinned lines = %d, want 1", c.PinnedLines())
	}
	// Spill it back (write) -> unpinned.
	c.Access(&mem.Request{Addr: regBase, Kind: mem.Write, RegisterFill: true, Done: inc})
	drive(c, s, 1000, func() bool { return done == 2 })
	if c.PinnedLines() != 0 {
		t.Errorf("pinned lines after spill = %d, want 0", c.PinnedLines())
	}
	if msg := c.CheckInvariants(); msg != "" {
		t.Error(msg)
	}
}

func TestPinnedLineNotEvicted(t *testing.T) {
	// 1-set, 2-way cache. Pin a register line, then stream data lines:
	// the pinned line must survive (later reg access hits).
	c, s := newTestCacheReg(Config{
		SizeBytes: 128, Assoc: 2, MSHRs: 4, Ports: 4,
		RegRegionBase: regBase, RegRegionSize: 0x10000,
	})
	done := 0
	inc := func(uint64) { done++ }
	c.Tick(1)
	s.Tick(1)
	c.Access(&mem.Request{Addr: regBase, Kind: mem.Read, RegisterFill: true, Done: inc})
	drive(c, s, 500, func() bool { return done == 1 })
	for i := 1; i <= 3; i++ {
		c.Access(&mem.Request{Addr: mem.Addr(i * 0x80), Kind: mem.Read, Done: inc})
		drive(c, s, uint64(500+i*500), func() bool { return done == 1+i })
	}
	hitsBefore := c.Stats.Hits
	c.Access(&mem.Request{Addr: regBase, Kind: mem.Read, RegisterFill: true, Done: inc})
	drive(c, s, 5000, func() bool { return done == 5 })
	if c.Stats.Hits != hitsBefore+1 {
		t.Error("pinned register line was evicted by data streaming")
	}
}

func TestPinningDisabledAblation(t *testing.T) {
	c, s := newTestCacheReg(Config{
		SizeBytes: 128, Assoc: 2, MSHRs: 4, Ports: 4,
		RegRegionBase: regBase, RegRegionSize: 0x10000,
		PinningDisabled: true,
	})
	done := 0
	inc := func(uint64) { done++ }
	c.Tick(1)
	s.Tick(1)
	c.Access(&mem.Request{Addr: regBase, Kind: mem.Read, RegisterFill: true, Done: inc})
	drive(c, s, 500, func() bool { return done == 1 })
	if c.PinnedLines() != 0 {
		t.Errorf("pinning disabled but %d lines pinned", c.PinnedLines())
	}
	if msg := c.CheckInvariants(); msg != "" {
		t.Error(msg)
	}
}

func TestSetBlockedWhenAllPinned(t *testing.T) {
	// 1-set 2-way: pin both ways, then a data miss must be rejected.
	c, s := newTestCacheReg(Config{
		SizeBytes: 128, Assoc: 2, MSHRs: 4, Ports: 4,
		RegRegionBase: regBase, RegRegionSize: 0x10000,
	})
	done := 0
	inc := func(uint64) { done++ }
	c.Tick(1)
	s.Tick(1)
	c.Access(&mem.Request{Addr: regBase, Kind: mem.Read, RegisterFill: true, Done: inc})
	drive(c, s, 500, func() bool { return done == 1 })
	c.Access(&mem.Request{Addr: regBase + 0x80, Kind: mem.Read, RegisterFill: true, Done: inc})
	drive(c, s, 1000, func() bool { return done == 2 })
	if c.PinnedLines() != 2 {
		t.Fatalf("pinned = %d, want 2", c.PinnedLines())
	}
	// Pinning must not starve data: a miss into the fully-pinned set is
	// accepted and its fill sacrifices the LRU pinned line.
	if !c.Access(&mem.Request{Addr: 0x0, Kind: mem.Read, Done: inc}) {
		t.Error("miss into fully-pinned set must be accepted")
	}
	drive(c, s, 2000, func() bool { return done == 3 })
	if c.Stats.PinnedEvicts != 1 {
		t.Errorf("PinnedEvicts = %d, want 1", c.Stats.PinnedEvicts)
	}
	if c.PinnedLines() != 1 {
		t.Errorf("pinned after sacrifice = %d, want 1", c.PinnedLines())
	}
}

func TestMissSignalOnlyForDataLoads(t *testing.T) {
	c, s := regCache()
	missCount := 0
	missFn := func(uint64) { missCount++ }
	c.Tick(1)
	s.Tick(1)
	// Data load miss -> signal.
	c.Access(&mem.Request{Addr: 0x0, Kind: mem.Read, Miss: missFn})
	if missCount != 1 {
		t.Errorf("data load miss: signal count = %d, want 1", missCount)
	}
	c.Tick(2)
	s.Tick(2)
	// Register-region miss -> no signal.
	c.Access(&mem.Request{Addr: regBase + 0x80, Kind: mem.Read, RegisterFill: true, Miss: missFn})
	if missCount != 1 {
		t.Error("register fill miss must not raise the switch signal")
	}
	c.Tick(3)
	s.Tick(3)
	// Store miss -> no signal.
	c.Access(&mem.Request{Addr: 0x2000, Kind: mem.Write, Miss: missFn})
	if missCount != 1 {
		t.Error("store miss must not raise the switch signal")
	}
	c.Tick(4)
	s.Tick(4)
	// Instruction miss -> no signal.
	c.Access(&mem.Request{Addr: 0x3000, Kind: mem.Read, Inst: true, Miss: missFn})
	if missCount != 1 {
		t.Error("instruction miss must not raise the switch signal")
	}
	// Merged data load miss -> signal again.
	c.Tick(5)
	s.Tick(5)
	c.Access(&mem.Request{Addr: 0x8, Kind: mem.Read, Miss: missFn})
	if missCount != 2 {
		t.Errorf("merged data load miss: signal count = %d, want 2", missCount)
	}
}

func TestFillRetryAfterReject(t *testing.T) {
	c, s := newTestCache(Config{})
	s.rejectN = 3 // memory rejects the first attempts
	done := 0
	c.Tick(1)
	s.Tick(1)
	if !c.Access(&mem.Request{Addr: 0x40, Kind: mem.Read, Done: func(uint64) { done++ }}) {
		t.Fatal("access rejected")
	}
	drive(c, s, 1000, func() bool { return done == 1 })
	if done != 1 {
		t.Error("fill never completed after lower-level rejections")
	}
}

func TestPinSaturation(t *testing.T) {
	c, s := regCache()
	done := 0
	inc := func(uint64) { done++ }
	// 10 reads to the same register line: pin must saturate at 7.
	for i := 0; i < 10; i++ {
		c.Tick(uint64(i*200 + 1))
		s.Tick(uint64(i*200 + 1))
		c.Access(&mem.Request{Addr: regBase, Kind: mem.Read, RegisterFill: true, Done: inc})
		drive(c, s, uint64(i*200+200), func() bool { return done == i+1 })
	}
	if msg := c.CheckInvariants(); msg != "" {
		t.Error(msg)
	}
	// 10 writes: pin must clamp at 0, not wrap.
	for i := 0; i < 10; i++ {
		cy := uint64(3000 + i*200)
		c.Tick(cy)
		s.Tick(cy)
		c.Access(&mem.Request{Addr: regBase, Kind: mem.Write, RegisterFill: true, Done: inc})
		drive(c, s, cy+199, func() bool { return done == 11+i })
	}
	if c.PinnedLines() != 0 {
		t.Errorf("pins did not clamp to 0: %d pinned", c.PinnedLines())
	}
	if msg := c.CheckInvariants(); msg != "" {
		t.Error(msg)
	}
}

func TestHitRate(t *testing.T) {
	var st Stats
	if st.HitRate() != 0 {
		t.Error("empty stats hit rate must be 0")
	}
	st.Hits, st.Misses = 3, 1
	if got := st.HitRate(); got != 0.75 {
		t.Errorf("hit rate = %v, want 0.75", got)
	}
}
