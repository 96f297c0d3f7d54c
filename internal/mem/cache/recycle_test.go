package cache

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"github.com/virec/virec/internal/mem"
)

// TestReleaseRecyclesZeroedLines checks that a line array Release hands
// to the pool comes back zeroed, so a new cache never sees an old one's
// lines, that a released cache holds no lines, and that a cache built
// after a release takes its array from the pool instead of allocating it.
func TestReleaseRecyclesZeroedLines(t *testing.T) {
	cfg := Config{Name: "l1", SizeBytes: 64 << 10, Assoc: 4, HitLatency: 2, MSHRs: 4, Ports: 1}
	below := mem.NewDelayDevice(1)
	old := New(cfg, below)
	for i := range old.lines {
		old.lines[i] = line{tag: ^uint64(0), valid: true, dirty: true, isReg: true,
			pin: maxPin, sticky: true, lastUse: ^uint64(0)}
	}
	old.Release()
	if old.lines != nil || old.PinnedLines() != 0 {
		t.Error("a released cache still holds lines")
	}
	old.Release() // releasing twice hands nothing back twice
	fresh := New(cfg, below)
	for i, ln := range fresh.lines {
		if ln != (line{}) {
			t.Fatalf("line %d of the new cache is %+v", i, ln)
		}
	}
	fresh.Release()

	// The cache itself and its MSHR map still allocate; the line array
	// must not. (The race detector's pool drops a quarter of what it is
	// given.)
	arrayBytes := uint64(cfg.SizeBytes/mem.LineBytes) * uint64(unsafe.Sizeof(line{}))
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		New(cfg, below).Release()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > arrayBytes/2 {
		t.Errorf("a cache built after a release allocated %d bytes; its line array alone is %d", per, arrayBytes)
	}
}

// TestLinePoolConcurrent builds, fills and releases caches of two sizes
// from several goroutines at once, as parallel sweep workers do. Each
// cache must start with every line zero, whichever goroutine released its
// array.
func TestLinePoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				size := 1024 << (round % 2)
				c := New(Config{Name: "l1", SizeBytes: size, Assoc: 2}, mem.NewDelayDevice(1))
				for i := range c.lines {
					if c.lines[i] != (line{}) {
						t.Errorf("goroutine %d: fresh line %d is %+v", g, i, c.lines[i])
						return
					}
					c.lines[i] = line{tag: uint64(g), valid: true, dirty: true, lastUse: uint64(round)}
				}
				c.Release()
			}
		}(g)
	}
	wg.Wait()
}

// TestWritebackSteadyStateAllocs pins the recycled writeback path: every
// access writes a new line of one set, so each fill evicts a dirty line
// and writes it back, and four times the accesses must not allocate
// more. One allocation per writeback would add hundreds.
func TestWritebackSteadyStateAllocs(t *testing.T) {
	run := func(n int) uint64 {
		below := mem.NewDelayDevice(20)
		c := New(Config{Name: "l1", SizeBytes: 1024, Assoc: 2,
			HitLatency: 2, MSHRs: 4, Ports: 1}, below)
		numSets := 1024 / mem.LineBytes / 2
		busy := false
		done := func(uint64) { busy = false }
		var req mem.Request
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		issued := 0
		for cycle := uint64(0); issued < n || busy || !c.Idle() || !below.Idle(); cycle++ {
			if !busy && issued < n {
				req = mem.Request{Addr: mem.Addr(issued*numSets) * mem.LineBytes,
					Size: 8, Kind: mem.Write, Done: done}
				if c.Access(&req) {
					busy = true
					issued++
				}
			}
			c.Tick(cycle)
			below.Tick(cycle)
		}
		runtime.ReadMemStats(&after)
		if want := uint64(n - 2); c.Stats.Writebacks != want {
			t.Fatalf("%d writebacks for %d accesses, want %d", c.Stats.Writebacks, n, want)
		}
		return after.Mallocs - before.Mallocs
	}
	run(200) // warm up shared state
	short, long := run(200), run(800)
	t.Logf("200 accesses: %d mallocs; 800 accesses: %d mallocs", short, long)
	const slack = 16
	if long > short+slack {
		t.Errorf("mallocs grow with the writeback count: %d for 800 accesses vs %d for 200", long, short)
	}
}
