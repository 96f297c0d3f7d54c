package cache

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"github.com/virec/virec/internal/mem"
)

// TestReleaseRecyclesZeroedLines checks that a cache built after a
// release of its line count starts as a new cache would: every line zero,
// and a hit, a miss and a writeback in flight at the release all dropped,
// so none completes into it. Once released caches are pooled, building
// one allocates nothing; the race detector's pool drops a quarter of what
// it is given, so the bound is half a line array.
func TestReleaseRecyclesZeroedLines(t *testing.T) {
	cfg := Config{Name: "l1", SizeBytes: 64 << 10, Assoc: 4, HitLatency: 2, MSHRs: 4, Ports: 2}
	below := &heldBelow{}
	old := New(cfg, below)
	for i := range old.lines {
		old.lines[i] = line{tag: ^uint64(0), valid: true, dirty: true, isReg: true,
			pin: maxPin, sticky: true, lastUse: ^uint64(0)}
	}
	old.lines[0] = line{valid: true, dirty: true}
	completed := 0
	done := func(uint64) { completed++ }
	hit := mem.Request{Addr: 0, Size: 8, Kind: mem.Read, Done: done}
	miss := mem.Request{Addr: 1 << 30, Size: 8, Kind: mem.Read, Done: done}
	if !old.Access(&hit) || !old.Access(&miss) {
		t.Fatal("the old cache rejected an access")
	}
	old.writebackQ = append(old.writebackQ, &mem.Request{Addr: 64, Size: mem.LineBytes, Kind: mem.Write})
	old.Release()

	fresh := New(cfg, mem.NewDelayDevice(1))
	for i, ln := range fresh.lines {
		if ln != (line{}) {
			t.Fatalf("line %d of the new cache is %+v", i, ln)
		}
	}
	if !fresh.Idle() || fresh.MSHRsInUse() != 0 || len(fresh.fillRetryQ) != 0 {
		t.Fatalf("the new cache starts busy: %d MSHRs, idle=%v", fresh.MSHRsInUse(), fresh.Idle())
	}
	for cycle := uint64(0); cycle < 10; cycle++ {
		fresh.Tick(cycle)
	}
	if completed != 0 {
		t.Errorf("%d requests in flight at the release completed into the new cache", completed)
	}
	fresh.Release()

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

// heldBelow accepts every request and completes none.
type heldBelow struct{ reqs []*mem.Request }

func (d *heldBelow) Access(r *mem.Request) bool {
	d.reqs = append(d.reqs, r)
	return true
}

func (d *heldBelow) Tick(uint64) {}

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
