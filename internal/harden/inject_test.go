package harden_test

import (
	"runtime"
	"testing"

	"github.com/virec/virec/internal/harden"
	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/mem/cache"
)

// recycled is a request an issuer reuses, as the core and the BSI do: its
// Done is bound once, and its completion puts it back on the free list.
type recycled struct {
	req       mem.Request
	free      *[]*recycled
	completed *int
	done      func(uint64)
}

func (h *recycled) complete(uint64) {
	*h.free = append(*h.free, h)
	*h.completed++
}

// TestInjectorSteadyStateAllocs pins the allocation-free jitter path: held
// completions sit in a monomorphic heap and each jittered access borrows a
// recycled holder, so four times the requests through a jittering
// injector must not allocate more. The small cache misses often, so its
// MSHRs are recycled too. One allocation per access would add hundreds.
func TestInjectorSteadyStateAllocs(t *testing.T) {
	run := func(n int) uint64 {
		below := mem.NewDelayDevice(20)
		c := cache.New(cache.Config{Name: "l1", SizeBytes: 1024, Assoc: 2,
			HitLatency: 2, MSHRs: 4, Ports: 1}, below)
		inj := harden.NewInjector(harden.FaultPlan{MaxJitter: 6}, 7, c)
		var free []*recycled
		completed := 0
		for i := 0; i < 8; i++ {
			h := &recycled{free: &free, completed: &completed}
			h.done = h.complete
			free = append(free, h)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		issued := 0
		for cycle := uint64(0); completed < n; cycle++ {
			if cycle > 1_000_000 {
				t.Fatalf("%d of %d requests completed", completed, n)
			}
			if k := len(free); issued < n && k > 0 {
				h := free[k-1]
				h.req = mem.Request{Addr: mem.Addr(issued*7%48) * mem.LineBytes,
					Size: 8, Kind: mem.Read, Done: h.done}
				if inj.Access(&h.req) {
					free = free[:k-1]
					issued++
				}
			}
			c.Tick(cycle)
			below.Tick(cycle)
			inj.Tick(cycle)
		}
		runtime.ReadMemStats(&after)
		if inj.Stats.Jittered == 0 {
			t.Fatal("no access was jittered")
		}
		return after.Mallocs - before.Mallocs
	}
	run(200) // warm up shared state
	short, long := run(200), run(800)
	t.Logf("200 requests: %d mallocs; 800 requests: %d mallocs", short, long)
	const slack = 16
	if long > short+slack {
		t.Errorf("mallocs grow with the request count: %d for 800 requests vs %d for 200", long, short)
	}
}
