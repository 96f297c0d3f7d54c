package cache

import (
	"testing"

	"github.com/virec/virec/internal/mem"
)

// BenchmarkCacheTick measures the access + retire hot path: a mixed
// hit/miss address stream through Access with a Tick per cycle. Pending
// hits wait in a mem.EventQueue, which keeps the hit path at 0 allocs/op.
func BenchmarkCacheTick(b *testing.B) {
	below := mem.NewDelayDevice(40)
	c := New(Config{
		Name: "bench", SizeBytes: 32 << 10, Assoc: 4,
		HitLatency: 2, MSHRs: 8, Ports: 2,
	}, below)

	reqs := make([]mem.Request, 64)
	for i := range reqs {
		reqs[i] = mem.Request{
			// 16 distinct lines over an 8 KiB window: hits dominate, with
			// enough conflict traffic to exercise fills and writebacks.
			Addr: mem.Addr((i % 16) * 512),
			Size: 8,
			Kind: mem.Read,
		}
		if i%5 == 0 {
			reqs[i].Kind = mem.Write
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	cycle := uint64(0)
	for i := 0; i < b.N; i++ {
		c.Access(&reqs[i%len(reqs)])
		cycle++
		c.Tick(cycle)
		below.Tick(cycle)
	}
}

// BenchmarkCacheHit isolates the pure hit path: one resident line probed
// repeatedly, completing through the pending-hit queue every cycle.
func BenchmarkCacheHit(b *testing.B) {
	below := mem.NewDelayDevice(40)
	c := New(Config{
		Name: "bench", SizeBytes: 32 << 10, Assoc: 4,
		HitLatency: 2, MSHRs: 8, Ports: 1,
	}, below)
	req := mem.Request{Addr: 0x1000, Size: 8, Kind: mem.Read}

	// Warm the line so the steady state is all hits.
	c.Access(&req)
	for cy := uint64(1); cy < 100; cy++ {
		c.Tick(cy)
		below.Tick(cy)
	}

	b.ReportAllocs()
	b.ResetTimer()
	cycle := uint64(100)
	for i := 0; i < b.N; i++ {
		c.Access(&req)
		cycle++
		c.Tick(cycle)
		below.Tick(cycle)
	}
}
