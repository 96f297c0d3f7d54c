package cpu_test

import (
	"runtime"
	"testing"

	"github.com/virec/virec/internal/telemetry"
)

// benchTick drives the full core + cache + lower-level tick loop on the
// gather workload and reports per-simulated-cycle cost. This is the
// simulator's end-to-end hot path: decode operand gathering, provider
// acquire, dcache access and the context-switch logic all run every
// iteration, so allocation regressions on any of them show up here.
func benchTick(b *testing.B, kind providerKind, realDRAM bool) {
	b.ReportAllocs()
	cycles := uint64(0)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := newRig(kind, rigOpt{threads: 4, physRegs: 32, realDRAM: realDRAM})
		setupGather(r, 4, 64)
		r.load(gatherProg(), 0, 1, 2, 3)
		b.StartTimer()
		if !r.run(10000000) {
			b.Fatal("did not finish")
		}
		cycles += r.core.Stats.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/op")
}

func BenchmarkCoreTick(b *testing.B) {
	b.Run("banked", func(b *testing.B) { benchTick(b, pBanked, false) })
	b.Run("virec", func(b *testing.B) { benchTick(b, pViReC, false) })
	b.Run("virec-dram", func(b *testing.B) { benchTick(b, pViReC, true) })
}

// registerTelemetry wires the rig's core into a fresh registry with
// tracing disabled — the exact state a plain sim.New system runs in.
func registerTelemetry(r *rig) {
	reg := telemetry.NewRegistry()
	r.core.RegisterMetrics(reg, "core0")
	r.core.SetTelemetry(nil, 0)
}

// BenchmarkCoreTickTracedOff is the disabled-telemetry guardrail twin of
// BenchmarkCoreTick/virec: metrics registered, tracer nil. Compare its
// ns/op and allocs/op against the plain benchmark — registration aliases
// existing counters and every emit site is behind a nil check, so the two
// must stay within noise of each other.
func BenchmarkCoreTickTracedOff(b *testing.B) {
	b.ReportAllocs()
	cycles := uint64(0)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := newRig(pViReC, rigOpt{threads: 4, physRegs: 32})
		registerTelemetry(r)
		setupGather(r, 4, 64)
		r.load(gatherProg(), 0, 1, 2, 3)
		b.StartTimer()
		if !r.run(10000000) {
			b.Fatal("did not finish")
		}
		cycles += r.core.Stats.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/op")
}

// TestTracedOffAddsNoAllocs asserts the guardrail the benchmark only
// reports: registering metrics with tracing disabled must add zero
// allocations to a whole simulation run. A leak on any emit path would
// show up as roughly one allocation per simulated cycle (thousands);
// the slack only absorbs runtime noise in the malloc counter.
func TestTracedOffAddsNoAllocs(t *testing.T) {
	runAllocs := func(register bool) uint64 {
		r := newRig(pViReC, rigOpt{threads: 4, physRegs: 32})
		if register {
			registerTelemetry(r)
		}
		setupGather(r, 4, 64)
		r.load(gatherProg(), 0, 1, 2, 3)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if !r.run(10000000) {
			t.Fatal("did not finish")
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	runAllocs(false) // warm up shared state (pools, lazily built tables)
	base := runAllocs(false)
	traced := runAllocs(true)
	const slack = 64
	if traced > base+slack {
		t.Errorf("disabled telemetry added allocations: %d with registration vs %d without", traced, base)
	}
}

// TestSteadyStateAllocs pins the allocation-free instruction and request
// lifecycle: in-flight records, fetch slots, store-queue entries and every
// core and BSI request are recycled, so a run four times as long must not
// allocate more. The provider rows run the gather rig over an
// always-missing dcache (no cache state to allocate), so every load
// switches threads and every provider moves registers through its BSI.
// The memory-side row runs a 1 KB dcache over the DRAM model instead:
// most loads miss, and each miss takes an MSHR and a DRAM queue entry
// (gather stores nothing, so no writebacks). One allocation per
// instruction or per miss would add thousands; the slack only absorbs
// free-list and queue growth reaching a slightly deeper backlog.
func TestSteadyStateAllocs(t *testing.T) {
	rows := []struct {
		name string
		kind providerKind
		opt  rigOpt
	}{
		{"banked", pBanked, rigOpt{threads: 4, alwaysMiss: true}},
		{"software", pSoftware, rigOpt{threads: 4, alwaysMiss: true}},
		{"virec", pViReC, rigOpt{threads: 4, alwaysMiss: true}},
		{"prefetch-full", pPrefetchFull, rigOpt{threads: 4, alwaysMiss: true}},
		{"prefetch-exact", pPrefetchExact, rigOpt{threads: 4, alwaysMiss: true}},
		{"banked-dcache-dram", pBanked, rigOpt{threads: 4, dcacheKB: 1, realDRAM: true}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			runAllocs := func(count int) (allocs, insts uint64) {
				r := newRig(row.kind, row.opt)
				setupGather(r, 4, count)
				r.load(gatherProg(), 0, 1, 2, 3)
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				if !r.run(10000000) {
					t.Fatal("did not finish")
				}
				runtime.ReadMemStats(&after)
				return after.Mallocs - before.Mallocs, r.core.Stats.Insts
			}
			runAllocs(64) // warm up shared state
			short, shortInsts := runAllocs(64)
			long, longInsts := runAllocs(256)
			t.Logf("%d insts: %d mallocs; %d insts: %d mallocs", shortInsts, short, longInsts, long)
			const slack = 32
			if long > short+slack {
				t.Errorf("mallocs grow with run length: %d for %d insts vs %d for %d insts",
					long, longInsts, short, shortInsts)
			}
		})
	}
}
