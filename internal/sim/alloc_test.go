package sim_test

import (
	"runtime"
	"testing"

	"github.com/virec/virec/internal/cpu/regfile"
	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/telemetry"
	"github.com/virec/virec/internal/vrmu"
	"github.com/virec/virec/internal/workloads"
)

// TestRunSteadyStateAllocs holds the tick paths of whole systems
// allocation-free: each provider, ViReC under LRC, Belady and LRC+H (the
// hint marks), the ViReC extensions and the tracer, over the crossbar and
// the DRAM model. Only Run is counted, since Setup's word lists and pages
// grow with Iters. A run four times as long may add no more than the
// slack: one allocation per instruction, per miss or per victim choice
// would add thousands.
func TestRunSteadyStateAllocs(t *testing.T) {
	gather, _ := workloads.ByName("gather")
	spmv, _ := workloads.ByName("spmv")
	virec := func(w *workloads.Spec, pol vrmu.Policy) sim.Config {
		return sim.Config{Kind: sim.ViReC, Workload: w, ContextPct: 40, Policy: pol}
	}
	extensions := virec(gather, vrmu.LRC)
	extensions.ViReCOpts = regfile.ViReCConfig{GroupEvict: true, PrefetchNext: true}
	traced := virec(gather, vrmu.LRC)
	traced.TraceEvents = 256
	traced.TraceSink = func([]telemetry.Event) {}
	rows := []struct {
		name string
		cfg  sim.Config
	}{
		{"banked", sim.Config{Kind: sim.Banked, Workload: gather}},
		{"software", sim.Config{Kind: sim.Software, Workload: gather}},
		{"prefetch-full", sim.Config{Kind: sim.PrefetchFull, Workload: gather}},
		{"prefetch-exact", sim.Config{Kind: sim.PrefetchExact, Workload: gather}},
		// At 40% of the context a victim is chosen every iteration.
		{"virec-lrc", virec(gather, vrmu.LRC)},
		{"virec-belady", virec(gather, vrmu.Belady)},
		// spmv's row loop carries a remat hint; gather's hints all sit in
		// its prologue.
		{"virec-lrc+h-spmv", virec(spmv, vrmu.LRCH)},
		{"virec-group-evict-prefetch-next", extensions},
		{"virec-traced", traced},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			runAllocs := func(iters int) uint64 {
				cfg := row.cfg
				cfg.ThreadsPerCore = 4
				cfg.Iters = iters
				// Two collections empty the page, page-table, line-array
				// and BSI pools, so Run starts from the same state each time.
				runtime.GC()
				runtime.GC()
				s, err := sim.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Release()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := s.Run(); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				return after.Mallocs - before.Mallocs
			}
			short, long := runAllocs(64), runAllocs(256)
			t.Logf("64 iters: %d mallocs; 256 iters: %d mallocs", short, long)
			const slack = 32
			if long > short+slack {
				t.Errorf("mallocs grow with run length: %d at 256 iters vs %d at 64", long, short)
			}
		})
	}
}
