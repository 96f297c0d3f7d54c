package sim_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/vrmu"
	"github.com/virec/virec/internal/workloads"
)

func gather(t *testing.T) *workloads.Spec {
	t.Helper()
	w, ok := workloads.ByName("gather")
	if !ok {
		t.Fatal("gather missing")
	}
	return w
}

func TestSimulateAllKindsAllWorkloads(t *testing.T) {
	kinds := []sim.CoreKind{sim.Banked, sim.ViReC, sim.Software, sim.PrefetchFull, sim.PrefetchExact}
	for _, w := range workloads.All() {
		for _, kind := range kinds {
			t.Run(w.Name+"/"+kind.String(), func(t *testing.T) {
				res, err := sim.Simulate(sim.Config{
					Kind:           kind,
					ThreadsPerCore: 4,
					Workload:       w,
					Iters:          64,
					ContextPct:     100,
					Policy:         vrmu.LRC,
					ValidateValues: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Insts == 0 || res.Cycles == 0 {
					t.Errorf("empty result %+v", res)
				}
			})
		}
	}
}

func TestMultiCoreSystem(t *testing.T) {
	res, err := sim.Simulate(sim.Config{
		Kind:           sim.ViReC,
		Cores:          4,
		ThreadsPerCore: 4,
		Workload:       gather(t),
		Iters:          64,
		ContextPct:     80,
		Policy:         vrmu.LRC,
		ValidateValues: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CoreStats) != 4 || len(res.CacheStats) != 4 || len(res.TagStats) != 4 {
		t.Errorf("per-core stats incomplete: %d/%d/%d",
			len(res.CoreStats), len(res.CacheStats), len(res.TagStats))
	}
	if res.DRAMStats == nil || res.DRAMStats.Reads == 0 {
		t.Error("DRAM stats missing")
	}
}

func TestSystemLoadRaisesLatency(t *testing.T) {
	run := func(cores int) float64 {
		res, err := sim.Simulate(sim.Config{
			Kind:           sim.ViReC,
			Cores:          cores,
			ThreadsPerCore: 8,
			Workload:       gather(t),
			Iters:          128,
			ContextPct:     100,
			Policy:         vrmu.LRC,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.DRAMStats.AvgReadLatency()
	}
	lat1 := run(1)
	lat8 := run(8)
	if lat8 <= lat1 {
		t.Errorf("8-core avg DRAM latency %.1f not above 1-core %.1f (Figure 11 premise)", lat8, lat1)
	}
}

func TestContextPctSizing(t *testing.T) {
	w := gather(t)
	active := len(w.ActiveRegs())
	cfg := sim.Config{Workload: w, ThreadsPerCore: 8, ContextPct: 100}
	if got := cfg.PhysRegsFor(); got != active*8 {
		t.Errorf("100%% of %d regs x 8 threads = %d, want %d", active, got, active*8)
	}
	cfg.ContextPct = 50
	want := (active + 1) / 2 * 8
	if got := cfg.PhysRegsFor(); got != want {
		t.Errorf("50%% sizing = %d, want %d", got, want)
	}
	cfg.PhysRegs = 13
	if got := cfg.PhysRegsFor(); got != 13 {
		t.Errorf("explicit PhysRegs ignored: %d", got)
	}
}

func TestBankedThreadLimit(t *testing.T) {
	_, err := sim.New(sim.Config{
		Kind:           sim.Banked,
		ThreadsPerCore: 10,
		Workload:       gather(t),
	})
	if err == nil {
		t.Error("banked with 10 threads must be rejected (8 banks in Table 1)")
	}
}

// TestNewRejectsUnbuildableSizes holds sim.New to an error, never a
// panic, for every size it cannot build, including an iteration count
// past the kernel's data layout and a ViReC register file past the tag
// store's; each boundary value still builds, or at the tag store's limit
// passes Check.
func TestNewRejectsUnbuildableSizes(t *testing.T) {
	g := gather(t)
	spmv, _ := workloads.ByName("spmv")
	chase, _ := workloads.ByName("chase")
	build := func(cfg sim.Config) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panicked: %v", r)
			}
		}()
		s, err := sim.New(cfg)
		if err == nil {
			s.Release()
		}
		return err
	}
	bad := []struct {
		name string
		cfg  sim.Config
		want string // a substring of the error
	}{
		{"virec-threads-negative", sim.Config{Kind: sim.ViReC, ThreadsPerCore: -1, Workload: g}, "negative"},
		{"banked-threads-negative", sim.Config{Kind: sim.Banked, ThreadsPerCore: -1, Workload: g}, "negative"},
		{"cores-negative", sim.Config{Kind: sim.Software, Cores: -2, Workload: g}, "negative"},
		{"banked-9-threads", sim.Config{Kind: sim.Banked, ThreadsPerCore: 9, Workload: g}, "at most 8 threads"},
		{"virec-3-regs", sim.Config{Kind: sim.ViReC, PhysRegs: 3, Workload: g}, "at least 8 physical registers"},
		{"virec-negative-regs", sim.Config{Kind: sim.ViReC, PhysRegs: -5, Workload: g}, "at least 8 physical registers"},
		{"virec-regs-past-tag-store", sim.Config{Kind: sim.ViReC, PhysRegs: vrmu.MaxPhysRegs + 1, Workload: g}, "32769 physical registers exceeds the tag store limit of 32768"},
		// gather's 7 active registers for each of 6000 threads.
		{"virec-context-past-tag-store", sim.Config{Kind: sim.ViReC, ThreadsPerCore: 6000, Workload: g, Iters: 1}, "42000 physical registers exceeds the tag store limit of 32768"},
		{"iters-negative", sim.Config{Kind: sim.Banked, ThreadsPerCore: 2, Workload: g, Iters: -5}, "must not be negative, got -5"},
		{"gather-past-capacity", sim.Config{Kind: sim.Banked, ThreadsPerCore: 1, Workload: g, Iters: 9000}, "gather holds at most 8192"},
		{"spmv-past-capacity", sim.Config{Kind: sim.ViReC, Workload: spmv, Iters: 4097}, "spmv holds at most 4096"},
		{"mix-past-capacity", sim.Config{Kind: sim.ViReC, WorkloadMix: []*workloads.Spec{chase, spmv}, Iters: 5000}, "spmv holds at most 4096"},
	}
	for _, row := range bad {
		if err := build(row.cfg); err == nil || !strings.Contains(err.Error(), row.want) {
			t.Errorf("%s: New returned %v, want an error containing %q", row.name, err, row.want)
		}
	}
	good := []sim.Config{
		{Kind: sim.Banked, ThreadsPerCore: 8, Workload: g, Iters: 8192},
		{Kind: sim.Banked, ThreadsPerCore: 1, Workload: g, Iters: 0}, // the default 256
		{Kind: sim.ViReC, ThreadsPerCore: 1, PhysRegs: 8, Workload: spmv, Iters: 4096},
		{Kind: sim.ViReC, ThreadsPerCore: 2, Workload: chase, Iters: 100_000},
	}
	for _, cfg := range good {
		if err := build(cfg); err != nil {
			t.Errorf("%s/%s/t%d at %d iters: %v", cfg.Kind, cfg.Workload.Name, cfg.ThreadsPerCore, cfg.Iters, err)
		}
	}
	// Register files at the tag store's limit, too large to build here.
	for _, cfg := range []sim.Config{
		{Kind: sim.ViReC, PhysRegs: vrmu.MaxPhysRegs, Workload: g},
		{Kind: sim.ViReC, ThreadsPerCore: vrmu.MaxPhysRegs / 7, Workload: g},
	} {
		if err := cfg.Check(); err != nil {
			t.Errorf("virec/%s/t%d with %d registers: %v", cfg.Workload.Name, cfg.ThreadsPerCore, cfg.PhysRegsFor(), err)
		}
	}
}

func TestViReCUnboundedThreads(t *testing.T) {
	// The paper's point: ViReC thread counts are not limited by register
	// storage. 10 threads on a small RF must work.
	res, err := sim.Simulate(sim.Config{
		Kind:           sim.ViReC,
		ThreadsPerCore: 10,
		Workload:       gather(t),
		Iters:          48,
		ContextPct:     40,
		Policy:         vrmu.LRC,
		ValidateValues: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Insts == 0 {
		t.Error("no instructions committed")
	}
}

func TestFixedMemLatencyMode(t *testing.T) {
	res, err := sim.Simulate(sim.Config{
		Kind:            sim.Banked,
		ThreadsPerCore:  4,
		Workload:        gather(t),
		Iters:           64,
		FixedMemLatency: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DRAMStats != nil {
		t.Error("fixed-latency run must not report DRAM stats")
	}
}

func TestKindNames(t *testing.T) {
	for _, k := range []sim.CoreKind{sim.Banked, sim.ViReC, sim.Software, sim.PrefetchFull, sim.PrefetchExact} {
		got, err := sim.ParseCoreKind(k.String())
		if err != nil || got != k {
			t.Errorf("round trip %v failed: %v %v", k, got, err)
		}
	}
	if _, err := sim.ParseCoreKind("bogus"); err == nil {
		t.Error("bogus kind must fail")
	}
}

func TestDeterministicResults(t *testing.T) {
	run := func() uint64 {
		res, err := sim.Simulate(sim.Config{
			Kind:           sim.ViReC,
			ThreadsPerCore: 6,
			Workload:       gather(t),
			Iters:          64,
			ContextPct:     60,
			Policy:         vrmu.LRC,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic: %d vs %d cycles", a, b)
	}
}

func TestMissingWorkloadRejected(t *testing.T) {
	if _, err := sim.New(sim.Config{Kind: sim.Banked}); err == nil {
		t.Error("config without workload must be rejected")
	}
}

func TestBeladyOraclePolicy(t *testing.T) {
	// The oracle policy must run correctly end to end and perform at
	// least as well as PLRU under contention.
	run := func(pol vrmu.Policy) uint64 {
		res, err := sim.Simulate(sim.Config{
			Kind: sim.ViReC, ThreadsPerCore: 8,
			Workload: gather(t), Iters: 96,
			ContextPct: 60, Policy: pol,
			ValidateValues: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	plru := run(vrmu.PLRU)
	oracle := run(vrmu.Belady)
	if oracle > plru {
		t.Errorf("Belady oracle (%d cycles) slower than PLRU (%d)", oracle, plru)
	}
}

func TestICacheDefaultOnAndWarm(t *testing.T) {
	res, err := sim.Simulate(sim.Config{
		Kind: sim.Banked, ThreadsPerCore: 4,
		Workload: gather(t), Iters: 64,
		ValidateValues: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ICacheStats) != 1 {
		t.Fatalf("icache stats missing: %d", len(res.ICacheStats))
	}
	st := res.ICacheStats[0]
	if st.Hits == 0 {
		t.Error("icache never hit")
	}
	// The kernel loop fits trivially: after warmup everything hits.
	if hr := st.HitRate(); hr < 0.99 {
		t.Errorf("icache hit rate %.3f, want ~1 for a tiny loop", hr)
	}
}

func TestWorkloadMix(t *testing.T) {
	g, _ := workloads.ByName("gather")
	red, _ := workloads.ByName("reduction")
	fp, _ := workloads.ByName("fpdot")
	res, err := sim.Simulate(sim.Config{
		Kind: sim.ViReC, ThreadsPerCore: 6,
		WorkloadMix: []*workloads.Spec{g, red, fp},
		Iters:       48,
		ContextPct:  80, Policy: vrmu.LRC,
		ValidateValues: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Insts == 0 {
		t.Error("mix committed nothing")
	}
}

func TestWorkloadMixBelady(t *testing.T) {
	// Per-thread oracle sequences must match each thread's own kernel.
	g, _ := workloads.ByName("gather")
	h, _ := workloads.ByName("histogram")
	_, err := sim.Simulate(sim.Config{
		Kind: sim.ViReC, ThreadsPerCore: 4,
		WorkloadMix: []*workloads.Spec{g, h},
		Iters:       32,
		ContextPct:  60, Policy: vrmu.Belady,
		ValidateValues: true,
	})
	if err != nil {
		t.Fatal(err)
	}
}
