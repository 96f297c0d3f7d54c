package sim_test

import (
	"bytes"
	"encoding/json"
	"runtime"
	"slices"
	"testing"

	"github.com/virec/virec/internal/cpu/regfile"
	"github.com/virec/virec/internal/harden"
	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/vrmu"
	"github.com/virec/virec/internal/workloads"
)

// TestRecycledSystemsMatchFresh runs systems of many shapes on components
// that released systems left behind, and holds every result to the one the
// same config gives on freshly allocated components. Each config first
// runs after two collections, which empty every pool; then the list runs
// forward and reversed, so each system is rebuilt from systems of other
// kinds, thread counts, policies and cache sizes. Cycles, instructions,
// every Stats struct and the metrics JSON must all match. The forward
// results are kept while the reversed pass runs, and must not change: a
// Result shares no storage with a component that goes back to a pool.
func TestRecycledSystemsMatchFresh(t *testing.T) {
	w := func(name string) *workloads.Spec {
		s, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		return s
	}
	cfgs := []sim.Config{
		{Kind: sim.Banked, ThreadsPerCore: 1, Workload: w("gather")},
		{Kind: sim.ViReC, ThreadsPerCore: 8, Workload: w("gather"), ContextPct: 80, Policy: vrmu.LRC},
		{Kind: sim.ViReC, ThreadsPerCore: 8, Workload: w("spmv"), ContextPct: 60, Policy: vrmu.LRCH},
		{Kind: sim.ViReC, ThreadsPerCore: 4, Workload: w("chase"), ContextPct: 50, Policy: vrmu.Belady},
		{Kind: sim.ViReC, ThreadsPerCore: 10, Workload: w("stride"), ContextPct: 60, Policy: vrmu.PLRU},
		{Kind: sim.ViReC, ThreadsPerCore: 6, Workload: w("scatter"), ContextPct: 60, Policy: vrmu.LRC,
			ViReCOpts: regfile.ViReCConfig{BlockingBSI: true, NoSysregPrefetch: true}},
		{Kind: sim.ViReC, ThreadsPerCore: 4, Workload: w("triad"), ContextPct: 80, Policy: vrmu.LRC,
			ViReCOpts: regfile.ViReCConfig{PrefetchNext: true}},
		{Kind: sim.Software, ThreadsPerCore: 3, Workload: w("histogram")},
		{Kind: sim.PrefetchFull, ThreadsPerCore: 4, Workload: w("spmv")},
		{Kind: sim.PrefetchExact, ThreadsPerCore: 8, Workload: w("gather")},
		{Kind: sim.ViReC, Cores: 2, ThreadsPerCore: 4, Workload: w("lookup"), ContextPct: 80, Policy: vrmu.LRC},
		{Kind: sim.ViReC, ThreadsPerCore: 4, Workload: w("scatter"), ContextPct: 60, Policy: vrmu.LRC,
			DCacheBytes: 2048, Harden: harden.Config{FaultSeed: 77}},
		{Kind: sim.Banked, ThreadsPerCore: 2, Workload: w("chase"), FixedMemLatency: 120},
		{Kind: sim.ViReC, ThreadsPerCore: 2, Workload: w("vecadd"), ContextPct: 100, Policy: vrmu.LRC,
			TraceEvents: 256},
		{Kind: sim.ViReC, ThreadsPerCore: 5, WorkloadMix: []*workloads.Spec{w("gather"), w("chase")},
			ContextPct: 70, Policy: vrmu.Belady, DCacheBytes: 4096},
	}
	for i := range cfgs {
		cfgs[i].Iters = 48
		cfgs[i].ValidateValues = true
	}

	type run struct {
		res *sim.Result
		out []byte
	}
	simulate := func(i int) run {
		res, err := sim.Simulate(cfgs[i])
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		return run{res, outcome(t, res)}
	}
	fresh := make([]run, len(cfgs))
	for i := range cfgs {
		runtime.GC()
		runtime.GC()
		fresh[i] = simulate(i)
	}
	check := func(pass string, i int, got run) {
		t.Helper()
		want := fresh[i]
		if got.res.Cycles != want.res.Cycles || got.res.Insts != want.res.Insts {
			t.Errorf("%s, config %d (%s): %d cycles and %d insts, fresh %d and %d", pass, i,
				cfgs[i].Kind, got.res.Cycles, got.res.Insts, want.res.Cycles, want.res.Insts)
			return
		}
		if !bytes.Equal(got.out, want.out) {
			t.Errorf("%s, config %d (%s): stats or metrics differ from a fresh run:\n got   %.400s\n fresh %.400s",
				pass, i, cfgs[i].Kind, got.out, want.out)
		}
	}
	forward := make([]run, len(cfgs))
	insts := make([][]uint64, len(cfgs))
	for i := range cfgs {
		forward[i] = simulate(i)
		check("forward", i, forward[i])
		insts[i] = slices.Clone(forward[i].res.CoreStats[0].InstsPerThread)
	}
	for i := len(cfgs) - 1; i >= 0; i-- {
		check("reversed", i, simulate(i))
	}
	for i, r := range forward {
		if got := r.res.CoreStats[0].InstsPerThread; !slices.Equal(got, insts[i]) {
			t.Errorf("config %d: a kept result's InstsPerThread changed from %v to %v while later systems ran",
				i, insts[i], got)
		}
		check("kept forward result", i, run{r.res, outcome(t, r.res)})
	}
}

// outcome renders everything a Result measures, so later comparisons see
// the values as they were when the run ended.
func outcome(t *testing.T, res *sim.Result) []byte {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
