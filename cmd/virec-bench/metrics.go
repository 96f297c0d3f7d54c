package main

import (
	"slices"

	"github.com/virec/virec/internal/experiments"
)

// metricDef is one metric the harness reports. The names are a contract:
// BENCHMARK.json, README.md and later comparisons cite them.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"

	// End-to-end metrics only.
	Bound float64  // share of the parent's median a change may worsen it by
	Floor float64  // absolute worsening that never counts (setup_s: 20 ms)
	Only  []string // workloads reporting it; nil means every workload
	Gated bool     // listed in BENCHMARK.json's end_to_end: every workload reports it

	// Exact marks a count read in the untraced run that repeats exactly
	// (or nearly so); -compare diffs it instead of calling a speed-up.
	Exact bool
}

// reports says whether workload w reports end-to-end metric m.
func (m metricDef) reports(w string) bool {
	return m.Only == nil || slices.Contains(m.Only, w)
}

var (
	simWorkloads = []string{"regen", "stall"}
	onlyDifftest = []string{"difftest"}
	onlyFarm     = []string{"farm"}
)

// endToEnd lists the metrics a user of the simulator sees. The gated ones
// are defined on every workload, are never zero and repeat within their
// bound from run to run on a shared host; the rest live in results.json
// and -compare. Host time is not gated: on a shared host it drifts by 20%
// and more within minutes, past any bound that would still catch a
// regression. Nor is peak_rss_mb: difftest's peak depends on what the
// garbage collector finds its two workers holding, and varies by 15%.
// alloc_mb, the heap a pass allocates, is where half the host CPU goes
// (the allocator and the collector), and it repeats.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.020, Gated: true},
	{Name: "alloc_mb", Unit: "MiB", Better: "lower", Bound: 0.10, Gated: true},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.10},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
	{Name: "fail_frac", Unit: "frac", Better: "lower", Bound: 0},
	{Name: "sim_mcycles_per_s", Unit: "Mcycles/s", Better: "higher", Bound: 0.10, Only: simWorkloads},
	{Name: "sim_minsts_per_s", Unit: "Minsts/s", Better: "higher", Bound: 0.10, Only: simWorkloads},
	{Name: "commits_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, Only: onlyDifftest},
	{Name: "roundtrip_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10, Only: onlyFarm},
	{Name: "roundtrip_ms_p95", Unit: "ms", Better: "lower", Bound: 0.15, Only: onlyFarm},
	{Name: "cachehit_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10, Only: onlyFarm},
	{Name: "cachehit_ms_p95", Unit: "ms", Better: "lower", Bound: 0.15, Only: onlyFarm},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, Only: onlyFarm},
}

// hostLayers maps each attributed package to the layer name its CPU self
// time is reported under (host.<layer>_s). Packages not listed fall into
// "other", except the Go runtime, which is "goruntime".
var hostLayers = map[string]string{
	"github.com/virec/virec/internal/sweep":       "sweep",
	"github.com/virec/virec/internal/sim":         "sim",
	"github.com/virec/virec/internal/cpu":         "cpu",
	"github.com/virec/virec/internal/cpu/regfile": "regfile",
	"github.com/virec/virec/internal/vrmu":        "vrmu",
	"github.com/virec/virec/internal/mem":         "mem",
	"github.com/virec/virec/internal/mem/cache":   "cache",
	"github.com/virec/virec/internal/mem/dram":    "dram",
	"github.com/virec/virec/internal/mem/xbar":    "xbar",
	"github.com/virec/virec/internal/interp":      "interp",
	"github.com/virec/virec/internal/isa":         "isa",
	"github.com/virec/virec/internal/harden":      "harden",
	"github.com/virec/virec/internal/difftest":    "difftest",
	"github.com/virec/virec/internal/farm":        "farm",
	"github.com/virec/virec/internal/telemetry":   "telemetry",
	"github.com/virec/virec/internal/workloads":   "workloads",
}

// hostLayerOrder is the report order of the host.<layer>_s metrics.
var hostLayerOrder = []string{
	"sweep", "sim", "cpu", "regfile", "vrmu", "mem", "cache", "dram", "xbar",
	"interp", "isa", "harden", "difftest", "farm", "telemetry", "workloads",
	"goruntime", "other",
}

// perLayer lists the per-layer metrics in report order. Every workload
// reports all of them; a layer the workload does not reach reads 0.
// Better gives the direction in which the watched layer improves.
func perLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, exact bool, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better, Exact: exact})
		}
	}
	for _, n := range experiments.Names() {
		add("s", "lower", false, "span.exp."+n+"_s")
	}
	for _, l := range hostLayerOrder {
		add("s", "lower", false, "host."+l+"_s")
	}
	add("s", "lower", false, "host.calib_s")
	add("frac", "higher", false, "sweep.parallel_eff")
	add("s", "lower", false, "span.sim_new_s", "span.sim_run_s")
	add("count", "lower", true, "sim.cycles")
	add("count", "higher", true, "sim.insts")
	add("count", "lower", true, "sim.ticks")
	add("frac", "higher", true, "sim.skip_frac")
	add("ns", "lower", false, "cost.ns_per_tick", "cost.ns_per_inst")
	add("count", "lower", true, "model.context_switches", "model.mem_wait_cycles")
	add("frac", "higher", true, "model.rf_hit_rate")
	add("count", "lower", true, "model.rf_evictions", "model.dcache_accesses")
	add("frac", "lower", true, "model.dcache_miss_rate")
	add("count", "lower", true, "model.dram_reads")
	add("frac", "higher", true, "model.dram_row_hit_rate")
	add("count", "lower", true, "model.xbar_forwarded")
	add("ns/op", "lower", false, "probe.vrmu_select_ns", "probe.cache_access_ns", "probe.dram_access_ns")
	add("ns/inst", "lower", false, "probe.interp_ns_per_inst")
	add("allocs/op", "lower", true, "probe.vrmu_select_allocs", "probe.cache_access_allocs",
		"probe.dram_access_allocs", "probe.interp_allocs")
	add("s", "lower", false, "span.precode_s", "span.interp_run_s", "span.generate_s", "span.check_s")
	add("count", "higher", true, "difftest.commits")
	add("ms", "lower", false, "span.submit_ms_p50", "span.wait_ms_p50", "span.inline_exec_ms_p50",
		"farm.queue_ms_p50", "farm.exec_ms_p50")
	add("1/job", "lower", false, "farm.http_reqs_per_job")
	add("count", "higher", true, "farm.cache_hits")
	add("1/kcycle", "lower", true, "go.allocs_per_kcycle")
	add("MB/Mcycle", "lower", true, "go.alloc_mb_per_mcycle")
	add("count", "lower", true, "go.gc_cycles")
	add("frac", "lower", true, "go.gc_cpu_frac")
	add("frac", "lower", false, "trace.overhead_frac")
	return out
}
