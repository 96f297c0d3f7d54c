// Command virec-sim runs a single near-memory simulation and prints its
// statistics. With -seeds N it becomes a multi-seed soak run: the same
// configuration is simulated N times under different data seeds, fanned
// across -parallel workers, with a per-seed summary table.
//
// Observability: -trace records a cycle-level event trace (Chrome
// trace_event JSON for chrome://tracing / Perfetto, or JSONL for scripted
// analysis), and -metrics-json exports the unified metrics registry —
// every counter, gauge and histogram of every simulated structure — as
// machine-readable JSON, taken once at the end of the run.
//
// Usage:
//
//	virec-sim -workload gather -kind virec -threads 8 -ctx 60
//	virec-sim -workload spmv -kind banked -cores 4
//	virec-sim -workload gather -trace -trace-out gather.trace.json
//	virec-sim -workload gather -metrics-json - | jq .counters
//	virec-sim -workload gather -seeds 16 -parallel 0
//	virec-sim -list
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/virec/virec/internal/harden"
	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/stats"
	"github.com/virec/virec/internal/sweep"
	"github.com/virec/virec/internal/telemetry"
	"github.com/virec/virec/internal/vrmu"
	"github.com/virec/virec/internal/workloads"
)

func main() {
	var (
		workload  = flag.String("workload", "gather", "kernel to run")
		kindName  = flag.String("kind", "virec", "core kind: banked|virec|software|prefetch-full|prefetch-exact")
		cores     = flag.Int("cores", 1, "number of near-memory processors")
		threads   = flag.Int("threads", 8, "hardware threads per core")
		iters     = flag.Int("iters", 256, "inner-loop iterations per thread")
		ctx       = flag.Int("ctx", 100, "ViReC context percentage (40-100)")
		physRegs  = flag.Int("regs", 0, "ViReC physical registers (overrides -ctx)")
		policy    = flag.String("policy", "LRC", "replacement policy: PLRU|LRU|MRT-PLRU|MRT-LRU|LRC|Belady|LRC+H")
		dcacheKB  = flag.Int("dcache-kb", 8, "dcache size in KB")
		dcacheLat = flag.Int("dcache-lat", 2, "dcache hit latency in cycles")
		validate  = flag.Bool("validate", true, "golden-model value checking")
		list      = flag.Bool("list", false, "list workloads and exit")
		faults    = flag.Uint64("faults", 0, "fault-injection seed (0 disables); perturbs dcache timing, never values")
		faultPlan = flag.String("fault-plan", "all", "named fault schedule: jitter|busy|storm|all")
		watchdog  = flag.Uint64("watchdog", 0, "livelock watchdog window in cycles (0 disables)")
		checkEv   = flag.Uint64("check-every", 0, "run the invariant sweep every N cycles (0 = final sweep only)")
		seed      = flag.Uint64("seed", 0, "base data seed (0 = built-in default)")
		seeds     = flag.Int("seeds", 1, "number of seeds to soak: N > 1 runs the config once per seed")
		parallel  = flag.Int("parallel", 0, "soak-run sweep workers: 0 = all CPUs, 1 = serial")

		trace    = flag.Bool("trace", false, "record a cycle-level event trace (see -trace-out/-trace-format)")
		traceOut = flag.String("trace-out", "trace.json", "trace output file")
		traceFmt = flag.String("trace-format", "chrome", "trace format: chrome (load in chrome://tracing or Perfetto) | jsonl")
		traceBuf = flag.Int("trace-buf", 1<<16, "tracer ring capacity in events (streaming flush batch size)")

		metricsJSON = flag.String("metrics-json", "", "write the metrics-registry snapshot as JSON to this file ('-' = stdout)")
	)
	flag.Parse()

	if *list {
		fmt.Println("workloads:")
		for _, w := range workloads.All() {
			fmt.Printf("  %-10s [%s] %s (active regs: %d)\n",
				w.Name, w.Suite, w.Description, len(w.ActiveRegs()))
		}
		return
	}

	w, ok := workloads.ByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "virec-sim: unknown workload %q (try -list)\n", *workload)
		os.Exit(2)
	}
	kind, err := sim.ParseCoreKind(*kindName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "virec-sim:", err)
		os.Exit(2)
	}
	pol, err := vrmu.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "virec-sim:", err)
		os.Exit(2)
	}

	cfg := sim.Config{
		Kind:             kind,
		Cores:            *cores,
		ThreadsPerCore:   *threads,
		Workload:         w,
		Iters:            *iters,
		Seed:             *seed,
		ContextPct:       *ctx,
		PhysRegs:         *physRegs,
		Policy:           pol,
		DCacheBytes:      *dcacheKB * 1024,
		DCacheHitLatency: *dcacheLat,
		ValidateValues:   *validate,
		Harden: harden.Config{
			FaultSeed:      *faults,
			WatchdogWindow: *watchdog,
			CheckEvery:     *checkEv,
		},
	}
	if *faults != 0 {
		plan, ok := harden.PlanByName(*faultPlan)
		if !ok {
			fmt.Fprintf(os.Stderr, "virec-sim: unknown fault plan %q (try jitter|busy|storm|all)\n", *faultPlan)
			os.Exit(2)
		}
		cfg.Harden.Plan = plan
	}

	if *seeds > 1 {
		if *trace {
			fmt.Fprintln(os.Stderr, "virec-sim: -trace is a single-run flag; drop it or use -seeds 1")
			os.Exit(2)
		}
		soak(cfg, *seeds, *parallel, kind, w, *metricsJSON)
		return
	}

	// Trace export: the tracer streams full ring batches into the chosen
	// encoder, so a run of any length traces in bounded memory.
	var traceFile *os.File
	var chromeW *telemetry.ChromeWriter
	var jsonlW *bufio.Writer
	if *trace {
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "virec-sim:", err)
			os.Exit(1)
		}
		cfg.TraceEvents = *traceBuf
		switch *traceFmt {
		case "chrome":
			chromeW = telemetry.NewChromeWriter(traceFile)
			cfg.TraceSink = func(evs []telemetry.Event) { _ = chromeW.Write(evs) }
		case "jsonl":
			jsonlW = bufio.NewWriter(traceFile)
			cfg.TraceSink = func(evs []telemetry.Event) { _ = telemetry.WriteEventsJSONL(jsonlW, evs) }
		default:
			fmt.Fprintf(os.Stderr, "virec-sim: unknown trace format %q (try chrome|jsonl)\n", *traceFmt)
			os.Exit(2)
		}
	}

	metricsW, metricsClose, err := openOut(*metricsJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "virec-sim:", err)
		os.Exit(1)
	}

	system, err := sim.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "virec-sim:", err)
		os.Exit(1)
	}
	res, err := system.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "virec-sim:", err)
		os.Exit(1)
	}

	if *trace {
		var ferr error
		if chromeW != nil {
			ferr = chromeW.Close(res.Cycles)
		} else {
			ferr = jsonlW.Flush()
		}
		if cerr := traceFile.Close(); ferr == nil {
			ferr = cerr
		}
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "virec-sim: writing trace:", ferr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "virec-sim: wrote %d trace events to %s (%s)\n",
			system.Tracer.Total(), *traceOut, *traceFmt)
	}
	if metricsW != nil {
		if err := writeMetrics(metricsW, res.Metrics); err == nil {
			err = metricsClose()
		} else {
			metricsClose()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "virec-sim: writing metrics:", err)
			os.Exit(1)
		}
	}

	fmt.Printf("%s on %s: %d cores x %d threads x %d iters\n",
		kind, w.Name, *cores, *threads, *iters)
	fmt.Printf("cycles: %d   insts: %d   IPC: %.4f\n", res.Cycles, res.Insts, res.IPC)

	t := stats.NewTable("core", "insts", "ipc", "switches", "reg_stalls", "fwd_stalls", "dcache_hit%")
	for i, cs := range res.CoreStats {
		t.AddRow(i, cs.Insts, cs.IPC(), cs.ContextSwitches,
			cs.DecodeRegStalls, cs.DecodeFwdStalls,
			100*res.CacheStats[i].HitRate())
	}
	fmt.Print(t.String())

	if len(res.TagStats) > 0 {
		rt := stats.NewTable("core", "rf_hit%", "evictions", "dirty_evicts", "c_resets")
		for i, ts := range res.TagStats {
			rt.AddRow(i, 100*ts.HitRate(), ts.Evictions, ts.DirtyEvict, ts.CResets)
		}
		fmt.Print(rt.String())
	}
	if len(system.Injectors) > 0 {
		it := stats.NewTable("core", "jittered", "jitter_cyc", "busy_bursts", "busy_rejects", "storms", "storm_fetches")
		for i, inj := range system.Injectors {
			st := inj.Stats
			it.AddRow(i, st.Jittered, st.JitterCycles, st.BusyBursts, st.BusyRejects, st.Storms, st.StormFetches)
		}
		fmt.Print(it.String())
	}
	if res.DRAMStats != nil {
		fmt.Printf("dram: %d reads, %d writes, avg read latency %.1f cycles, row hits %d / misses %d / conflicts %d\n",
			res.DRAMStats.Reads, res.DRAMStats.Writes, res.DRAMStats.AvgReadLatency(),
			res.DRAMStats.RowHits, res.DRAMStats.RowMisses, res.DRAMStats.RowConflicts)
	}
	fmt.Println("verification: all threads match the golden model")
}

// openOut resolves a -metrics-json destination: "" = disabled, "-" =
// stdout (not closed), anything else = created file.
func openOut(path string) (io.Writer, func() error, error) {
	switch path {
	case "":
		return nil, nil, nil
	case "-":
		return os.Stdout, func() error { return nil }, nil
	default:
		f, err := os.Create(path)
		if err != nil {
			return nil, nil, err
		}
		return f, f.Close, nil
	}
}

// writeMetrics writes a snapshot as indented JSON.
func writeMetrics(w io.Writer, snap *telemetry.Snapshot) error {
	data, err := snap.MarshalIndentJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// soak runs the configuration once per seed across a sweep pool and
// prints a per-seed summary. Each run carries full value validation (when
// enabled) and the invariant sweep, so this is the CLI's stress mode:
// many deterministic runs over different data, in parallel. With
// -metrics-json the per-seed telemetry snapshots are merged (counters and
// histogram buckets add element-wise) into one aggregate document.
func soak(cfg sim.Config, n, workers int, kind sim.CoreKind, w *workloads.Spec, metricsJSON string) {
	base := cfg.Seed
	if base == 0 {
		base = 0x9e3779b97f4a7c15 // the sim package's default seed
	}
	cfgs := make([]sim.Config, n)
	for i := range cfgs {
		cfgs[i] = cfg
		cfgs[i].Seed = base + uint64(i)
	}
	results, agg, err := sweep.SimsMerged(sweep.New(workers), cfgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "virec-sim:", err)
		os.Exit(1)
	}

	if metricsJSON != "" {
		mw, mclose, err := openOut(metricsJSON)
		if err == nil {
			err = writeMetrics(mw, agg)
			if cerr := mclose(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "virec-sim: writing metrics:", err)
			os.Exit(1)
		}
	}

	fmt.Printf("%s on %s: %d seeds x %d cores x %d threads x %d iters\n",
		kind, w.Name, n, cfgs[0].Cores, cfg.ThreadsPerCore, cfg.Iters)
	t := stats.NewTable("seed", "cycles", "insts", "ipc", "switches", "rf_hit%")
	var minC, maxC uint64
	for i, res := range results {
		switches := uint64(0)
		for _, cs := range res.CoreStats {
			switches += cs.ContextSwitches
		}
		rfHit := float64(100)
		if len(res.TagStats) > 0 {
			rfHit = 100 * res.TagStats[0].HitRate()
		}
		t.AddRow(fmt.Sprintf("%#x", cfgs[i].Seed), res.Cycles, res.Insts, res.IPC, switches, rfHit)
		if i == 0 || res.Cycles < minC {
			minC = res.Cycles
		}
		if i == 0 || res.Cycles > maxC {
			maxC = res.Cycles
		}
	}
	fmt.Print(t.String())
	fmt.Printf("cycle spread: min %d, max %d (%.2f%%)\n",
		minC, maxC, 100*float64(maxC-minC)/float64(minC))
	fmt.Println("verification: all seeds match the golden model")
}
