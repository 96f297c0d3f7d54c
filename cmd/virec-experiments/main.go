// Command virec-experiments regenerates the tables and figures of the
// ViReC paper's evaluation.
//
// Usage:
//
//	virec-experiments -list
//	virec-experiments -exp fig12
//	virec-experiments -exp all -quick
//	virec-experiments -exp all -parallel 8
//	virec-experiments -exp fig9 -quick -farm http://localhost:7741
//
// With -farm URL each experiment is submitted to a virec-farm server as
// a job instead of running inline; the output bytes are identical either
// way (repeat submissions are served from the farm's content-addressed
// result cache).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"github.com/virec/virec/internal/experiments"
	"github.com/virec/virec/internal/farm"
	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/telemetry"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment to run (or 'all')")
		list     = flag.Bool("list", false, "list available experiments")
		quick    = flag.Bool("quick", false, "smaller sweeps for a fast run")
		iters    = flag.Int("iters", 0, "override per-thread iteration count")
		format   = flag.String("format", "text", "output format: text|csv|json")
		parallel = flag.Int("parallel", 0, "sweep workers: 0 = all CPUs, 1 = serial (output is identical either way)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		metrics  = flag.String("metrics-json", "", "write the merged telemetry snapshot of every simulation run as JSON to this file ('-' = stdout)")
		farmURL  = flag.String("farm", "", "submit experiments to this virec-farm server instead of running inline")
	)
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, n := range experiments.Names() {
			fmt.Printf("  %-10s %s\n", n, experiments.Title(n))
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	if err := experiments.CheckFormat(*format); err != nil {
		fmt.Fprintln(os.Stderr, "virec-experiments:", err)
		os.Exit(2)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "virec-experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "virec-experiments:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "virec-experiments:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize final live-heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "virec-experiments:", err)
			}
		}()
	}

	opt := experiments.Options{Quick: *quick, Iters: *iters, Parallel: *parallel}

	// With -metrics-json every simulation's telemetry snapshot is folded
	// (in submission order, so the output is deterministic) into one
	// aggregate document across all requested experiments.
	var agg *telemetry.Snapshot
	if *metrics != "" {
		opt.OnResult = func(res *sim.Result) {
			if res.Metrics == nil {
				return
			}
			if agg == nil {
				agg = &telemetry.Snapshot{}
			}
			agg.Merge(res.Metrics)
		}
	}

	names := []string{*exp}
	if *exp == "all" {
		names = experiments.Names()
	}

	if *farmURL != "" {
		if *metrics != "" {
			fmt.Fprintln(os.Stderr, "virec-experiments: -metrics-json is inline-only; with -farm, watch /api/v1/metrics/stream instead (every event is the farm's whole metrics snapshot)")
			os.Exit(2)
		}
		if err := runOnFarm(*farmURL, names, *quick, *iters, *format); err != nil {
			fmt.Fprintln(os.Stderr, "virec-experiments:", err)
			os.Exit(1)
		}
		return
	}

	for _, name := range names {
		rep, err := experiments.Run(name, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "virec-experiments: %v\n", err)
			os.Exit(1)
		}
		out, err := rep.Render(*format)
		if err != nil {
			fmt.Fprintln(os.Stderr, "virec-experiments:", err)
			os.Exit(1)
		}
		os.Stdout.Write(out)
	}

	if *metrics != "" {
		if err := writeSnapshot(*metrics, agg); err != nil {
			fmt.Fprintln(os.Stderr, "virec-experiments:", err)
			os.Exit(1)
		}
	}
}

// runOnFarm submits one job per experiment to a virec-farm server and
// prints each result as it completes, in experiment order. The bytes a
// job yields are exactly what the inline path would have printed, so
// farm and inline runs diff clean.
func runOnFarm(url string, names []string, quick bool, iters int, format string) error {
	ctx := context.Background()
	client := farm.NewClient(url)

	// Submit everything up front (the farm runs jobs concurrently),
	// then collect in submission order.
	ids := make([]uint64, len(names))
	cached := make([]bool, len(names))
	for i, name := range names {
		job, err := client.Submit(ctx, &farm.Spec{
			Kind: farm.KindExperiment,
			Experiment: &farm.ExperimentSpec{
				Name:   name,
				Quick:  quick,
				Iters:  iters,
				Format: format,
			},
		})
		if err != nil {
			return fmt.Errorf("submitting %s: %w", name, err)
		}
		ids[i] = job.ID
		// Already done at submission time: the farm served the result
		// from its content-addressed cache without executing anything.
		cached[i] = job.State == farm.StateDone
	}
	for i, id := range ids {
		out, job, err := client.WaitResult(ctx, id)
		if err != nil {
			return fmt.Errorf("experiment %s (job %d): %w", names[i], id, err)
		}
		if cached[i] || job.FromCache {
			fmt.Fprintf(os.Stderr, "virec-experiments: %s served from farm cache (%s)\n", names[i], job.Key[:12])
		}
		os.Stdout.Write(out)
	}
	return nil
}

// writeSnapshot writes the aggregate snapshot as indented JSON to path,
// with "-" selecting stdout.
func writeSnapshot(path string, snap *telemetry.Snapshot) error {
	if snap == nil {
		return fmt.Errorf("no simulation produced a telemetry snapshot")
	}
	data, err := snap.MarshalIndentJSON()
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
