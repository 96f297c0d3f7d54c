package experiments

import (
	"fmt"

	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/stats"
	"github.com/virec/virec/internal/vrmu"
	"github.com/virec/virec/internal/workloads"
)

func init() {
	register("fig9", "Performance of ViReC (40/60/80% context) vs a banked "+
		"processor and full/exact register prefetching at 4/6/8 threads", fig9)
}

// fig9Workloads returns the kernels used in the performance comparison.
func fig9Workloads(quick bool) []*workloads.Spec {
	if !quick {
		return workloads.All()
	}
	names := []string{"gather", "stride", "meabo", "reduction"}
	var out []*workloads.Spec
	for _, n := range names {
		w, _ := workloads.ByName(n)
		out = append(out, w)
	}
	return out
}

func fig9(opt Options) (*Report, error) {
	iters := opt.iters(192)
	threadCounts := []int{4, 6, 8}
	if opt.Quick {
		threadCounts = []int{4, 8}
	}
	wls := fig9Workloads(opt.Quick)

	table := stats.NewTable("workload", "threads", "banked",
		"virec40", "virec60", "virec80", "pf_full", "pf_exact")
	rep := &Report{}

	cols := []struct {
		name string
		kind sim.CoreKind
		pct  int
	}{
		{"virec40", sim.ViReC, 40},
		{"virec60", sim.ViReC, 60},
		{"virec80", sim.ViReC, 80},
		{"pf_full", sim.PrefetchFull, 0},
		{"pf_exact", sim.PrefetchExact, 0},
	}

	// Declare every run up front, fan them out, then reduce in order.
	jobs := newBatch(len(wls) * len(threadCounts) * (1 + len(cols)))
	type cell struct {
		w       *workloads.Spec
		threads int
		banked  int   // job index of the banked baseline
		runs    []int // job indices of the cols configs
	}
	var cells []cell
	for _, w := range wls {
		for _, threads := range threadCounts {
			cl := cell{w: w, threads: threads}
			cl.banked = jobs.add(sim.Config{
				Kind: sim.Banked, ThreadsPerCore: threads,
				Workload: w, Iters: iters, Policy: vrmu.LRC,
			})
			for _, c := range cols {
				cl.runs = append(cl.runs, jobs.add(sim.Config{
					Kind: c.kind, ThreadsPerCore: threads,
					Workload: w, Iters: iters,
					ContextPct: c.pct, Policy: vrmu.LRC,
				}))
			}
			cells = append(cells, cl)
		}
	}
	results, err := jobs.run(opt)
	if err != nil {
		return nil, err
	}

	// Collect normalized performance (to banked) for the mean rows.
	type key struct {
		threads int
		config  string
	}
	norm := map[key][]float64{}

	for _, cl := range cells {
		banked := perfOf(cl.threads*iters, results[cl.banked].Cycles, 1.0)
		row := []any{cl.w.Name, cl.threads, 1.0}
		for i, c := range cols {
			perf := perfOf(cl.threads*iters, results[cl.runs[i]].Cycles, 1.0)
			rel := perf / banked
			row = append(row, rel)
			norm[key{cl.threads, c.name}] = append(norm[key{cl.threads, c.name}], rel)
		}
		table.AddRow(row...)
	}
	rep.Tables = append(rep.Tables, table)

	// geo reduces one (threads, config) series, failing loudly when a
	// series is empty or carries a nonpositive measurement instead of
	// letting a NaN land in the table.
	geo := func(threads int, config string) (float64, error) {
		g, err := stats.GeoMeanErr(norm[key{threads, config}])
		if err != nil {
			return 0, fmt.Errorf("fig9: %d threads, %s: %w", threads, config, err)
		}
		return g, nil
	}

	mean := stats.NewTable("threads", "virec40", "virec60", "virec80", "pf_full", "pf_exact")
	for _, threads := range threadCounts {
		row := []any{threads}
		for _, c := range []string{"virec40", "virec60", "virec80", "pf_full", "pf_exact"} {
			g, err := geo(threads, c)
			if err != nil {
				return nil, err
			}
			row = append(row, g)
		}
		mean.AddRow(row...)
	}
	rep.Tables = append(rep.Tables, mean)

	for _, threads := range threadCounts {
		v80, err80 := geo(threads, "virec80")
		v40, err40 := geo(threads, "virec40")
		if err80 != nil || err40 != nil {
			continue // already reported via the mean table above
		}
		rep.notef("%d threads: ViReC keeps %s of banked performance at 80%% context, %s at 40%%",
			threads, fmt.Sprintf("%.1f%%", v80*100), fmt.Sprintf("%.1f%%", v40*100))
	}
	full := stats.GeoMean(norm[key{threadCounts[len(threadCounts)-1], "pf_full"}])
	rep.notef("full-context prefetching reaches only %.1f%% of banked at %d threads "+
		"(paper: almost always worse than caching)", full*100, threadCounts[len(threadCounts)-1])
	return rep, nil
}
