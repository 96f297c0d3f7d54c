package experiments

import (
	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/stats"
	"github.com/virec/virec/internal/vrmu"
	"github.com/virec/virec/internal/workloads"
)

func init() {
	register("fig11", "Performance scaling with increased system load: "+
		"1/2/4/8 ViReC processors running gather at 8 vs 10 threads", fig11)
}

func fig11(opt Options) (*Report, error) {
	w, _ := workloads.ByName("gather")
	iters := opt.iters(192)
	coreCounts := []int{1, 2, 4, 8}
	if opt.Quick {
		coreCounts = []int{1, 4}
	}

	table := stats.NewTable("cores", "threads", "perf_per_core(iters/us)",
		"dram_avg_latency", "total_perf")
	rep := &Report{}

	type cell struct{ perf, lat float64 }
	results := map[[2]int]cell{}

	threadCounts := []int{8, 10}
	jobs := newBatch(len(coreCounts) * len(threadCounts))
	type point struct{ cores, threads, job int }
	var points []point
	for _, cores := range coreCounts {
		for _, threads := range threadCounts {
			points = append(points, point{cores, threads, jobs.add(sim.Config{
				Kind: sim.ViReC, Cores: cores, ThreadsPerCore: threads,
				Workload: w, Iters: iters,
				ContextPct: 60, Policy: vrmu.LRC,
			})})
		}
	}
	sims, err := jobs.run(opt)
	if err != nil {
		return nil, err
	}
	for _, p := range points {
		res := sims[p.job]
		total := perfOf(p.cores*p.threads*iters, res.Cycles, 1.0)
		lat := res.DRAMStats.AvgReadLatency()
		results[[2]int{p.cores, p.threads}] = cell{perf: total / float64(p.cores), lat: lat}
		table.AddRow(p.cores, p.threads, total/float64(p.cores), lat, total)
	}
	rep.Tables = append(rep.Tables, table)

	lo := results[[2]int{coreCounts[0], 8}]
	hi := results[[2]int{coreCounts[len(coreCounts)-1], 8}]
	rep.notef("observed DRAM latency grows from %.0f to %.0f cycles as cores scale "+
		"from %d to %d", lo.lat, hi.lat, coreCounts[0], coreCounts[len(coreCounts)-1])
	minCores := coreCounts[0]
	maxCores := coreCounts[len(coreCounts)-1]
	gainLo := results[[2]int{minCores, 10}].perf / results[[2]int{minCores, 8}].perf
	gainHi := results[[2]int{maxCores, 10}].perf / results[[2]int{maxCores, 8}].perf
	rep.notef("10-thread gain over 8 threads grows with system load: %.3fx at %d core(s) "+
		"-> %.3fx at %d cores (paper: 10 threads best at 4-8 processors; the effect "+
		"is weaker here because 8 threads already over-cover this system's latency)",
		gainLo, minCores, gainHi, maxCores)
	return rep, nil
}
