package experiments

import (
	"github.com/virec/virec/internal/cpu/regfile"
	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/stats"
	"github.com/virec/virec/internal/vrmu"
)

func init() {
	register("extensions", "Future-work extensions from the paper's "+
		"conclusion: group evictions and prefetch-combined caching", extensions)
}

func extensions(opt Options) (*Report, error) {
	iters := opt.iters(160)
	wls := fig9Workloads(opt.Quick)
	rep := &Report{}

	pcts := []int{40, 60, 80}
	if opt.Quick {
		pcts = []int{40, 80}
	}

	variants := []regfile.ViReCConfig{
		{},
		{GroupEvict: true},
		{PrefetchNext: true},
		{GroupEvict: true, PrefetchNext: true},
	}

	jobs := newBatch(len(pcts) * len(variants) * len(wls))
	for _, pct := range pcts {
		for _, vc := range variants {
			for _, w := range wls {
				jobs.add(sim.Config{
					Kind: sim.ViReC, ThreadsPerCore: 8,
					Workload: w, Iters: iters,
					ContextPct: pct, Policy: vrmu.LRC,
					ViReCOpts: vc,
				})
			}
		}
	}
	results, err := jobs.run(opt)
	if err != nil {
		return nil, err
	}
	geo := func(cell int) float64 {
		var perfs []float64
		for i := range wls {
			perfs = append(perfs, perfOf(8*iters, results[cell*len(wls)+i].Cycles, 1.0))
		}
		return stats.GeoMean(perfs)
	}

	table := stats.NewTable("ctx%", "base_lrc", "group_evict", "prefetch_next", "both")
	var worstBoth, bestBoth float64 = 2, 0
	for pi := range pcts {
		cell := pi * len(variants)
		base := geo(cell)
		group := geo(cell + 1)
		pf := geo(cell + 2)
		both := geo(cell + 3)
		table.AddRow(pcts[pi], 1.0, group/base, pf/base, both/base)
		if both/base < worstBoth {
			worstBoth = both / base
		}
		if both/base > bestBoth {
			bestBoth = both / base
		}
	}
	rep.Tables = append(rep.Tables, table)
	rep.notef("combined extensions range %.3fx-%.3fx of baseline LRC across "+
		"context sizes (the paper leaves these to future work; prefetching "+
		"helps most under high contention where cold fills dominate)",
		worstBoth, bestBoth)
	return rep, nil
}
