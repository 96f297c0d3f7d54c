package experiments

import (
	"fmt"

	"github.com/virec/virec/internal/area"
	"github.com/virec/virec/internal/cpu/regfile"
	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/stats"
	"github.com/virec/virec/internal/vrmu"
	"github.com/virec/virec/internal/workloads"
)

func init() {
	register("headline", "Section 6.1 headline comparisons: ViReC vs banked, "+
		"vs the NSF, vs oracle prefetching, plus design-choice ablations", headline)
	register("ablations", "Design-choice ablations: rollback queue, dummy "+
		"destinations, pinning, blocking BSI, sysreg prefetch", ablations)
}

// nsfOpts approximates the Named-State Register File [41]: a cached
// register file with a PLRU policy and none of ViReC's system-level
// optimizations (no pinning, blocking BSI, no dummy destinations, no
// system-register prefetching).
func nsfOpts() regfile.ViReCConfig {
	return regfile.ViReCConfig{
		BlockingBSI:      true,
		NoDummyDest:      true,
		NoSysregPrefetch: true,
	}
}

func headline(opt Options) (*Report, error) {
	iters := opt.iters(160)
	wls := fig9Workloads(opt.Quick)
	rep := &Report{}

	type cfgRow struct {
		name string
		cfg  sim.Config
	}
	rows := []cfgRow{
		{"banked", sim.Config{Kind: sim.Banked}},
		{"virec-100", sim.Config{Kind: sim.ViReC, ContextPct: 100, Policy: vrmu.LRC}},
		{"virec-80", sim.Config{Kind: sim.ViReC, ContextPct: 80, Policy: vrmu.LRC}},
		{"virec-60", sim.Config{Kind: sim.ViReC, ContextPct: 60, Policy: vrmu.LRC}},
		{"virec-40", sim.Config{Kind: sim.ViReC, ContextPct: 40, Policy: vrmu.LRC}},
		{"nsf-80", sim.Config{Kind: sim.ViReC, ContextPct: 80, Policy: vrmu.PLRU, ViReCOpts: nsfOpts(), PinningDisabled: true}},
		{"nsf-40", sim.Config{Kind: sim.ViReC, ContextPct: 40, Policy: vrmu.PLRU, ViReCOpts: nsfOpts(), PinningDisabled: true}},
		{"prefetch-full", sim.Config{Kind: sim.PrefetchFull}},
		{"prefetch-exact", sim.Config{Kind: sim.PrefetchExact}},
	}

	// One job per (config row, workload); each row reduces to a geomean.
	jobs := newBatch(len(rows) * len(wls))
	for _, r := range rows {
		for _, w := range wls {
			c := r.cfg
			c.Workload = w
			c.Iters = iters
			c.ThreadsPerCore = 8
			jobs.add(c)
		}
	}
	results, err := jobs.run(opt)
	if err != nil {
		return nil, err
	}
	geo := func(row int) (float64, error) {
		var perfs []float64
		for i := range wls {
			perfs = append(perfs, perfOf(8*iters, results[row*len(wls)+i].Cycles, 1.0))
		}
		return stats.GeoMeanErr(perfs)
	}

	banked, err := geo(0)
	if err != nil {
		return nil, fmt.Errorf("headline: banked row: %w", err)
	}
	table := stats.NewTable("config", "geomean_perf", "vs_banked")
	table.AddRow("banked", banked, 1.0)
	perf := map[string]float64{"banked": banked}
	for i, r := range rows[1:] {
		p, err := geo(i + 1)
		if err != nil {
			return nil, fmt.Errorf("headline: %s row: %w", r.name, err)
		}
		perf[r.name] = p
		table.AddRow(r.name, p, p/banked)
	}
	rep.Tables = append(rep.Tables, table)

	m := area.Default()
	w0, _ := workloads.ByName("gather")
	active := len(w0.ActiveRegs())
	rep.notef("ViReC @100%% context: %.1f%% of banked performance at %.0f%% of its area "+
		"(paper: 95%% at 60%%)",
		100*perf["virec-100"]/banked, 100*m.ViReCCore(8*active)/m.BankedCore(8))
	rep.notef("ViReC vs NSF: %s at 80%% context, %s at 40%% "+
		"(paper: +133%% / +125%%)",
		stats.Percent(perf["virec-80"]/perf["nsf-80"]),
		stats.Percent(perf["virec-40"]/perf["nsf-40"]))
	rep.notef("exact oracle prefetch reaches %.1f%% of ViReC@80%% and %.1f%% of ViReC@40%% "+
		"(paper: loses at 60-80%%, wins ~3%% at 40%%)",
		100*perf["prefetch-exact"]/perf["virec-80"],
		100*perf["prefetch-exact"]/perf["virec-40"])
	rep.notef("full-context prefetch: %.1f%% of banked (paper: almost always worst)",
		100*perf["prefetch-full"]/banked)
	return rep, nil
}

func ablations(opt Options) (*Report, error) {
	iters := opt.iters(160)
	wls := fig9Workloads(opt.Quick)
	rep := &Report{}

	cases := []struct {
		name string
		vc   regfile.ViReCConfig
		pin  bool
	}{
		{"full virec (60% ctx)", regfile.ViReCConfig{}, false},
		{"no rollback queue (stale C bits)", regfile.ViReCConfig{NoRollback: true}, false},
		{"no dummy destinations", regfile.ViReCConfig{NoDummyDest: true}, false},
		{"blocking BSI", regfile.ViReCConfig{BlockingBSI: true}, false},
		{"no sysreg prefetch", regfile.ViReCConfig{NoSysregPrefetch: true}, false},
		{"no register-line pinning", regfile.ViReCConfig{}, true},
	}

	jobs := newBatch(len(cases) * len(wls))
	for _, c := range cases {
		for _, w := range wls {
			jobs.add(sim.Config{
				Kind: sim.ViReC, ThreadsPerCore: 8,
				Workload: w, Iters: iters,
				ContextPct: 60, Policy: vrmu.LRC,
				ViReCOpts: c.vc, PinningDisabled: c.pin,
			})
		}
	}
	results, err := jobs.run(opt)
	if err != nil {
		return nil, err
	}
	geo := func(row int) (float64, error) {
		var perfs []float64
		for i := range wls {
			perfs = append(perfs, perfOf(8*iters, results[row*len(wls)+i].Cycles, 1.0))
		}
		return stats.GeoMeanErr(perfs)
	}

	baseline, err := geo(0)
	if err != nil {
		return nil, fmt.Errorf("ablations: baseline row: %w", err)
	}
	table := stats.NewTable("ablation", "geomean_perf", "vs_full_virec")
	table.AddRow(cases[0].name, baseline, 1.0)
	for i, c := range cases[1:] {
		p, err := geo(i + 1)
		if err != nil {
			return nil, fmt.Errorf("ablations: %s row: %w", c.name, err)
		}
		table.AddRow(c.name, p, p/baseline)
	}
	rep.Tables = append(rep.Tables, table)
	rep.notef("each row removes one mechanism from Section 5; ratios below 1.0 " +
		"quantify that mechanism's contribution")
	return rep, nil
}
