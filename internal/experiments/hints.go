package experiments

import (
	"github.com/virec/virec/internal/difftest"
	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/stats"
	"github.com/virec/virec/internal/vrmu"
)

func init() {
	register("hints", "Compiler-assisted hint policies: LRC / LRC+H "+
		"vs the Belady oracle, over the shipped kernels and a generated population", hints)
}

// hintPopSeeds is the generated-kernel population size: large enough that
// the hint-policy claim holds distribution-wide, not just on the 20
// hand-written kernels. Quick mode keeps the experiment's shape with a
// small sample.
func hintPopSeeds(quick bool) int {
	if quick {
		return 24
	}
	return 500
}

func hints(opt Options) (*Report, error) {
	iters := opt.iters(160)
	wls := fig9Workloads(opt.Quick) // all 20 kernels; a 4-kernel subset in quick mode
	pcts := []int{80, 40}
	// LRC is the baseline LRC+H extends; Belady is the oracle ceiling it
	// chases with static facts instead of future knowledge.
	policies := []vrmu.Policy{vrmu.LRC, vrmu.LRCH, vrmu.Belady}

	header := []string{"workload", "ctx%"}
	for _, p := range policies {
		header = append(header, p.String())
	}
	hitTable := stats.NewTable(header...)
	rep := &Report{}

	type key struct {
		pct    int
		policy vrmu.Policy
	}
	hits := map[key][]float64{}
	perfs := map[key][]float64{}
	spillRates := map[key][]float64{}
	type hintAgg struct {
		deadVictims, elided, evictions, spills uint64
	}
	activity := map[key]*hintAgg{}

	jobs := newBatch(len(wls) * len(pcts) * len(policies))
	for _, w := range wls {
		for _, pct := range pcts {
			for _, pol := range policies {
				jobs.add(sim.Config{
					Kind: sim.ViReC, ThreadsPerCore: 8,
					Workload: w, Iters: iters,
					ContextPct: pct, Policy: pol,
				})
			}
		}
	}
	results, err := jobs.run(opt)
	if err != nil {
		return nil, err
	}

	job := 0
	for _, w := range wls {
		for _, pct := range pcts {
			row := []any{w.Name, pct}
			for _, pol := range policies {
				res := results[job]
				job++
				hr := res.TagStats[0].HitRate()
				row = append(row, hr)
				k := key{pct, pol}
				hits[k] = append(hits[k], hr)
				perfs[k] = append(perfs[k], perfOf(8*iters, res.Cycles, 1.0))
				spills := res.Metrics.Counter("rf0/spills_issued")
				spillRates[k] = append(spillRates[k], 1000*float64(spills)/float64(res.Insts))
				agg := activity[k]
				if agg == nil {
					agg = &hintAgg{}
					activity[k] = agg
				}
				agg.deadVictims += res.TagStats[0].DeadVictims
				agg.elided += res.Metrics.Counter("rf0/hint_spills_elided")
				agg.evictions += res.TagStats[0].Evictions
				agg.spills += spills
			}
			hitTable.AddRow(row...)
		}
	}
	rep.Tables = append(rep.Tables, hitTable)

	meanHeader := append([]string{"ctx%", "metric"}, header[2:]...)
	mean := stats.NewTable(meanHeader...)
	for _, pct := range pcts {
		hrow := []any{pct, "hit_rate"}
		srow := []any{pct, "spills_per_kinst"}
		prow := []any{pct, "speedup_vs_LRC"}
		basePerf := stats.GeoMean(perfs[key{pct, vrmu.LRC}])
		for _, pol := range policies {
			hrow = append(hrow, stats.Mean(hits[key{pct, pol}]))
			srow = append(srow, stats.Mean(spillRates[key{pct, pol}]))
			prow = append(prow, stats.GeoMean(perfs[key{pct, pol}])/basePerf)
		}
		mean.AddRow(hrow...)
		mean.AddRow(srow...)
		mean.AddRow(prow...)
	}
	rep.Tables = append(rep.Tables, mean)

	// Hint-machinery activity: how often the new bits actually fire. The
	// hint-free baselines stay at zero by construction.
	act := stats.NewTable("ctx%", "policy", "dead_victim_share", "spills_elided_share")
	for _, pct := range pcts {
		agg := activity[key{pct, vrmu.LRCH}]
		act.AddRow(pct, vrmu.LRCH.String(),
			ratio(agg.deadVictims, agg.evictions),
			ratio(agg.elided, agg.spills))
	}
	rep.Tables = append(rep.Tables, act)

	for _, pct := range pcts {
		lrc := stats.GeoMean(perfs[key{pct, vrmu.LRC}])
		lrch := stats.GeoMean(perfs[key{pct, vrmu.LRCH}])
		oracle := stats.GeoMean(perfs[key{pct, vrmu.Belady}])
		rep.notef("%d%% context: LRC+H speedup %s over LRC, closing to within %s "+
			"of the Belady oracle; hit rate %.1f%% vs LRC %.1f%%",
			pct, stats.Percent(lrch/lrc), stats.Percent(lrch/oracle),
			100*stats.Mean(hits[key{pct, vrmu.LRCH}]),
			100*stats.Mean(hits[key{pct, vrmu.LRC}]))
	}

	// Distribution-wide validation: the same policy ladder over a
	// generated-kernel population from the difftest generator, one short
	// capacity-squeezed run per (seed, policy) via the sweep engine.
	seeds := hintPopSeeds(opt.Quick)
	popJobs := newBatch(seeds * len(policies))
	for s := 0; s < seeds; s++ {
		seed := uint64(s + 1)
		k := difftest.Generate(seed, difftest.GenConfigForSeed(seed))
		for _, pol := range policies {
			popJobs.add(sim.Config{
				Kind: sim.ViReC, Cores: 1, ThreadsPerCore: 4,
				Workload: k.Spec, Iters: 1, Seed: seed,
				ContextPct: 50, Policy: pol,
				MaxCycles: 20_000_000,
			})
		}
	}
	popResults, err := popJobs.run(opt)
	if err != nil {
		return nil, err
	}

	popHits := map[vrmu.Policy][]float64{}
	popSpills := map[vrmu.Policy][]float64{}
	popSpeedups := map[vrmu.Policy][]float64{}
	popAct := map[vrmu.Policy]*hintAgg{}
	job = 0
	for s := 0; s < seeds; s++ {
		var lrcCycles uint64
		for _, pol := range policies {
			res := popResults[job]
			job++
			if pol == vrmu.LRC {
				lrcCycles = res.Cycles
			}
			popHits[pol] = append(popHits[pol], res.TagStats[0].HitRate())
			spills := res.Metrics.Counter("rf0/spills_issued")
			popSpills[pol] = append(popSpills[pol], 1000*float64(spills)/float64(res.Insts))
			popSpeedups[pol] = append(popSpeedups[pol], float64(lrcCycles)/float64(res.Cycles))
			agg := popAct[pol]
			if agg == nil {
				agg = &hintAgg{}
				popAct[pol] = agg
			}
			agg.deadVictims += res.TagStats[0].DeadVictims
			agg.evictions += res.TagStats[0].Evictions
			agg.elided += res.Metrics.Counter("rf0/hint_spills_elided")
			agg.spills += spills
		}
	}
	pop := stats.NewTable("policy", "seeds", "hit_rate", "spills_per_kinst",
		"speedup_vs_LRC", "dead_victim_share", "spills_elided_share")
	for _, pol := range policies {
		agg := popAct[pol]
		pop.AddRow(pol.String(), seeds,
			stats.Mean(popHits[pol]),
			stats.Mean(popSpills[pol]),
			stats.GeoMean(popSpeedups[pol]),
			ratio(agg.deadVictims, agg.evictions),
			ratio(agg.elided, agg.spills))
	}
	rep.Tables = append(rep.Tables, pop)
	rep.notef("generated population (%d seeds, ctx 50%%, 4 threads): LRC+H speedup %s "+
		"over LRC, %s of oracle; hit rate %.1f%% vs LRC %.1f%%",
		seeds, stats.Percent(stats.GeoMean(popSpeedups[vrmu.LRCH])),
		stats.Percent(stats.GeoMean(popSpeedups[vrmu.LRCH])/stats.GeoMean(popSpeedups[vrmu.Belady])),
		100*stats.Mean(popHits[vrmu.LRCH]), 100*stats.Mean(popHits[vrmu.LRC]))
	return rep, nil
}

// ratio divides counters, tolerating a zero denominator.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
