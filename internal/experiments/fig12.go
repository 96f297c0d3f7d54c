package experiments

import (
	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/stats"
	"github.com/virec/virec/internal/vrmu"
)

func init() {
	register("fig12", "Register replacement policy hit rate and speedup: "+
		"PLRU / LRU / MRT-PLRU / MRT-LRU / LRC at 80% and 40% context, 8 threads", fig12)
}

func fig12(opt Options) (*Report, error) {
	iters := opt.iters(160)
	wls := fig9Workloads(opt.Quick)
	pcts := []int{80, 40}
	// The paper's five policies plus the Belady-style oracle upper bound
	// that Section 4 positions LRC against.
	policies := append(vrmu.AllPolicies(), vrmu.Belady)

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
			}
			hitTable.AddRow(row...)
		}
	}
	rep.Tables = append(rep.Tables, hitTable)

	meanHeader := append([]string{"ctx%", "metric"}, header[2:]...)
	mean := stats.NewTable(meanHeader...)
	for _, pct := range pcts {
		hrow := []any{pct, "hit_rate"}
		prow := []any{pct, "speedup_vs_PLRU"}
		basePerf := stats.GeoMean(perfs[key{pct, vrmu.PLRU}])
		for _, pol := range policies {
			hrow = append(hrow, stats.Mean(hits[key{pct, pol}]))
			prow = append(prow, stats.GeoMean(perfs[key{pct, pol}])/basePerf)
		}
		mean.AddRow(hrow...)
		mean.AddRow(prow...)
	}
	rep.Tables = append(rep.Tables, mean)

	for _, pct := range pcts {
		lrc := stats.GeoMean(perfs[key{pct, vrmu.LRC}])
		plru := stats.GeoMean(perfs[key{pct, vrmu.PLRU}])
		mrt := stats.GeoMean(perfs[key{pct, vrmu.MRTPLRU}])
		oracle := stats.GeoMean(perfs[key{pct, vrmu.Belady}])
		rep.notef("%d%% context: LRC speedup %s over PLRU, %s over MRT-PLRU, "+
			"within %s of the Belady oracle; LRC hit rate %.1f%% "+
			"(paper: 93.9%%@80 / 82.9%%@40)",
			pct, stats.Percent(lrc/plru), stats.Percent(lrc/mrt),
			stats.Percent(lrc/oracle),
			100*stats.Mean(hits[key{pct, vrmu.LRC}]))
	}
	return rep, nil
}
