package experiments

import (
	"strconv"

	"github.com/virec/virec/internal/area"
	"github.com/virec/virec/internal/interp"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/ooo"
	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/stats"
	"github.com/virec/virec/internal/vrmu"
	"github.com/virec/virec/internal/workloads"
)

func init() {
	register("fig1", "Performance-area tradeoff on the gather kernel "+
		"(InO, OoO, 8xInO, banked 256/512, ViReC 40-100% context at 4/8 threads)", fig1)
}

// perfOf converts a run into work per microsecond so cores at different
// frequencies and counts compare directly.
func perfOf(totalIters int, cycles uint64, freqGHz float64) float64 {
	timeNs := float64(cycles) / freqGHz
	return float64(totalIters) / timeNs * 1000
}

func fig1(opt Options) (*Report, error) {
	w, _ := workloads.ByName("gather")
	iters := opt.iters(256)
	m := area.Default()
	table := stats.NewTable("config", "threads", "perf(iters/us)", "area(mm2)", "perf/area", "norm_perf")

	type point struct {
		name    string
		threads int
		perf    float64
		area    float64
	}
	var points []point

	// Every cycle-level sim rides one sweep; only the trace-driven OoO
	// model runs inline (it is not a sim.Config job).
	// Banked cores: 256 registers = 4 banks/threads, 512 = 8.
	bankedThreads := []int{4, 8}
	// ViReC sweep: 40-100% context at 4 and 8 threads.
	pcts := []int{40, 60, 80, 100}
	if opt.Quick {
		pcts = []int{40, 100}
	}
	virecThreads := []int{4, 8}
	jobs := newBatch(2 + len(bankedThreads) + len(virecThreads)*len(pcts))

	// Single in-order core, one thread (the gray point).
	ino := jobs.add(sim.Config{
		Kind: sim.Banked, Cores: 1, ThreadsPerCore: 1,
		Workload: w, Iters: iters,
	})
	// Eight near-memory in-order cores, one thread each.
	multi := jobs.add(sim.Config{
		Kind: sim.Banked, Cores: 8, ThreadsPerCore: 1,
		Workload: w, Iters: iters,
	})
	bankedJobs := make([]int, len(bankedThreads))
	for i, threads := range bankedThreads {
		bankedJobs[i] = jobs.add(sim.Config{
			Kind: sim.Banked, ThreadsPerCore: threads,
			Workload: w, Iters: iters,
		})
	}
	type virecPoint struct {
		threads, pct, regs, job int
	}
	var virecJobs []virecPoint
	for _, threads := range virecThreads {
		for _, pct := range pcts {
			cfg := sim.Config{
				Kind: sim.ViReC, ThreadsPerCore: threads,
				Workload: w, Iters: iters,
				ContextPct: pct, Policy: vrmu.LRC,
			}
			virecJobs = append(virecJobs, virecPoint{threads, pct, cfg.PhysRegsFor(), jobs.add(cfg)})
		}
	}

	results, err := jobs.run(opt)
	if err != nil {
		return nil, err
	}

	points = append(points, point{"InO", 1,
		perfOf(iters, results[ino].Cycles, 1.0), m.InOCore()})

	// OoO core (N1-like, 2 GHz), one thread, trace-driven model.
	memory := mem.NewMemory()
	var ctx interp.Context
	p := workloads.Params{Iters: iters, Seed: 0x9e3779b97f4a7c15}
	w.Setup(memory, 0x10000, p, func(r isa.Reg, v uint64) { ctx.Set(r, v) })
	oooRes := ooo.Run(ooo.DefaultConfig(), w.Prog, &ctx, memory)
	memory.Release()
	points = append(points, point{"OoO", 1,
		perfOf(iters, oooRes.Cycles, 2.0), m.OoOCore()})

	points = append(points, point{"8xInO", 8,
		perfOf(8*iters, results[multi].Cycles, 1.0), area.MultiCore(m.InOCore(), 8)})

	for i, threads := range bankedThreads {
		points = append(points, point{
			"banked-" + strconv.Itoa(threads*64), threads,
			perfOf(threads*iters, results[bankedJobs[i]].Cycles, 1.0), m.BankedCore(threads)})
	}

	for _, vp := range virecJobs {
		points = append(points, point{
			"virec-" + strconv.Itoa(vp.pct) + "pct", vp.threads,
			perfOf(vp.threads*iters, results[vp.job].Cycles, 1.0),
			m.ViReCCore(vp.regs)})
	}

	base := points[0].perf
	rep := &Report{}
	for _, pt := range points {
		table.AddRow(pt.name, pt.threads, pt.perf, pt.area, pt.perf/pt.area, pt.perf/base)
	}
	rep.Tables = append(rep.Tables, table)

	oooPt, inoPt := points[1], points[0]
	rep.notef("OoO achieves %.1fx the single-InO performance at %.1fx the area",
		oooPt.perf/inoPt.perf, oooPt.area/inoPt.area)
	var banked8, virec8 point
	for _, pt := range points {
		if pt.name == "banked-512" {
			banked8 = pt
		}
		if pt.name == "virec-100pct" && pt.threads == 8 {
			virec8 = pt
		}
	}
	if banked8.perf > 0 && virec8.perf > 0 {
		rep.notef("ViReC @100%% ctx, 8 threads: %.0f%% of banked performance at %.0f%% of its area",
			100*virec8.perf/banked8.perf, 100*virec8.area/banked8.area)
	}
	return rep, nil
}
