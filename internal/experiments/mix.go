package experiments

import (
	"strconv"

	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/stats"
	"github.com/virec/virec/internal/vrmu"
	"github.com/virec/virec/internal/workloads"
)

func init() {
	register("mix", "Heterogeneous offload mix (extension): threads with "+
		"different register footprints share one ViReC register file", mixExp)
}

// mixExp stresses ViReC's core selling point against static banking: with
// a heterogeneous thread mix, banked files provision every thread for the
// worst case while ViReC apportions the shared physical registers by
// demand. The mix pairs small-context kernels (chase: 3 live registers)
// with large-context ones (spmv: 13).
func mixExp(opt Options) (*Report, error) {
	iters := opt.iters(128)
	rep := &Report{}

	names := []string{"chase", "spmv", "gather", "fpdot"}
	var mix []*workloads.Spec
	sumActive := 0
	for _, n := range names {
		w, _ := workloads.ByName(n)
		mix = append(mix, w)
		sumActive += len(w.ActiveRegs())
	}
	const threads = 8
	// Demand-proportional budget: the mix's aggregate active context.
	demand := sumActive * threads / len(mix)

	table := stats.NewTable("config", "phys_regs", "cycles", "rel_perf", "rf_hit%")

	fracs := []int{100, 75, 50}
	jobs := newBatch(1 + len(fracs))
	jobs.add(sim.Config{
		Kind: sim.Banked, ThreadsPerCore: threads,
		WorkloadMix: mix, Iters: iters,
		ValidateValues: true,
	})
	regsFor := func(frac int) int {
		regs := demand * frac / 100
		if regs < 8 {
			regs = 8
		}
		return regs
	}
	for _, frac := range fracs {
		jobs.add(sim.Config{
			Kind: sim.ViReC, ThreadsPerCore: threads,
			WorkloadMix: mix, Iters: iters,
			PhysRegs: regsFor(frac), Policy: vrmu.LRC,
			ValidateValues: true,
		})
	}
	results, err := jobs.run(opt)
	if err != nil {
		return nil, err
	}

	banked := results[0]
	table.AddRow("banked", threads*32, banked.Cycles, 1.0, 100.0)
	for i, frac := range fracs {
		res := results[i+1]
		table.AddRow("virec-"+strconv.Itoa(frac)+"pct", regsFor(frac), res.Cycles,
			float64(banked.Cycles)/float64(res.Cycles),
			100*res.TagStats[0].HitRate())
	}
	rep.Tables = append(rep.Tables, table)
	rep.notef("the mix's aggregate active context is %d registers vs the banked "+
		"file's %d; ViReC apportions a demand-sized file across threads whose "+
		"footprints differ by >4x (chase vs spmv) without static provisioning",
		demand, threads*32)
	return rep, nil
}
