package experiments

import (
	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/stats"
	"github.com/virec/virec/internal/vrmu"
)

func init() {
	register("fig13", "Backing-store sensitivity: dcache latency and "+
		"capacity sweeps for banked vs ViReC at 8 threads", fig13)
}

func fig13(opt Options) (*Report, error) {
	iters := opt.iters(128)
	wls := fig9Workloads(opt.Quick)
	latencies := []int{1, 2, 4, 8, 16}
	capacities := []int{2, 4, 8, 16, 32} // KB
	if opt.Quick {
		latencies = []int{2, 8}
		capacities = []int{2, 8}
	}

	rep := &Report{}

	// Each table cell is a geomean of IPC over the workloads; queue every
	// (kind, latency, capacity, workload) run into one sweep and reduce
	// per-cell afterwards.
	jobs := newBatch(2 * len(wls) * (len(latencies) + len(capacities)))
	queueGeo := func(kind sim.CoreKind, hitLat, capKB int) []int {
		idx := make([]int, 0, len(wls))
		for _, w := range wls {
			idx = append(idx, jobs.add(sim.Config{
				Kind: kind, ThreadsPerCore: 8,
				Workload: w, Iters: iters,
				ContextPct: 80, Policy: vrmu.LRC,
				DCacheHitLatency: hitLat,
				DCacheBytes:      capKB * 1024,
			}))
		}
		return idx
	}
	type pair struct{ banked, virec []int }
	latJobs := make([]pair, len(latencies))
	for i, lat := range latencies {
		latJobs[i] = pair{queueGeo(sim.Banked, lat, 8), queueGeo(sim.ViReC, lat, 8)}
	}
	capJobs := make([]pair, len(capacities))
	for i, capKB := range capacities {
		capJobs[i] = pair{queueGeo(sim.Banked, 2, capKB), queueGeo(sim.ViReC, 2, capKB)}
	}

	results, err := jobs.run(opt)
	if err != nil {
		return nil, err
	}
	geoIPC := func(idx []int) float64 {
		var ipcs []float64
		for _, j := range idx {
			ipcs = append(ipcs, results[j].IPC)
		}
		return stats.GeoMean(ipcs)
	}

	latTable := stats.NewTable("dcache_latency", "banked_ipc", "virec_ipc", "virec/banked")
	for i, lat := range latencies {
		b, v := geoIPC(latJobs[i].banked), geoIPC(latJobs[i].virec)
		latTable.AddRow(lat, b, v, v/b)
	}
	rep.Tables = append(rep.Tables, latTable)

	capTable := stats.NewTable("dcache_kb", "banked_ipc", "virec_ipc", "virec/banked")
	var firstRatio, lastRatio float64
	for i, capKB := range capacities {
		b, v := geoIPC(capJobs[i].banked), geoIPC(capJobs[i].virec)
		capTable.AddRow(capKB, b, v, v/b)
		if i == 0 {
			firstRatio = v / b
		}
		lastRatio = v / b
	}
	rep.Tables = append(rep.Tables, capTable)

	rep.notef("ViReC/banked IPC ratio moves from %.2f at %dKB to %.2f at %dKB "+
		"(paper: pinned register lines make ViReC thrash small dcaches earlier)",
		firstRatio, capacities[0], lastRatio, capacities[len(capacities)-1])
	return rep, nil
}
