// Scaling: multi-processor system load, the Figure-11 scenario. As more
// near-memory processors share the crossbar and DRAM, observed latency
// grows; the paper finds that scheduling extra threads per core (beyond
// what a banked register file could hold) then wins performance back. The
// example measures that gain at each core count instead of asserting it.
//
//	go run ./examples/scaling
package main

import (
	"fmt"
	"log"

	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/stats"
	"github.com/virec/virec/internal/vrmu"
	"github.com/virec/virec/internal/workloads"
)

func main() {
	w, _ := workloads.ByName("gather")
	const iters = 192

	fmt.Println("gather under increasing system load (ViReC, 60% context):")
	fmt.Println()
	t := stats.NewTable("cores", "threads/core", "cycles", "perf/core", "dram_latency")
	gain := stats.NewTable("cores", "perf/core 10 vs 8 threads")
	for _, cores := range []int{1, 2, 4, 8} {
		var perf [2]float64
		for i, threads := range []int{8, 10} {
			res, err := sim.Simulate(sim.Config{
				Kind: sim.ViReC, Cores: cores, ThreadsPerCore: threads,
				Workload: w, Iters: iters,
				ContextPct: 60, Policy: vrmu.LRC,
			})
			if err != nil {
				log.Fatal(err)
			}
			perf[i] = float64(threads*iters) / float64(res.Cycles) * 1000
			t.AddRow(cores, threads, res.Cycles, perf[i],
				res.DRAMStats.AvgReadLatency())
		}
		gain.AddRow(cores, perf[1]/perf[0])
	}
	fmt.Print(t.String())
	fmt.Println("\nA banked processor is capped at its 8 register banks; ViReC runs 10")
	fmt.Println("threads in the same small register file by shrinking each thread's")
	fmt.Println("cached context. What the two extra threads buy at each system load:")
	fmt.Println()
	fmt.Print(gain.String())
	fmt.Println("\nA ratio near 1 means 8 threads already cover this system's memory")
	fmt.Println("latency (deviation D2 in EXPERIMENTS.md).")
}
