// Quickstart: assemble a small kernel, run it on a ViReC near-memory core,
// and print the results. It exits 1 if any thread's sum is wrong.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"github.com/virec/virec/internal/asm"
	"github.com/virec/virec/internal/cpu"
	"github.com/virec/virec/internal/cpu/regfile"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/mem/cache"
	"github.com/virec/virec/internal/vrmu"
)

func main() {
	// 1. Write a kernel in the simulator's AArch64-flavoured assembly.
	// This one sums an array through an index table (a tiny gather).
	prog, err := asm.Assemble(`
		// x1 = n, x2 = index base, x3 = value base
		mov x4, #0              // accumulator
		mov x5, #0              // i
	loop:
		ldrsw x6, [x2, x5, lsl #2]   // idx = index[i]
		ldr   x7, [x3, x6, lsl #3]   // v = values[idx]
		add   x4, x4, x7
		add   x5, x5, #1
		cmp   x5, x1
		b.lt  loop
		halt
	`)
	if err != nil {
		log.Fatal(err)
	}
	prog.Name = "quickstart-gather"

	// 2. Build the memory system: flat functional memory, an 8 KB dcache
	// with the ViReC register region, and a fixed-latency main memory.
	memory := mem.NewMemory()
	dram := mem.NewDelayDevice(60)
	const threads = 4
	layout := cpu.RegLayout{Base: 0x400000}
	dcache := cache.New(cache.Config{
		Name: "dcache", SizeBytes: 8 * 1024, Assoc: 4, HitLatency: 2,
		MSHRs: 24, Ports: 1,
		RegRegionBase: layout.Base, RegRegionSize: layout.Size(threads),
	}, dram)

	// 3. Build the ViReC provider: a 20-entry physical register file
	// shared by 4 threads (~70% of their active contexts), managed by the
	// Least Recently Committed policy.
	provider := regfile.NewViReC(regfile.ViReCConfig{
		PhysRegs: 20,
		Policy:   vrmu.LRC,
	}, threads, dcache, memory, layout)

	core := cpu.New(cpu.Config{Threads: threads, ValidateValues: true},
		provider, dcache, memory)

	// 4. Offload: initialize each thread's data and write its context
	// into the reserved register region.
	const n = 64
	expected := make([]uint64, threads)
	for th := 0; th < threads; th++ {
		idxBase := mem.Addr(0x10000 + th*0x41240)
		valBase := idxBase + 0x20000
		for i := 0; i < n; i++ {
			idx := (i*37 + th) % 256
			memory.Write(idxBase+mem.Addr(4*i), 4, uint64(idx))
			memory.Write64(valBase+mem.Addr(8*idx), uint64(idx*idx))
			expected[th] += uint64(idx * idx)
		}
		thread := core.Thread(th)
		thread.Prog = prog
		for _, arg := range []struct {
			reg isa.Reg
			v   uint64
		}{{isa.X1, n}, {isa.X2, uint64(idxBase)}, {isa.X3, uint64(valBase)}} {
			memory.Write64(layout.RegAddr(th, arg.reg), arg.v) // offload payload
			thread.SetShadow(arg.reg, arg.v)                   // golden model
		}
	}

	// 5. Run the cycle loop until every thread halts.
	core.Start()
	var cycle uint64
	for ; !core.Done(); cycle++ {
		core.Tick(cycle)
		dcache.Tick(cycle)
		dram.Tick(cycle)
	}

	// 6. Inspect results.
	fmt.Printf("finished in %d cycles, %d instructions (IPC %.3f), %d context switches\n",
		core.Stats.Cycles, core.Stats.Insts, core.Stats.IPC(), core.Stats.ContextSwitches)
	fmt.Printf("register file: %.1f%% hit rate over %d physical registers for %d threads\n",
		100*provider.Tags().Stats.HitRate(), provider.Tags().Size(), threads)
	failed := false
	for th := 0; th < threads; th++ {
		got := core.Thread(th).Shadow(isa.X4)
		status := "ok"
		if got != expected[th] {
			status = fmt.Sprintf("MISMATCH want %d", expected[th])
			failed = true
		}
		fmt.Printf("thread %d: sum = %-8d %s\n", th, got, status)
	}
	if failed {
		os.Exit(1)
	}
}
