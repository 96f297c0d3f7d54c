package main

import (
	"math"
	"runtime"
	"time"

	"github.com/virec/virec/internal/asm"
	"github.com/virec/virec/internal/interp"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/mem/cache"
	"github.com/virec/virec/internal/mem/dram"
	"github.com/virec/virec/internal/vrmu"
)

// A probe drives one layer's public API with a fixed synthetic stream, so
// its cost per op can be compared with the host time the profile
// attributes to that layer. Each probe runs probeReps times; the median
// time and the allocations of the last repetition are reported.
const probeReps = 5

// probe is one layer probe: setup builds fresh state and returns the
// function that runs n ops on it.
type probe struct {
	name string // metric stem: probe.<name>_ns and probe.<name>_allocs
	nsAs string // name of the ns metric when it is not <name>_ns
	n    int
	ops  func() func(n int)
}

var probes = []probe{
	{name: "vrmu_select", n: 20_000, ops: vrmuSelectOps},
	{name: "cache_access", n: 200_000, ops: cacheAccessOps},
	{name: "dram_access", n: 50_000, ops: dramAccessOps},
	{name: "interp", nsAs: "probe.interp_ns_per_inst", n: 1 << 20, ops: interpOps},
}

// runProbes runs every probe and returns its metrics.
func runProbes() map[string]float64 {
	out := map[string]float64{}
	for _, p := range probes {
		ns, allocs := p.measure()
		name := p.nsAs
		if name == "" {
			name = "probe." + p.name + "_ns"
		}
		out[name] = ns
		out["probe."+p.name+"_allocs"] = allocs
	}
	return out
}

// measure returns the median ns per op and the allocations per op, the
// latter rounded to 1/1000 so a stray runtime allocation does not show.
func (p probe) measure() (nsPerOp, allocsPerOp float64) {
	times := make([]float64, probeReps)
	var ms0, ms1 runtime.MemStats
	for rep := range times {
		run := p.ops()
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		run(p.n)
		times[rep] = float64(time.Since(start).Nanoseconds()) / float64(p.n)
		runtime.ReadMemStats(&ms1)
	}
	allocs := float64(ms1.Mallocs-ms0.Mallocs) / float64(p.n)
	return median(times), math.Round(allocs*1000) / 1000
}

// vrmuSelectOps picks and touches victims in a full 96-entry LRC tag
// store, the call the register file makes on every allocation.
func vrmuSelectOps() func(int) {
	const phys = 96
	ts := vrmu.NewTagStore(phys, vrmu.LRC)
	for i := 0; i < phys; i++ {
		ts.Insert(i%4, isa.Reg(i%int(isa.NumRegs)), i)
		ts.Touch(i)
	}
	locked := func(i int) bool { return i < 2 }
	return func(n int) {
		for i := 0; i < n; i++ {
			ts.Touch(ts.SelectVictim(locked))
		}
	}
}

// cacheAccessOps issues one access per cycle to the Table-1 dcache (8 KiB,
// 4-way) over a 40-cycle delay device. Seven in eight accesses go to 16
// hot lines that fit the cache; the eighth goes to one of 8 cold lines
// that all map to the set of four hot ones, so hits dominate while misses
// still fill, evict and write back. One in five accesses is a write.
func cacheAccessOps() func(int) {
	below := mem.NewDelayDevice(40)
	c := cache.New(cache.Config{
		Name: "probe", SizeBytes: 8 << 10, Assoc: 4, HitLatency: 2, MSHRs: 24, Ports: 1,
	}, below)
	reqs := make([]mem.Request, 64)
	for i := range reqs {
		a := mem.Addr((i % 16) * 512)
		if i%8 == 7 {
			a = mem.Addr(64<<10 + (i/8)*4096)
		}
		reqs[i] = mem.Request{Addr: a, Size: 8, Kind: mem.Read}
		if i%5 == 0 {
			reqs[i].Kind = mem.Write
		}
	}
	var cycle uint64
	return func(n int) {
		for i := 0; i < n; i++ {
			c.Access(&reqs[i%len(reqs)])
			cycle++
			c.Tick(cycle)
			below.Tick(cycle)
		}
	}
}

// dramAccessOps keeps 16 reads in flight on the Table-1 DRAM and counts
// completed reads. Requests rotate over 4 banks of both channels and
// switch rows every four accesses to a bank: three row hits, then a row
// conflict.
func dramAccessOps() func(int) {
	d := dram.New(dram.DefaultConfig())
	const inflight = 16
	reqs := make([]mem.Request, inflight)
	dones := make([]func(uint64), inflight) // Complete clears Done, so each issue re-arms it
	free := make([]int, 0, inflight)
	for i := range reqs {
		dones[i] = func(uint64) { free = append(free, i) }
		free = append(free, i)
	}
	var cycle uint64
	issued := 0
	addr := func(k int) mem.Addr {
		ch, bank, col, row := k%2, (k/2)%4, (k/8)%128, (k/32)%2
		line := ch + 2*(bank+16*(col+128*row))
		return mem.Addr(line * mem.LineBytes)
	}
	return func(n int) {
		done := 0
		for done < n {
			for len(free) > 0 {
				i := free[len(free)-1]
				reqs[i] = mem.Request{Addr: addr(issued), Size: mem.LineBytes, Kind: mem.Read, Done: dones[i]}
				if !d.Access(&reqs[i]) {
					break
				}
				free = free[:len(free)-1]
				issued++
			}
			cycle++
			before := len(free)
			d.Tick(cycle)
			done += len(free) - before
		}
	}
}

// interpOps runs a precoded load/ALU/branch loop through a pointer ring
// for a fixed instruction budget, the dispatch loop behind difftest's
// golden side and the Belady oracle recorder. One op is one instruction.
func interpOps() func(int) {
	prog := asm.MustAssemble("probe", `
	loop:
		ldr  x1, [x1]
		add  x2, x2, x1
		add  x3, x3, #3
		sub  x4, x2, x3
		cmp  x5, #2
		b.lt loop
		halt
	`)
	const ring, ringLen = mem.Addr(0x1000), 64
	m := mem.NewMemory()
	for i := 0; i < ringLen; i++ {
		m.Write64(ring+mem.Addr(i)*8, uint64(ring+mem.Addr((i+1)%ringLen)*8))
	}
	pre := interp.Precode(prog)
	var ctx interp.Context
	return func(n int) {
		ctx = interp.Context{}
		ctx.Regs[isa.X1] = uint64(ring)
		pre.Run(&ctx, m, uint64(n), nil)
	}
}
