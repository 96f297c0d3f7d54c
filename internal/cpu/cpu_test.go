package cpu_test

import (
	"fmt"
	"testing"

	"github.com/virec/virec/internal/asm"
	"github.com/virec/virec/internal/cpu"
	"github.com/virec/virec/internal/cpu/regfile"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/mem/cache"
	"github.com/virec/virec/internal/mem/dram"
	"github.com/virec/virec/internal/vrmu"
)

// missDev is an allocation-free stand-in for the dcache: every access
// completes after a fixed latency, and every data load raises the miss
// signal, as a cache that never hits would.
type missDev struct {
	*mem.DelayDevice
	now uint64
}

func (d *missDev) Access(r *mem.Request) bool {
	if r.Kind == mem.Read && !r.RegisterFill && !r.Inst && r.Miss != nil {
		r.Miss(d.now + 2)
	}
	return d.DelayDevice.Access(r)
}

func (d *missDev) Tick(cycle uint64) {
	d.now = cycle
	d.DelayDevice.Tick(cycle)
}

// tapDev hands every request it passes on to fn.
type tapDev struct {
	mem.Device
	fn func(*mem.Request)
}

func (d *tapDev) Access(r *mem.Request) bool {
	ok := d.Device.Access(r)
	if ok {
		d.fn(r)
	}
	return ok
}

const (
	regBase  = mem.Addr(0x100000)
	dataBase = mem.Addr(0x1000)
)

// rig assembles a single-core test system.
type rig struct {
	core   *cpu.Core
	dcache *cache.Cache
	lower  mem.Device
	mem    *mem.Memory
	layout cpu.RegLayout
	cycle  uint64
}

type providerKind int

const (
	pBanked providerKind = iota
	pViReC
	pSoftware
	pPrefetchFull
	pPrefetchExact
)

type rigOpt struct {
	threads  int
	physRegs int
	policy   vrmu.Policy
	memLat   uint64
	dcacheKB int
	virecCfg *regfile.ViReCConfig
	realDRAM bool // use the dram package model instead of fixed latency
	// alwaysMiss replaces the dcache with a missDev: no cache state, so
	// the memory side allocates nothing however long the run.
	alwaysMiss bool
	// tap sees every request the core and provider hand the dcache.
	tap func(*mem.Request)
}

func newRig(kind providerKind, opt rigOpt) *rig {
	if opt.threads == 0 {
		opt.threads = 2
	}
	if opt.physRegs == 0 {
		opt.physRegs = 24
	}
	if opt.memLat == 0 {
		opt.memLat = 60
	}
	if opt.dcacheKB == 0 {
		opt.dcacheKB = 8
	}
	memory := mem.NewMemory()
	var lower mem.Device
	if opt.realDRAM {
		lower = dram.New(dram.Config{})
	} else {
		lower = mem.NewDelayDevice(opt.memLat)
	}
	layout := cpu.RegLayout{Base: regBase}

	ccfg := cache.Config{
		Name: "dcache", SizeBytes: opt.dcacheKB * 1024, Assoc: 4,
		HitLatency: 2, MSHRs: 24, Ports: 1,
	}
	if kind == pViReC {
		ccfg.RegRegionBase = regBase
		ccfg.RegRegionSize = layout.Size(opt.threads)
	}
	dc := cache.New(ccfg, lower)
	var dev mem.Device = dc
	if opt.alwaysMiss {
		md := &missDev{DelayDevice: mem.NewDelayDevice(opt.memLat)}
		dev, lower = md, md
	}
	if opt.tap != nil {
		dev = &tapDev{Device: dev, fn: opt.tap}
	}

	var provider cpu.Provider
	switch kind {
	case pBanked:
		provider = regfile.NewBanked(opt.threads, dev, memory, layout)
	case pViReC:
		cfg := regfile.ViReCConfig{PhysRegs: opt.physRegs, Policy: opt.policy}
		if opt.virecCfg != nil {
			cfg = *opt.virecCfg
			if cfg.PhysRegs == 0 {
				cfg.PhysRegs = opt.physRegs
			}
		}
		provider = regfile.NewViReC(cfg, opt.threads, dev, memory, layout)
	case pSoftware:
		provider = regfile.NewSoftware(opt.threads, dev, memory, layout)
	case pPrefetchFull:
		provider = regfile.NewPrefetch(regfile.PrefetchFull, opt.threads, dev, memory, layout)
	case pPrefetchExact:
		provider = regfile.NewPrefetch(regfile.PrefetchExact, opt.threads, dev, memory, layout)
	}

	core := cpu.New(cpu.Config{Threads: opt.threads, ValidateValues: true}, provider, dev, memory)
	return &rig{core: core, dcache: dc, lower: lower, mem: memory, layout: layout}
}

// setReg initializes a thread register both in the backing region (where
// providers fetch offloaded contexts) and in the golden shadow.
func (r *rig) setReg(thread int, reg isa.Reg, v uint64) {
	r.mem.Write64(r.layout.RegAddr(thread, reg), v)
	r.core.Thread(thread).SetShadow(reg, v)
}

// load runs prog on the given threads.
func (r *rig) load(prog *asm.Program, threads ...int) {
	for _, t := range threads {
		r.core.Thread(t).Prog = prog
	}
}

// run ticks the system until the core halts or maxCycles pass; it returns
// true on completion.
func (r *rig) run(maxCycles uint64) bool {
	r.core.Start()
	for ; r.cycle < maxCycles; r.cycle++ {
		r.core.Tick(r.cycle)
		r.dcache.Tick(r.cycle)
		r.lower.Tick(r.cycle)
		if r.core.Done() {
			return true
		}
	}
	return false
}

func allKinds() map[string]providerKind {
	return map[string]providerKind{
		"banked":         pBanked,
		"virec":          pViReC,
		"software":       pSoftware,
		"prefetch-full":  pPrefetchFull,
		"prefetch-exact": pPrefetchExact,
	}
}

func TestArithmeticProgram(t *testing.T) {
	prog := asm.MustAssemble("arith", `
		mov x1, #6
		mov x2, #7
		mul x3, x1, x2
		add x4, x3, #8
		sub x5, x4, x1
		lsl x6, x5, #1
		halt
	`)
	for name, kind := range allKinds() {
		t.Run(name, func(t *testing.T) {
			r := newRig(kind, rigOpt{threads: 1})
			r.load(prog, 0)
			if !r.run(100000) {
				t.Fatal("did not finish")
			}
			th := r.core.Thread(0)
			checks := map[isa.Reg]uint64{
				isa.X3: 42, isa.X4: 50, isa.X5: 44, isa.X6: 88,
			}
			for reg, want := range checks {
				if got := th.Shadow(reg); got != want {
					t.Errorf("%s = %d, want %d", reg, got, want)
				}
			}
		})
	}
}

func TestLoopProgram(t *testing.T) {
	// sum = 0+1+...+99 = 4950, pure register loop.
	prog := asm.MustAssemble("loop", `
		mov x1, #0
		mov x2, #0
	loop:
		add x1, x1, x2
		add x2, x2, #1
		cmp x2, #100
		b.lt loop
		halt
	`)
	for name, kind := range allKinds() {
		t.Run(name, func(t *testing.T) {
			r := newRig(kind, rigOpt{threads: 1})
			r.load(prog, 0)
			if !r.run(200000) {
				t.Fatal("did not finish")
			}
			if got := r.core.Thread(0).Shadow(isa.X1); got != 4950 {
				t.Errorf("sum = %d, want 4950", got)
			}
		})
	}
}

func TestMemoryRoundTrip(t *testing.T) {
	prog := asm.MustAssemble("memrt", `
		str x1, [x10]
		str x2, [x10, #8]
		ldr x3, [x10]
		ldr x4, [x10, #8]
		add x5, x3, x4
		halt
	`)
	for name, kind := range allKinds() {
		t.Run(name, func(t *testing.T) {
			r := newRig(kind, rigOpt{threads: 1})
			r.setReg(0, isa.X1, 111)
			r.setReg(0, isa.X2, 222)
			r.setReg(0, isa.X10, uint64(dataBase))
			r.load(prog, 0)
			if !r.run(100000) {
				t.Fatal("did not finish")
			}
			if got := r.core.Thread(0).Shadow(isa.X5); got != 333 {
				t.Errorf("x5 = %d, want 333", got)
			}
			if got := r.mem.Read64(dataBase); got != 111 {
				t.Errorf("mem[0] = %d, want 111", got)
			}
		})
	}
}

func TestStoreToLoadForwardingThroughMemory(t *testing.T) {
	// A store immediately followed by a dependent load of the same address.
	prog := asm.MustAssemble("stld", `
		mov x1, #77
		str x1, [x10]
		ldr x2, [x10]
		add x3, x2, #1
		halt
	`)
	r := newRig(pBanked, rigOpt{threads: 1})
	r.setReg(0, isa.X10, uint64(dataBase))
	r.load(prog, 0)
	if !r.run(100000) {
		t.Fatal("did not finish")
	}
	if got := r.core.Thread(0).Shadow(isa.X3); got != 78 {
		t.Errorf("x3 = %d, want 78", got)
	}
}

func TestBranchesAndCompare(t *testing.T) {
	prog := asm.MustAssemble("branchy", `
		mov x1, #5
		cmp x1, #5
		b.ne wrong
		mov x2, #1
		cbz x2, wrong
		cbnz x2, good
	wrong:
		mov x9, #666
		halt
	good:
		mov x9, #1
		b end
		mov x9, #2
	end:
		halt
	`)
	for name, kind := range allKinds() {
		t.Run(name, func(t *testing.T) {
			r := newRig(kind, rigOpt{threads: 1})
			r.load(prog, 0)
			if !r.run(100000) {
				t.Fatal("did not finish")
			}
			if got := r.core.Thread(0).Shadow(isa.X9); got != 1 {
				t.Errorf("x9 = %d, want 1", got)
			}
		})
	}
}

func TestCallReturn(t *testing.T) {
	prog := asm.MustAssemble("call", `
		mov x1, #10
		bl double
		mov x5, x1
		halt
	double:
		add x1, x1, x1
		ret
	`)
	r := newRig(pBanked, rigOpt{threads: 1})
	r.load(prog, 0)
	if !r.run(100000) {
		t.Fatal("did not finish")
	}
	if got := r.core.Thread(0).Shadow(isa.X5); got != 20 {
		t.Errorf("x5 = %d, want 20", got)
	}
}

// gatherProg builds a pointer-walking loop that misses the dcache often:
// each thread sums `count` values loaded via an index array.
func gatherProg() *asm.Program {
	return asm.MustAssemble("gather", `
		// x2 = index base, x3 = value base, x1 = count, x4 = acc, x5 = i
		mov x4, #0
		mov x5, #0
	loop:
		ldrsw x6, [x2, x5, lsl #2]
		ldr   x7, [x3, x6, lsl #3]
		add   x4, x4, x7
		add   x5, x5, #1
		cmp   x5, x1
		b.lt  loop
		halt
	`)
}

// setupGather initializes per-thread index/value arrays with a stride that
// defeats the cache, returning the expected per-thread sums.
func setupGather(r *rig, threads, count int) []uint64 {
	sums := make([]uint64, threads)
	for th := 0; th < threads; th++ {
		// The per-thread offset includes an odd multiple of the line size
		// so thread bases do not alias to the same cache set.
		idxBase := dataBase + mem.Addr(th*(0x40000+0x2c0))
		valBase := idxBase + 0x20000 + 0x140
		for i := 0; i < count; i++ {
			// Indices jump by a large stride so successive loads hit
			// different lines (and often different DRAM rows).
			idx := (i * 531) % 4096
			r.mem.Write(idxBase+mem.Addr(4*i), 4, uint64(idx))
			val := uint64(th*1000000 + idx*3)
			r.mem.Write64(valBase+mem.Addr(8*idx), val)
			sums[th] += val
		}
		r.setReg(th, isa.X1, uint64(count))
		r.setReg(th, isa.X2, uint64(idxBase))
		r.setReg(th, isa.X3, uint64(valBase))
	}
	return sums
}

func TestMultithreadGatherAllProviders(t *testing.T) {
	for name, kind := range allKinds() {
		t.Run(name, func(t *testing.T) {
			const threads, count = 4, 64
			r := newRig(kind, rigOpt{threads: threads})
			sums := setupGather(r, threads, count)
			r.load(gatherProg(), 0, 1, 2, 3)
			if !r.run(3000000) {
				t.Fatalf("did not finish; insts=%d switches=%d cur=%d",
					r.core.Stats.Insts, r.core.Stats.ContextSwitches, r.core.Cur())
			}
			for th := 0; th < threads; th++ {
				if got := r.core.Thread(th).Shadow(isa.X4); got != sums[th] {
					t.Errorf("thread %d sum = %d, want %d", th, got, sums[th])
				}
			}
			if kind != pSoftware && r.core.Stats.ContextSwitches == 0 {
				t.Error("expected context switches on dcache misses")
			}
		})
	}
}

func TestViReCSmallRFStillCorrect(t *testing.T) {
	// Extreme register pressure: 8 threads share 12 physical registers.
	const threads, count = 8, 32
	r := newRig(pViReC, rigOpt{threads: threads, physRegs: 12, policy: vrmu.LRC})
	sums := setupGather(r, threads, count)
	r.load(gatherProg(), 0, 1, 2, 3, 4, 5, 6, 7)
	if !r.run(10000000) {
		t.Fatal("did not finish under high contention")
	}
	for th := 0; th < threads; th++ {
		if got := r.core.Thread(th).Shadow(isa.X4); got != sums[th] {
			t.Errorf("thread %d sum = %d, want %d", th, got, sums[th])
		}
	}
	if msg := r.dcache.CheckInvariants(); msg != "" {
		t.Errorf("dcache invariant: %s", msg)
	}
}

func TestViReCAllPolicies(t *testing.T) {
	for _, pol := range vrmu.AllPolicies() {
		t.Run(pol.String(), func(t *testing.T) {
			const threads, count = 4, 32
			r := newRig(pViReC, rigOpt{threads: threads, physRegs: 16, policy: pol})
			sums := setupGather(r, threads, count)
			r.load(gatherProg(), 0, 1, 2, 3)
			if !r.run(10000000) {
				t.Fatal("did not finish")
			}
			for th := 0; th < threads; th++ {
				if got := r.core.Thread(th).Shadow(isa.X4); got != sums[th] {
					t.Errorf("thread %d sum = %d, want %d", th, got, sums[th])
				}
			}
		})
	}
}

func TestViReCAblations(t *testing.T) {
	cfgs := map[string]regfile.ViReCConfig{
		"blocking-bsi":       {PhysRegs: 16, Policy: vrmu.LRC, BlockingBSI: true},
		"no-dummy-dest":      {PhysRegs: 16, Policy: vrmu.LRC, NoDummyDest: true},
		"no-sysreg-prefetch": {PhysRegs: 16, Policy: vrmu.LRC, NoSysregPrefetch: true},
		"no-rollback":        {PhysRegs: 16, Policy: vrmu.LRC, NoRollback: true},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			const threads, count = 4, 32
			c := cfg
			r := newRig(pViReC, rigOpt{threads: threads, virecCfg: &c})
			sums := setupGather(r, threads, count)
			r.load(gatherProg(), 0, 1, 2, 3)
			if !r.run(10000000) {
				t.Fatal("did not finish")
			}
			for th := 0; th < threads; th++ {
				if got := r.core.Thread(th).Shadow(isa.X4); got != sums[th] {
					t.Errorf("thread %d sum = %d, want %d", th, got, sums[th])
				}
			}
		})
	}
}

func TestPrefetchExactUsesOracleSet(t *testing.T) {
	const threads, count = 4, 32
	r := newRig(pPrefetchExact, rigOpt{threads: threads})
	sums := setupGather(r, threads, count)
	pf := r.core.Provider().(*regfile.Prefetch)
	used := []isa.Reg{isa.X1, isa.X2, isa.X3, isa.X4, isa.X5, isa.X6, isa.X7}
	for th := 0; th < threads; th++ {
		pf.SetUsedRegs(th, used)
	}
	r.load(gatherProg(), 0, 1, 2, 3)
	if !r.run(10000000) {
		t.Fatal("did not finish")
	}
	for th := 0; th < threads; th++ {
		if got := r.core.Thread(th).Shadow(isa.X4); got != sums[th] {
			t.Errorf("thread %d sum = %d, want %d", th, got, sums[th])
		}
	}
	if pf.OnDemandFills != 0 {
		t.Errorf("oracle set complete but %d on-demand fills", pf.OnDemandFills)
	}
}

func TestBankedFasterThanSoftwareOnGather(t *testing.T) {
	cycles := func(kind providerKind) uint64 {
		const threads, count = 4, 64
		r := newRig(kind, rigOpt{threads: threads})
		setupGather(r, threads, count)
		r.load(gatherProg(), 0, 1, 2, 3)
		if !r.run(10000000) {
			t.Fatal("did not finish")
		}
		return r.core.Stats.Cycles
	}
	banked := cycles(pBanked)
	software := cycles(pSoftware)
	if banked >= software {
		t.Errorf("banked (%d cycles) should beat software switching (%d cycles)", banked, software)
	}
}

func TestViReCFullContextMatchesBankedClosely(t *testing.T) {
	// With 100% context storage ViReC should be within a modest factor of
	// banked performance (the paper: identical performance).
	const threads, count = 4, 64
	run := func(kind providerKind, phys int) uint64 {
		r := newRig(kind, rigOpt{threads: threads, physRegs: phys})
		setupGather(r, threads, count)
		r.load(gatherProg(), 0, 1, 2, 3)
		if !r.run(10000000) {
			t.Fatal("did not finish")
		}
		return r.core.Stats.Cycles
	}
	banked := run(pBanked, 0)
	virec := run(pViReC, 4*8) // 8 live registers per thread = 100% context
	ratio := float64(virec) / float64(banked)
	if ratio > 1.6 {
		t.Errorf("ViReC @100%% context %.2fx slower than banked; want < 1.6x (banked=%d, virec=%d)",
			ratio, banked, virec)
	}
}

func TestDeterministicExecution(t *testing.T) {
	trace := func() (uint64, uint64) {
		const threads, count = 4, 48
		r := newRig(pViReC, rigOpt{threads: threads, physRegs: 16})
		setupGather(r, threads, count)
		r.load(gatherProg(), 0, 1, 2, 3)
		if !r.run(10000000) {
			t.Fatal("did not finish")
		}
		return r.core.Stats.Cycles, r.core.Stats.ContextSwitches
	}
	c1, s1 := trace()
	c2, s2 := trace()
	if c1 != c2 || s1 != s2 {
		t.Errorf("nondeterministic: (%d,%d) vs (%d,%d)", c1, s1, c2, s2)
	}
}

func TestIPCAndStatsSanity(t *testing.T) {
	const threads, count = 4, 64
	r := newRig(pViReC, rigOpt{threads: threads, physRegs: 24})
	setupGather(r, threads, count)
	r.load(gatherProg(), 0, 1, 2, 3)
	if !r.run(10000000) {
		t.Fatal("did not finish")
	}
	st := &r.core.Stats
	if st.IPC() <= 0 || st.IPC() > 1 {
		t.Errorf("IPC = %f out of (0,1]", st.IPC())
	}
	wantInsts := uint64(threads * (2 + count*6 + 1)) // mov,mov + 6/iter + halt
	if st.Insts != wantInsts {
		t.Errorf("insts = %d, want %d", st.Insts, wantInsts)
	}
	if st.Loads != uint64(threads*count*2) {
		// Replayed loads re-issue, so loads >= 2 per iteration.
		if st.Loads < uint64(threads*count*2) {
			t.Errorf("loads = %d, want >= %d", st.Loads, threads*count*2)
		}
	}
	var sum uint64
	for _, n := range st.InstsPerThread {
		sum += n
	}
	if sum != st.Insts {
		t.Errorf("per-thread insts %d != total %d", sum, st.Insts)
	}
}

func TestYieldSwitchesThreads(t *testing.T) {
	prog := asm.MustAssemble("yielder", `
		mov x1, #1
		yield
		add x1, x1, #1
		halt
	`)
	r := newRig(pBanked, rigOpt{threads: 2})
	r.load(prog, 0, 1)
	if !r.run(100000) {
		t.Fatal("did not finish")
	}
	if r.core.Stats.ContextSwitches == 0 {
		t.Error("yield did not switch")
	}
	for th := 0; th < 2; th++ {
		if got := r.core.Thread(th).Shadow(isa.X1); got != 2 {
			t.Errorf("thread %d x1 = %d, want 2", th, got)
		}
	}
}

func TestHaltedThreadsAreSkipped(t *testing.T) {
	short := asm.MustAssemble("short", "mov x1, #1\nhalt")
	long := asm.MustAssemble("long", `
		mov x2, #0
	loop:
		add x2, x2, #1
		cmp x2, #50
		b.lt loop
		halt
	`)
	r := newRig(pBanked, rigOpt{threads: 3})
	r.core.Thread(0).Prog = short
	r.core.Thread(1).Prog = long
	r.core.Thread(2).Prog = short
	if !r.run(100000) {
		t.Fatal("did not finish")
	}
	if got := r.core.Thread(1).Shadow(isa.X2); got != 50 {
		t.Errorf("long thread x2 = %d, want 50", got)
	}
}

// TestUnusedThreadSlotsAreHalted runs a 4-thread core with programs on t0
// and t2 only. Every provider must finish, and none may move a register
// to or from t1's or t3's context: the successor a provider loads ahead
// of a switch is the core's, which skips slots without a program.
func TestUnusedThreadSlotsAreHalted(t *testing.T) {
	layout := cpu.RegLayout{Base: regBase}
	for name, kind := range allKinds() {
		t.Run(name, func(t *testing.T) {
			touched := 0
			tap := func(req *mem.Request) {
				for _, th := range []int{1, 3} {
					if lo := layout.RegAddr(th, 0); req.Addr >= lo && req.Addr < lo+cpu.ThreadStride {
						touched++
					}
				}
			}
			r := newRig(kind, rigOpt{threads: 4, tap: tap})
			r.load(asm.MustAssemble("only", "mov x1, #3\nhalt"), 0, 2)
			if !r.run(100000) {
				t.Fatal("core with two programmed threads must finish")
			}
			for _, th := range []int{0, 2} {
				if got := r.core.Thread(th).Shadow(isa.X1); got != 3 {
					t.Errorf("t%d x1 = %d, want 3", th, got)
				}
			}
			if touched != 0 {
				t.Errorf("%d register transfers touched an unprogrammed slot's context", touched)
			}
		})
	}
}

func TestRegLayout(t *testing.T) {
	l := cpu.RegLayout{Base: 0x1000}
	if l.RegAddr(0, isa.X0) != 0x1000 {
		t.Error("thread 0 x0 must sit at the base")
	}
	if l.RegAddr(0, isa.X1) != 0x1008 {
		t.Error("registers are 8 bytes apart")
	}
	if l.RegAddr(1, isa.X0) != 0x1000+cpu.ThreadStride {
		t.Error("threads are a stride apart")
	}
	if l.SysRegAddr(0) != 0x1000+8*64 {
		t.Error("sysregs occupy the ninth line (after 64 int+fp registers)")
	}
	if !l.Contains(0x1000, 1) || l.Contains(0x1000+cpu.ThreadStride, 1) {
		t.Error("Contains bounds wrong")
	}
	if l.Size(2) != 2*cpu.ThreadStride {
		t.Error("Size wrong")
	}
}

func TestShadowXZR(t *testing.T) {
	var th cpu.Thread
	th.SetShadow(isa.XZR, 99)
	if th.Shadow(isa.XZR) != 0 {
		t.Error("XZR must read zero")
	}
}

// TestManyRandomPrograms stress-tests all providers against the golden
// model with generated arithmetic/branch/memory mixes.
func TestManyRandomPrograms(t *testing.T) {
	// Deterministic LCG so the test is reproducible.
	state := uint64(12345)
	rnd := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	genProg := func() string {
		s := "mov x4, #0\nmov x5, #0\n"
		body := []string{}
		// Destinations avoid the loop counter (x5) and base registers
		// (x1-x3); sources may be anything previously written.
		dst := func() int { return []int{4, 6, 7, 8, 9}[rnd(5)] }
		src := func() int { return []int{4, 5, 6, 7, 8, 9}[rnd(6)] }
		for i := 0; i < 6+rnd(6); i++ {
			switch rnd(5) {
			case 0:
				body = append(body, fmt.Sprintf("add x%d, x%d, #%d", dst(), src(), rnd(100)))
			case 1:
				body = append(body, fmt.Sprintf("mul x%d, x%d, x%d", dst(), src(), src()))
			case 2:
				body = append(body, fmt.Sprintf("ldr x%d, [x2, x5, lsl #3]", dst()))
			case 3:
				body = append(body, fmt.Sprintf("eor x%d, x%d, x%d", dst(), src(), src()))
			case 4:
				body = append(body, fmt.Sprintf("str x%d, [x3, x5, lsl #3]", src()))
			}
		}
		s += "loop:\n"
		for _, b := range body {
			s += "\t" + b + "\n"
		}
		s += "\tadd x5, x5, #1\n\tcmp x5, x1\n\tb.lt loop\n\thalt\n"
		return s
	}
	for trial := 0; trial < 10; trial++ {
		src := genProg()
		prog, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		prog.Name = fmt.Sprintf("random%d", trial)
		for name, kind := range allKinds() {
			const threads = 3
			r := newRig(kind, rigOpt{threads: threads, physRegs: 14})
			for th := 0; th < threads; th++ {
				base := dataBase + mem.Addr(th*0x10000)
				for i := 0; i < 64; i++ {
					r.mem.Write64(base+mem.Addr(8*i), uint64(rnd(1000)))
				}
				r.setReg(th, isa.X1, 16)
				r.setReg(th, isa.X2, uint64(base))
				r.setReg(th, isa.X3, uint64(base+0x8000))
			}
			r.load(prog, 0, 1, 2)
			// ValidateValues panics on any provider/golden divergence.
			if !r.run(10000000) {
				t.Fatalf("trial %d provider %s: did not finish\n%s", trial, name, src)
			}
		}
	}
}

func TestFPPipelineExecution(t *testing.T) {
	// FP arithmetic with forwarding, FCMP-driven branching, and FP
	// loads/stores through every provider.
	prog := asm.MustAssemble("fp", `
		scvtf d1, x1          // d1 = 3.0
		scvtf d2, x2          // d2 = 4.0
		fmul  d3, d1, d1      // 9
		fmadd d3, d2, d2, d3  // 25
		fsqrt d4, d3          // 5
		fcmp  d4, d1
		b.le  wrong
		fadd  d5, d4, d2      // 9
		str   d5, [x10]
		ldr   d6, [x10]
		fcvtzs x9, d6         // 9
		halt
	wrong:
		mov x9, #666
		halt
	`)
	for name, kind := range allKinds() {
		t.Run(name, func(t *testing.T) {
			r := newRig(kind, rigOpt{threads: 1})
			r.setReg(0, isa.X1, 3)
			r.setReg(0, isa.X2, 4)
			r.setReg(0, isa.X10, uint64(dataBase))
			r.load(prog, 0)
			if !r.run(100000) {
				t.Fatal("did not finish")
			}
			if got := r.core.Thread(0).Shadow(isa.X9); got != 9 {
				t.Errorf("x9 = %d, want 9", got)
			}
		})
	}
}

func TestFPLatenciesLongerThanInt(t *testing.T) {
	// A serial FDIV chain must take meaningfully longer than an ADD chain
	// of the same length (FP execution latencies are modeled).
	mk := func(op string) *asm.Program {
		src := "scvtf d1, x1\nscvtf d2, x2\n"
		for i := 0; i < 32; i++ {
			src += op + "\n"
		}
		return asm.MustAssemble(op, src+"halt")
	}
	run := func(p *asm.Program) uint64 {
		r := newRig(pBanked, rigOpt{threads: 1})
		r.setReg(0, isa.X1, 3)
		r.setReg(0, isa.X2, 4)
		r.load(p, 0)
		if !r.run(100000) {
			t.Fatal("did not finish")
		}
		return r.core.Stats.Cycles
	}
	fdiv := run(mk("fdiv d1, d1, d2"))
	fadd := run(mk("fadd d1, d1, d2"))
	if fdiv <= fadd {
		t.Errorf("fdiv chain (%d cycles) not slower than fadd chain (%d)", fdiv, fadd)
	}
}

func TestStoreQueueBackpressure(t *testing.T) {
	// A burst of stores must throttle on the 5-entry store queue but
	// still complete correctly.
	src := "mov x5, #0\nloop:\n"
	for i := 0; i < 8; i++ {
		src += fmt.Sprintf("str x5, [x10, #%d]\n", 8*i)
	}
	src += "add x5, x5, #1\ncmp x5, #16\nb.lt loop\nhalt"
	prog := asm.MustAssemble("stores", src)
	r := newRig(pBanked, rigOpt{threads: 1})
	r.setReg(0, isa.X10, uint64(dataBase))
	r.load(prog, 0)
	if !r.run(1000000) {
		t.Fatal("did not finish")
	}
	if r.core.Stats.SQFullStalls == 0 {
		t.Error("expected store-queue backpressure with an 8-store burst")
	}
	for i := 0; i < 8; i++ {
		if got := r.mem.Read64(dataBase + mem.Addr(8*i)); got != 15 {
			t.Errorf("mem[%d] = %d, want 15", i, got)
		}
	}
}

func TestICacheFetchPath(t *testing.T) {
	// Route fetch through a real icache: cold fetch misses go to memory,
	// then the loop hits; results stay identical to the fixed-latency path.
	prog := asm.MustAssemble("icache", `
		mov x1, #0
		mov x2, #0
	loop:
		add x1, x1, x2
		add x2, x2, #1
		cmp x2, #50
		b.lt loop
		halt
	`)
	run := func(withICache bool) (uint64, uint64) {
		r := newRig(pBanked, rigOpt{threads: 1})
		var ic *cache.Cache
		if withICache {
			ic = cache.New(cache.Config{
				Name: "icache", SizeBytes: 32 * 1024, Assoc: 4,
				HitLatency: 2, MSHRs: 4, Ports: 1,
			}, r.lower)
			r.core.SetICache(ic)
			r.core.Thread(0).ProgBase = 0x8000000
		}
		r.load(prog, 0)
		r.core.Start()
		for ; r.cycle < 100000; r.cycle++ {
			r.core.Tick(r.cycle)
			r.dcache.Tick(r.cycle)
			if ic != nil {
				ic.Tick(r.cycle)
			}
			r.lower.Tick(r.cycle)
			if r.core.Done() {
				break
			}
		}
		if !r.core.Done() {
			t.Fatal("did not finish")
		}
		if got := r.core.Thread(0).Shadow(isa.X1); got != 1225 {
			t.Fatalf("sum = %d, want 1225", got)
		}
		var hits uint64
		if ic != nil {
			hits = ic.Stats.Hits
		}
		return r.core.Stats.Cycles, hits
	}
	fixed, _ := run(false)
	timed, hits := run(true)
	if hits == 0 {
		t.Error("icache never hit")
	}
	// Cold icache misses cost a bit, but the loop dominates.
	if timed < fixed {
		t.Errorf("icache run (%d cycles) faster than perfect fetch (%d)?", timed, fixed)
	}
	if float64(timed) > 2*float64(fixed) {
		t.Errorf("icache run %.1fx slower than fixed-latency fetch; warmup should be small",
			float64(timed)/float64(fixed))
	}
}

func TestDcacheMSHRSaturation(t *testing.T) {
	// With one MSHR, concurrent misses from different threads serialize;
	// everything must still complete and verify.
	const threads, count = 4, 32
	r := newRig(pBanked, rigOpt{threads: threads})
	// Rebuild rig's dcache with 1 MSHR is easiest via a custom run here:
	memory := r.mem
	lower := r.lower
	dc := cache.New(cache.Config{
		Name: "tiny", SizeBytes: 8 * 1024, Assoc: 4,
		HitLatency: 2, MSHRs: 1, Ports: 1,
	}, lower)
	layout := r.layout
	provider := regfile.NewBanked(threads, dc, memory, layout)
	core := cpu.New(cpu.Config{Threads: threads, ValidateValues: true}, provider, dc, memory)
	r2 := &rig{core: core, dcache: dc, lower: lower, mem: memory, layout: layout}
	sums := setupGather(r2, threads, count)
	r2.load(gatherProg(), 0, 1, 2, 3)
	if !r2.run(10000000) {
		t.Fatal("did not finish with 1 MSHR")
	}
	for th := 0; th < threads; th++ {
		if got := core.Thread(th).Shadow(isa.X4); got != sums[th] {
			t.Errorf("thread %d sum = %d, want %d", th, got, sums[th])
		}
	}
	if dc.Stats.MSHRRejects == 0 {
		t.Error("expected MSHR rejections with a single MSHR")
	}
}
