// Package sim composes complete near-memory systems out of the simulator
// building blocks: one or more CGMT cores (with any register provider),
// private L1 dcaches, a shared crossbar and the DDR5-flavoured memory
// controller, as in the paper's evaluation setup (Table 1, Section 6).
// It also implements the task-offload mechanism: thread contexts are
// written into each core's reserved register region in memory, and cores
// fetch them when a thread is first scheduled.
package sim

import (
	"fmt"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"

	"github.com/virec/virec/internal/asm"
	"github.com/virec/virec/internal/cpu"
	"github.com/virec/virec/internal/cpu/regfile"
	"github.com/virec/virec/internal/harden"
	"github.com/virec/virec/internal/interp"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/mem/cache"
	"github.com/virec/virec/internal/mem/dram"
	"github.com/virec/virec/internal/mem/xbar"
	"github.com/virec/virec/internal/telemetry"
	"github.com/virec/virec/internal/vrmu"
	"github.com/virec/virec/internal/workloads"
)

// CoreKind selects the register-context architecture of every core.
type CoreKind int

// Core kinds evaluated in the paper.
const (
	// Banked is the banked-register-file CGMT baseline.
	Banked CoreKind = iota
	// ViReC is the paper's architecture.
	ViReC
	// Software is software context switching.
	Software
	// PrefetchFull double-buffers complete contexts.
	PrefetchFull
	// PrefetchExact double-buffers oracle-predicted contexts.
	PrefetchExact
)

var coreKindNames = [...]string{"banked", "virec", "software", "prefetch-full", "prefetch-exact"}

// String returns the kind's name.
func (k CoreKind) String() string {
	if int(k) < len(coreKindNames) {
		return coreKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ParseCoreKind resolves a name printed by String.
func ParseCoreKind(s string) (CoreKind, error) {
	for i, n := range coreKindNames {
		if n == s {
			return CoreKind(i), nil
		}
	}
	return 0, fmt.Errorf("sim: unknown core kind %q", s)
}

// Config describes a system to simulate.
type Config struct {
	Kind           CoreKind
	Cores          int
	ThreadsPerCore int

	// Workload and its per-thread size. Every thread of every core runs
	// the same kernel on private data (the paper's setup) unless
	// WorkloadMix is set.
	Workload *workloads.Spec
	Iters    int
	Seed     uint64

	// WorkloadMix, when non-empty, assigns kernels to hardware threads
	// round-robin (thread t runs WorkloadMix[t % len]), modeling a
	// near-memory processor servicing offloads from different host
	// applications concurrently. Workload is still used for ViReC
	// context sizing and oracle sets; it defaults to WorkloadMix[0].
	WorkloadMix []*workloads.Spec

	// ViReC sizing: either PhysRegs directly, or ContextPct as a percent
	// of the aggregate active context (the paper's 40-100% sweep).
	PhysRegs   int
	ContextPct int
	Policy     vrmu.Policy
	ViReCOpts  regfile.ViReCConfig // ablations; PhysRegs/Policy overridden

	// DCache geometry (zero = Table 1: 8 KB, 2-cycle hits; always 4-way
	// with 24 MSHRs).
	DCacheBytes      int
	DCacheHitLatency int
	PinningDisabled  bool

	// FixedMemLatency > 0 replaces the DRAM model (Table 1) with a
	// constant-latency device behind the crossbar (latency-sweep
	// experiments).
	FixedMemLatency int

	// ValidateValues enables the golden-model cross-check (slows the run
	// slightly; tests keep it on, large sweeps may disable).
	ValidateValues bool

	// Harden configures the hardening layer: deterministic fault
	// injection on the dcache path, the livelock watchdog, and the
	// continuous invariant checker. The zero value leaves plain runs
	// unchanged (a final invariant sweep always runs).
	Harden harden.Config

	// TraceEvents, when > 0, enables the cycle-level event tracer with a
	// ring buffer of that many events. Without a sink the ring keeps the
	// most recent events (watchdog dumps embed the tail); with TraceSink
	// set, full batches stream out as the ring fills, so a complete run
	// trace costs bounded memory. Zero leaves tracing fully disabled —
	// the emit paths then cost one branch and zero allocations.
	TraceEvents int
	// TraceSink receives event batches in emit order (see TraceEvents).
	// The slice is reused after the call returns.
	TraceSink func([]telemetry.Event)

	// WrapProvider, when set, may replace each core's register provider
	// with the value it returns (a nil return keeps the original). The
	// differential-test harness uses it to interpose deliberately buggy
	// wrappers between the pipeline and a real provider; normal runs
	// leave it nil. Applied after kind-specific wiring, so metrics,
	// telemetry and oracle installation see the unwrapped provider.
	WrapProvider func(coreID int, p cpu.Provider) cpu.Provider

	// NoSkipAhead disables event-driven clock skip-ahead. With the
	// default (skip enabled), the run loop jumps the clock over runs of
	// cycles it can prove are pure stalls on every component — final
	// architectural state and metrics are byte-identical either way, and
	// invariant sweeps run on the same cycles (the skip-ahead equivalence
	// suite and the difftest -skipahead=off lane hold this). Disabling
	// forces the classic tick-every-cycle loop.
	NoSkipAhead bool

	MaxCycles uint64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Cores == 0 {
		out.Cores = 1
	}
	if out.ThreadsPerCore == 0 {
		out.ThreadsPerCore = 8
	}
	if out.Iters == 0 {
		out.Iters = 256
	}
	if out.DCacheBytes == 0 {
		out.DCacheBytes = 8 * 1024
	}
	if out.DCacheHitLatency == 0 {
		out.DCacheHitLatency = 2
	}
	if out.MaxCycles == 0 {
		out.MaxCycles = 500_000_000
	}
	if out.Seed == 0 {
		out.Seed = 0x9e3779b97f4a7c15
	}
	if out.Workload == nil && len(out.WorkloadMix) > 0 {
		out.Workload = out.WorkloadMix[0]
	}
	return out
}

// Check returns an error for a config New cannot build, after zero fields
// take their defaults: no workload, a negative core, thread or iteration
// count, more banked threads than Table 1's eight banks, a ViReC register
// file below eight registers or above what the tag store holds (explicit
// or derived from ContextPct), or more iterations than a kernel's data
// layout holds.
func (c *Config) Check() error {
	cfg := c.withDefaults()
	if cfg.Workload == nil {
		return fmt.Errorf("sim: config needs a workload")
	}
	if cfg.Cores < 0 || cfg.ThreadsPerCore < 0 {
		return fmt.Errorf("sim: core and thread counts must not be negative, got %d cores of %d threads", cfg.Cores, cfg.ThreadsPerCore)
	}
	if cfg.Iters < 0 {
		return fmt.Errorf("sim: iteration count must not be negative, got %d", cfg.Iters)
	}
	if cfg.Kind == Banked && cfg.ThreadsPerCore > 8 {
		return fmt.Errorf("sim: banked core supports at most 8 threads (Table 1), got %d", cfg.ThreadsPerCore)
	}
	if cfg.Kind == ViReC {
		if cfg.PhysRegs != 0 && cfg.PhysRegs < 8 {
			return fmt.Errorf("sim: ViReC needs at least 8 physical registers, got %d", cfg.PhysRegs)
		}
		if n := cfg.PhysRegsFor(); n > vrmu.MaxPhysRegs {
			return fmt.Errorf("sim: ViReC register file of %d physical registers exceeds the tag store limit of %d", n, vrmu.MaxPhysRegs)
		}
	}
	// The threads run the mix when one is set, and Workload otherwise.
	kernels := cfg.WorkloadMix
	if len(kernels) == 0 {
		kernels = []*workloads.Spec{cfg.Workload}
	}
	for _, w := range kernels {
		if w.MaxIters > 0 && cfg.Iters > w.MaxIters {
			return fmt.Errorf("sim: %s holds at most %d iterations per thread, got %d", w.Name, w.MaxIters, cfg.Iters)
		}
	}
	return nil
}

// PhysRegsFor resolves the physical register count for a ViReC core:
// explicit PhysRegs wins; otherwise ContextPct of the workload's active
// context per thread, times the thread count (minimum 8).
func (c *Config) PhysRegsFor() int {
	if c.PhysRegs > 0 {
		return c.PhysRegs
	}
	pct := c.ContextPct
	if pct == 0 {
		pct = 100
	}
	active := len(c.Workload.ActiveRegs())
	per := (active*pct + 99) / 100
	if per < 1 {
		per = 1
	}
	n := per * c.ThreadsPerCore
	if n < 8 {
		n = 8
	}
	return n
}

// builtProvider is a register provider as New builds it: Release hands
// it to the next system that builds one of its type.
type builtProvider interface {
	cpu.Provider
	Release()
}

// System is a composed simulation ready to run.
type System struct {
	cfg     Config
	Memory  *mem.Memory
	Cores   []*cpu.Core
	DCaches []*cache.Cache
	ICaches []*cache.Cache
	Xbar    *xbar.Xbar
	DRAM    *dram.DRAM
	fixed   *mem.DelayDevice
	layouts []cpu.RegLayout
	oracles []*regfile.ViReC // Belady-policy providers awaiting sequences
	// providers are the register providers as New built them, before
	// WrapProvider; Release hands them back.
	providers []builtProvider

	// Injectors, when fault injection is enabled, sit between each core
	// (pipeline, store queue, register provider) and its dcache.
	Injectors []*harden.Injector

	// Registry is the run's unified metric namespace: every structure's
	// counters, gauges and histograms live here under per-structure
	// prefixes (core0/..., rf0/..., dcache0/..., dram/..., xbar/...).
	// Always built: it costs the hot paths nothing, since it reads the
	// structures' fields only when Run takes the final snapshot, and each
	// structure's registration is one list entry with names built once
	// per process.
	Registry *telemetry.Registry
	// Tracer is the cycle-level event tracer, nil unless
	// Config.TraceEvents > 0.
	Tracer *telemetry.Tracer

	// skipped counts cycles the run loop jumped over instead of ticking.
	// Deliberately not in the Registry: it is simulator-speed bookkeeping,
	// and registering it would make skip and no-skip metric snapshots
	// differ by construction.
	skipped uint64
	// cycle is the last cycle of a finished Exec.
	cycle uint64
	// lastInsts and lastCommit are Exec's per-core progress: instructions
	// committed and the cycle of the last commit, which a MaxCycles error
	// reports. Each run resizes them.
	lastInsts, lastCommit []uint64

	verifies [][]workloads.Verify
	// setReg and shadowReg are the callbacks offload hands each thread's
	// Setup and Exec each verifier. They are bound once, when the system is
	// first made, and act on thread curThread of core curCore.
	setReg             func(isa.Reg, uint64)
	shadowReg          func(isa.Reg) uint64
	curCore, curThread int

	// The Belady pre-run's scratch, which a rebuild keeps: the threaded
	// code of each distinct kernel in oracleCode, lowered from the program
	// at the same index of oracleProgs, and the access-sequence buffer.
	oracleProgs []*asm.Program
	oracleCode  []*interp.Precoded
	oracleSeq   []isa.Reg
}

// systemPool holds released systems. New rebuilds one with a single
// struct literal: the component lists, the verifier lists and the Belady
// scratch keep their storage, and every component is built anew from its
// own type's pool.
var systemPool sync.Pool

// SkipAheadCycles reports how many cycles the last Run jumped over via
// clock skip-ahead (zero when disabled or never engaged).
func (s *System) SkipAheadCycles() uint64 { return s.skipped }

// Cycles reports the cycles a finished Exec simulated: the Cycles of the
// Result Run would build.
func (s *System) Cycles() uint64 { return s.cycle + 1 }

// Address-space layout: reserved register regions first, then per-thread
// data slabs, all separated by odd line offsets to avoid pathological
// set aliasing between threads.
const (
	regRegionBase = mem.Addr(0x4000_0000)
	progBase      = mem.Addr(0x8000_0000)
	dataBase      = mem.Addr(0x0010_0000)
	slabSkew      = 0x2c0
)

// New builds a system, or returns the error Check finds in cfg.
func New(cfg Config) (*System, error) {
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	s, _ := systemPool.Get().(*System)
	if s == nil {
		s = new(System)
		s.setReg, s.shadowReg = s.setContextReg, s.threadShadow
	}
	*s = System{cfg: cfg, Memory: mem.NewMemory(), Registry: telemetry.NewRegistry(),
		Cores: s.Cores[:0], DCaches: s.DCaches[:0], ICaches: s.ICaches[:0],
		Injectors: s.Injectors[:0], layouts: s.layouts[:0], oracles: s.oracles[:0],
		providers: s.providers[:0], lastInsts: s.lastInsts, lastCommit: s.lastCommit,
		verifies: s.verifies, setReg: s.setReg, shadowReg: s.shadowReg,
		oracleProgs: s.oracleProgs[:0], oracleCode: s.oracleCode, oracleSeq: s.oracleSeq}
	if cfg.TraceEvents > 0 {
		s.Tracer = telemetry.NewTracer(cfg.TraceEvents)
		if cfg.TraceSink != nil {
			s.Tracer.SetSink(cfg.TraceSink)
		}
	}

	// Memory side: either the DRAM model behind the crossbar, or a fixed
	// latency device for controlled sweeps.
	var below mem.Device
	if cfg.FixedMemLatency > 0 {
		s.fixed = mem.NewDelayDevice(uint64(cfg.FixedMemLatency))
		below = s.fixed
	} else {
		s.DRAM = dram.New(dram.DefaultConfig())
		below = s.DRAM
	}
	s.Xbar = xbar.New(xbar.DefaultConfig(), below)

	pipeCfg := cpu.DefaultConfig()
	pipeCfg.Threads = cfg.ThreadsPerCore
	pipeCfg.ValidateValues = cfg.ValidateValues

	for coreID := 0; coreID < cfg.Cores; coreID++ {
		layout := cpu.RegLayout{
			Base: regRegionBase + mem.Addr(coreID)*mem.Addr(cfg.ThreadsPerCore*cpu.ThreadStride+4096),
		}
		s.layouts = append(s.layouts, layout)

		id := strconv.Itoa(coreID)
		ccfg := cache.Config{
			Name:            telemetry.Name("dcache", id),
			SizeBytes:       cfg.DCacheBytes,
			Assoc:           4,
			HitLatency:      cfg.DCacheHitLatency,
			MSHRs:           24,
			Ports:           1,
			PinningDisabled: cfg.PinningDisabled,
		}
		if cfg.Kind == ViReC {
			ccfg.RegRegionBase = layout.Base
			ccfg.RegRegionSize = layout.Size(cfg.ThreadsPerCore)
		}
		dc := cache.New(ccfg, s.Xbar)
		dc.SetTelemetry(s.Tracer, coreID)
		s.DCaches = append(s.DCaches, dc)

		// The core and its register provider see the dcache through the
		// fault injector when one is configured; the cache itself (and
		// everything below it) is unchanged.
		var dcDev mem.Device = dc
		if cfg.Harden.FaultSeed != 0 {
			inj := harden.NewInjector(cfg.Harden.ResolvedPlan(),
				cfg.Harden.FaultSeed+uint64(coreID)*0x9e3779b97f4a7c15, dc)
			s.Injectors = append(s.Injectors, inj)
			dcDev = inj
		}

		ic := cache.New(cache.Config{
			Name:       telemetry.Name("icache", id),
			SizeBytes:  32 * 1024,
			Assoc:      4,
			HitLatency: 2,
			MSHRs:      4,
			Ports:      1,
		}, s.Xbar)
		s.ICaches = append(s.ICaches, ic)

		var provider builtProvider
		switch cfg.Kind {
		case Banked:
			provider = regfile.NewBanked(cfg.ThreadsPerCore, dcDev, s.Memory, layout)
		case ViReC:
			vc := cfg.ViReCOpts
			vc.PhysRegs = cfg.PhysRegsFor()
			vc.Policy = cfg.Policy
			v := regfile.NewViReC(vc, cfg.ThreadsPerCore, dcDev, s.Memory, layout)
			if vc.PrefetchNext {
				for th := 0; th < cfg.ThreadsPerCore; th++ {
					spec := cfg.Workload
					if len(cfg.WorkloadMix) > 0 {
						spec = cfg.WorkloadMix[th%len(cfg.WorkloadMix)]
					}
					v.SetPrefetchRegs(th, spec.ActiveRegs())
				}
			}
			if vc.Policy == vrmu.Belady {
				s.oracles = append(s.oracles, v)
			}
			provider = v
		case Software:
			provider = regfile.NewSoftware(cfg.ThreadsPerCore, dcDev, s.Memory, layout)
		case PrefetchFull:
			provider = regfile.NewPrefetch(regfile.PrefetchFull, cfg.ThreadsPerCore, dcDev, s.Memory, layout)
		case PrefetchExact:
			pf := regfile.NewPrefetch(regfile.PrefetchExact, cfg.ThreadsPerCore, dcDev, s.Memory, layout)
			active := cfg.Workload.ActiveRegs()
			for th := 0; th < cfg.ThreadsPerCore; th++ {
				pf.SetUsedRegs(th, active)
			}
			provider = pf
		default:
			return nil, fmt.Errorf("sim: unknown core kind %d", cfg.Kind)
		}

		if v, ok := provider.(*regfile.ViReC); ok {
			v.SetTelemetry(s.Tracer, coreID)
		}
		s.providers = append(s.providers, provider)
		var coreProvider cpu.Provider = provider
		if cfg.WrapProvider != nil {
			if w := cfg.WrapProvider(coreID, provider); w != nil {
				coreProvider = w
			}
		}

		core := cpu.New(pipeCfg, coreProvider, dcDev, s.Memory)
		core.SetTelemetry(s.Tracer, coreID)
		core.SetICache(ic)
		base := progBase + mem.Addr(coreID)*0x10_0000
		for th := 0; th < cfg.ThreadsPerCore; th++ {
			// Threads running the same kernel share icache lines; a mix
			// gives each kernel its own program addresses.
			slot := 0
			if len(cfg.WorkloadMix) > 0 {
				slot = th % len(cfg.WorkloadMix)
			}
			core.Thread(th).ProgBase = base + mem.Addr(slot)*0x1000
		}
		s.Cores = append(s.Cores, core)
	}
	s.registerMetrics(s.Registry)

	s.offload()
	s.recordOracles()
	return s, nil
}

// registerMetrics wires every structure into r: the memory side under
// dram and xbar, then each core's dcache, fault injector, icache, ViReC
// provider and pipeline under dcacheN, injectN, icacheN, rfN and coreN.
// Every prefix and name comes from telemetry.Name, so once a process has
// registered a namespace, registering it again builds no string.
func (s *System) registerMetrics(r *telemetry.Registry) {
	if s.DRAM != nil {
		s.DRAM.RegisterMetrics(r, "dram")
	}
	s.Xbar.RegisterMetrics(r, "xbar")
	for coreID, core := range s.Cores {
		id := strconv.Itoa(coreID)
		s.DCaches[coreID].RegisterMetrics(r, telemetry.Name("dcache", id))
		if len(s.Injectors) > 0 {
			s.Injectors[coreID].RegisterMetrics(r, telemetry.Name("inject", id))
		}
		s.ICaches[coreID].RegisterMetrics(r, telemetry.Name("icache", id))
		if v, ok := s.providers[coreID].(*regfile.ViReC); ok {
			v.RegisterMetrics(r, telemetry.Name("rf", id))
		}
		core.RegisterMetrics(r, telemetry.Name("core", id))
	}
}

// recordOracles runs each thread functionally on a copy-on-write overlay
// of the offloaded memory and installs its register access sequence into
// Belady-policy providers. Nothing writes the system memory during the
// pre-runs, as the overlay contract requires.
func (s *System) recordOracles() {
	if len(s.oracles) == 0 {
		return
	}
	var buf [6]isa.Reg
	record := func(e interp.TraceEntry) {
		for _, r := range e.Inst.Regs(buf[:0]) {
			if r != isa.XZR {
				s.oracleSeq = append(s.oracleSeq, r)
			}
		}
	}
	for coreID, v := range s.oracles {
		layout := s.layouts[coreID]
		for th := 0; th < s.cfg.ThreadsPerCore; th++ {
			var ctx interp.Context
			for r := isa.Reg(0); r < isa.NumRegs; r++ {
				ctx.Set(r, s.Memory.Read64(layout.RegAddr(th, r)))
			}
			// One sequence buffer serves every thread; SetOracleSeq keeps
			// no reference to it.
			s.oracleSeq = s.oracleSeq[:0]
			scratch := s.Memory.Overlay()
			s.precoded(s.specFor(th).Prog).Run(&ctx, scratch, 100_000_000, record)
			scratch.Release()
			v.SetOracleSeq(th, s.oracleSeq)
		}
	}
}

// precoded returns prog's threaded code. Each distinct kernel is lowered
// once per system and every thread replays it, so a mix pays one lowering
// per kernel, not one per thread.
func (s *System) precoded(prog *asm.Program) *interp.Precoded {
	i := slices.Index(s.oracleProgs, prog)
	if i < 0 {
		i = len(s.oracleProgs)
		s.oracleProgs = append(s.oracleProgs, prog)
		if i == len(s.oracleCode) {
			s.oracleCode = append(s.oracleCode, new(interp.Precoded))
		}
		s.oracleCode[i].Reset(prog)
	}
	return s.oracleCode[i]
}

// SetOnCommit installs one per-commit observer on every core; the
// callback fires once per committed instruction, in each core's commit
// order. Install before Run.
func (s *System) SetOnCommit(fn func(cpu.CommitEvent)) {
	for _, c := range s.Cores {
		c.SetOnCommit(fn)
	}
}

// ThreadSlabBase returns the base address of the private data slab thread
// th of core coreID is offloaded with under this config — the same layout
// arithmetic offload uses, exposed so differential tests can build golden
// references against an identical address space before the system exists.
func (c *Config) ThreadSlabBase(coreID, th int) mem.Addr {
	cfg := c.withDefaults()
	slab := cfg.slabStride()
	global := coreID*cfg.ThreadsPerCore + th
	return dataBase + mem.Addr(uint64(global)*slab)
}

// slabStride returns the per-thread data-slab stride.
func (c *Config) slabStride() uint64 {
	max := c.Workload.SlabBytes
	for _, w := range c.WorkloadMix {
		if w.SlabBytes > max {
			max = w.SlabBytes
		}
	}
	return max + slabSkew
}

// specFor returns the kernel hardware thread th runs.
func (s *System) specFor(th int) *workloads.Spec {
	if len(s.cfg.WorkloadMix) > 0 {
		return s.cfg.WorkloadMix[th%len(s.cfg.WorkloadMix)]
	}
	return s.cfg.Workload
}

// offload writes each thread's program context: data slab initialization,
// initial registers into the reserved region (the offload payload), and
// the golden shadow for validation.
func (s *System) offload() {
	cfg := s.cfg
	s.verifies = slices.Grow(s.verifies[:0], cfg.Cores)[:cfg.Cores]
	slab := s.cfg.slabStride()
	for coreID, core := range s.Cores {
		s.verifies[coreID] = slices.Grow(s.verifies[coreID][:0], cfg.ThreadsPerCore)[:cfg.ThreadsPerCore]
		s.curCore = coreID
		for th := 0; th < cfg.ThreadsPerCore; th++ {
			spec := s.specFor(th)
			global := coreID*cfg.ThreadsPerCore + th
			base := dataBase + mem.Addr(uint64(global)*slab)
			p := workloads.Params{Iters: cfg.Iters, Seed: cfg.Seed, ThreadID: global}
			core.Thread(th).Prog = spec.Prog
			s.curThread = th
			s.verifies[coreID][th] = spec.Setup(s.Memory, base, p, s.setReg)
		}
		core.Start()
	}
}

// setContextReg is setReg: it writes register r of the current thread's
// offloaded context and the thread's golden shadow.
func (s *System) setContextReg(r isa.Reg, v uint64) {
	s.Memory.Write64(s.layouts[s.curCore].RegAddr(s.curThread, r), v)
	s.Cores[s.curCore].Thread(s.curThread).SetShadow(r, v)
}

// threadShadow is shadowReg: it reads register r of the current thread's
// golden shadow.
func (s *System) threadShadow(r isa.Reg) uint64 {
	return s.Cores[s.curCore].Thread(s.curThread).Shadow(r)
}

// Result carries the measurements of one run.
type Result struct {
	Cycles      uint64
	Insts       uint64
	IPC         float64 // aggregate instructions per system cycle
	CoreStats   []cpu.Stats
	CacheStats  []cache.Stats
	ICacheStats []cache.Stats
	DRAMStats   *dram.Stats
	// TagStats is present for ViReC systems (register hit rates).
	TagStats []vrmu.Stats
	// Metrics is the end-of-run snapshot of the system's telemetry
	// registry: every structure's counters, gauges and histograms under
	// one label-addressed namespace. The counters alias the same memory
	// as the Stats structs above, so the two views reconcile exactly.
	Metrics *telemetry.Snapshot
}

// Exec simulates until every core finishes (or MaxCycles elapse), sweeps
// the invariants of the final machine and verifies every thread's final
// state against the workload golden model. It builds no Result: Run is
// Exec followed by the Result and its metrics snapshot, and a caller that
// judges the run by other means, as difftest's lock-step compare does,
// calls Exec alone. A panic inside returns as a *CrashError.
func (s *System) Exec() (err error) {
	cfg := s.cfg
	var cycle uint64
	defer s.recoverCrash(&err, &cycle)

	wd := harden.Watchdog{Window: cfg.Harden.WatchdogWindow}
	n := len(s.Cores)
	s.lastInsts = slices.Grow(s.lastInsts[:0], n)[:n]
	s.lastCommit = slices.Grow(s.lastCommit[:0], n)[:n]
	lastInsts, lastCommit := s.lastInsts, s.lastCommit
	clear(lastInsts)
	clear(lastCommit)
	// skipProbe gates the skip-ahead attempt. Ticking is always correct,
	// so a probe may be deferred freely: a failed probe (some component
	// was busy) backs off exponentially up to 15 cycles, making busy
	// phases pay the NextEvent scan on at most 1/16 of their cycles,
	// while stall windows — typically a full memory latency long — are
	// still caught within a few cycles of opening. A successful skip
	// resets the backoff so a window capped at a watchdog deadline or
	// invariant-sweep boundary resumes skipping right after that tick.
	var skipProbe, skipBackoff uint64
	for ; cycle < cfg.MaxCycles; cycle++ {
		done := true
		for _, c := range s.Cores {
			c.Tick(cycle)
			if !c.Done() {
				done = false
			}
		}
		for _, dc := range s.DCaches {
			dc.Tick(cycle)
		}
		for _, ic := range s.ICaches {
			ic.Tick(cycle)
		}
		for _, inj := range s.Injectors {
			inj.Tick(cycle)
		}
		s.Xbar.Tick(cycle)
		if s.DRAM != nil {
			s.DRAM.Tick(cycle)
		} else {
			s.fixed.Tick(cycle)
		}
		var total uint64
		for i, c := range s.Cores {
			total += c.Stats.Insts
			if c.Stats.Insts != lastInsts[i] {
				lastInsts[i] = c.Stats.Insts
				lastCommit[i] = cycle
			}
		}
		if done {
			break
		}
		if wd.Window > 0 && wd.Observe(cycle, total) {
			return &LivelockError{
				Cycle:        cycle,
				Window:       wd.Window,
				LastProgress: wd.LastProgress(),
				Dump:         harden.Dump(s.view()),
			}
		}
		if k := cfg.Harden.CheckEvery; k > 0 && cycle%k == k-1 {
			if msg := harden.CheckSystem(s.view()); msg != "" {
				return &InvariantError{
					Cycle:     cycle,
					Violation: msg,
					Dump:      harden.Dump(s.view()),
				}
			}
		}
		if !cfg.NoSkipAhead && cycle >= skipProbe {
			if t := s.skipTarget(cycle, &wd); t <= cycle+1 {
				skipBackoff = 2*skipBackoff + 1
				if skipBackoff > 15 {
					skipBackoff = 15
				}
				skipProbe = cycle + 1 + skipBackoff
			} else {
				// Cycles (cycle, t) are pure stalls on every component:
				// ticking them would only advance stall counters and
				// device clocks. Bulk-account them and resume at t.
				last := t - 1
				s.skipped += last - cycle
				for _, c := range s.Cores {
					c.SkipTo(last)
				}
				// One quiescent tick refreshes each device's internal
				// clock so latency stamps taken at cycle t match an
				// unskipped run; no queue head is due before t, so
				// nothing else moves.
				for _, dc := range s.DCaches {
					dc.Tick(last)
				}
				for _, ic := range s.ICaches {
					ic.Tick(last)
				}
				for _, inj := range s.Injectors {
					inj.SkipTo(last)
				}
				s.Xbar.Tick(last)
				if s.DRAM != nil {
					s.DRAM.Tick(last)
				} else {
					s.fixed.Tick(last)
				}
				cycle = last
				skipBackoff = 0
			}
		}
	}
	if cycle >= cfg.MaxCycles {
		return s.maxCyclesError(lastInsts, lastCommit)
	}

	// Final unconditional invariant sweep: every run, faulted or not,
	// must end with a self-consistent machine.
	if msg := harden.CheckSystem(s.view()); msg != "" {
		return &InvariantError{
			Cycle:     cycle,
			Violation: msg,
			Dump:      harden.Dump(s.view()),
		}
	}

	s.cycle = cycle
	for coreID := range s.Cores {
		s.curCore = coreID
		for th := 0; th < cfg.ThreadsPerCore; th++ {
			s.curThread = th
			if err := s.verifies[coreID][th](s.shadowReg, s.Memory); err != nil {
				return fmt.Errorf("sim: core %d thread %d (%s): %w",
					coreID, th, s.specFor(th).Name, err)
			}
		}
	}
	s.Tracer.Flush()
	return nil
}

// Run is Exec followed by the Result: every structure's statistics and
// the end-of-run snapshot of the metrics registry. Its errors are Exec's,
// and a panic while it builds the Result returns as a *CrashError too.
func (s *System) Run() (_ *Result, err error) {
	defer s.recoverCrash(&err, &s.cycle)
	if err := s.Exec(); err != nil {
		return nil, err
	}
	res := &Result{Cycles: s.Cycles()}
	for coreID, c := range s.Cores {
		// A copy: the core's slice goes back to the pool with the core.
		st := c.Stats
		st.InstsPerThread = slices.Clone(st.InstsPerThread)
		res.CoreStats = append(res.CoreStats, st)
		res.Insts += c.Stats.Insts
		res.CacheStats = append(res.CacheStats, s.DCaches[coreID].Stats)
		res.ICacheStats = append(res.ICacheStats, s.ICaches[coreID].Stats)
		if v, ok := c.Provider().(*regfile.ViReC); ok {
			res.TagStats = append(res.TagStats, v.Tags().Stats)
		}
	}
	if s.DRAM != nil {
		st := s.DRAM.Stats
		res.DRAMStats = &st
	}
	if res.Cycles > 0 {
		res.IPC = float64(res.Insts) / float64(res.Cycles)
	}
	res.Metrics = s.Registry.Snapshot()
	res.Metrics.Cycle = res.Cycles
	return res, nil
}

// recoverCrash, deferred, turns a panic into a *CrashError at *cycle.
func (s *System) recoverCrash(err *error, cycle *uint64) {
	if r := recover(); r != nil {
		*err = &CrashError{
			Panic:    r,
			Cycle:    *cycle,
			Dump:     harden.Dump(s.view()),
			Stack:    debug.Stack(),
			Scenario: s.cfg.scenario(),
		}
	}
}

// skipTarget returns the earliest cycle after now that must be ticked
// normally. When it exceeds now+1, every cycle strictly between now and
// the target is a provable pure stall system-wide: each core reports a
// skippable state (Core.NextEvent), every memory device and injector has
// no event due, and no watchdog deadline or CheckEvery invariant-sweep
// boundary falls inside the window. The loop may then jump the clock
// without changing any observable behavior.
func (s *System) skipTarget(now uint64, wd *harden.Watchdog) uint64 {
	cfg := s.cfg
	t := cfg.MaxCycles
	if t <= now+1 {
		return now + 1
	}
	for _, c := range s.Cores {
		if ev, ok := c.NextEvent(now); ok {
			if ev < t {
				t = ev
			}
			if t <= now+1 {
				return now + 1
			}
		}
	}
	if d, ok := wd.Deadline(); ok && d < t {
		t = d
	}
	// Invariant sweeps fire at cycle%k == k-1; the first such cycle at or
	// after now+1 must be ticked so its check happens exactly where an
	// unskipped run would take it.
	if k := cfg.Harden.CheckEvery; k > 0 {
		if b := (now+1)/k*k + k - 1; b < t {
			t = b
		}
	}
	if t <= now+1 {
		return now + 1
	}
	for _, dc := range s.DCaches {
		if ev, ok := dc.NextEvent(now); ok && ev < t {
			t = ev
		}
	}
	for _, ic := range s.ICaches {
		if ev, ok := ic.NextEvent(now); ok && ev < t {
			t = ev
		}
	}
	if ev, ok := s.Xbar.NextEvent(now); ok && ev < t {
		t = ev
	}
	if s.DRAM != nil {
		if ev, ok := s.DRAM.NextEvent(now); ok && ev < t {
			t = ev
		}
	} else if ev, ok := s.fixed.NextEvent(now); ok && ev < t {
		t = ev
	}
	if t <= now+1 {
		return now + 1
	}
	// Injectors preview their RNG stream only up to the tightest bound
	// found so far, so go last.
	for _, inj := range s.Injectors {
		if ev, ok := inj.NextFire(t - 1); ok && ev < t {
			t = ev
			if t <= now+1 {
				return now + 1
			}
		}
	}
	return t
}

// Release hands to the pools the next New takes from: the memory's pages
// and page table, every core, register provider (with its BSIs, tag store
// and rollback queue), dcache, icache and fault injector, the crossbar,
// the DRAM controller, the registry with its histograms, and the system
// with its Belady scratch. Each rebuild starts with empty queues, MSHRs and event
// heaps, so a request in flight now never completes into another system.
// Call it once, when nothing reads the system; the Result of Run shares
// no storage with it. A released system cannot run again.
func (s *System) Release() {
	s.Memory.Release()
	for _, p := range s.providers {
		p.Release()
	}
	for _, c := range s.Cores {
		c.Release()
	}
	for _, c := range s.DCaches {
		c.Release()
	}
	for _, c := range s.ICaches {
		c.Release()
	}
	for _, inj := range s.Injectors {
		inj.Release()
	}
	s.Xbar.Release()
	if s.DRAM != nil {
		s.DRAM.Release()
	}
	s.Registry.Release()
	systemPool.Put(s)
}

// Simulate is the one-call convenience: build, run and release.
func Simulate(cfg Config) (*Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	defer s.Release()
	return s.Run()
}
