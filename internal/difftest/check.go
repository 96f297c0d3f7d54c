package difftest

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"github.com/virec/virec/internal/cpu"
	"github.com/virec/virec/internal/harden"
	"github.com/virec/virec/internal/interp"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/vrmu"
	"github.com/virec/virec/internal/workloads"
)

// Scenario is one point of the co-simulation matrix: a register-context
// architecture, a replacement policy (ViReC only), a thread count, an
// optional register-file capacity squeeze and an optional fault-injection
// schedule. Every scenario must be architecturally indistinguishable from
// the functional interpreter — faults and capacity pressure change
// timing, never results.
type Scenario struct {
	Kind    sim.CoreKind
	Policy  vrmu.Policy // ViReC kinds only
	Threads int
	CtxPct  int    // ViReC register capacity as % of active context; 0 = 100
	Faults  string // harden schedule name ("" = no fault injection)
	NoSkip  bool   // disable timed-model clock skip-ahead for this run
}

// String renders the scenario in the stable form ParseScenario accepts,
// e.g. "virec/lrc/t8/ctx50/faults=storm".
func (s Scenario) String() string {
	var b strings.Builder
	b.WriteString(s.Kind.String())
	if s.Kind == sim.ViReC {
		b.WriteString("/" + s.Policy.String())
	}
	fmt.Fprintf(&b, "/t%d", s.Threads)
	if s.CtxPct > 0 {
		fmt.Fprintf(&b, "/ctx%d", s.CtxPct)
	}
	if s.Faults != "" {
		b.WriteString("/faults=" + s.Faults)
	}
	if s.NoSkip {
		b.WriteString("/noskip")
	}
	return b.String()
}

// ParseScenario is the inverse of Scenario.String.
func ParseScenario(text string) (Scenario, error) {
	parts := strings.Split(text, "/")
	if len(parts) < 2 {
		return Scenario{}, fmt.Errorf("difftest: scenario %q: want kind[/policy]/tN[/ctxP][/faults=NAME]", text)
	}
	var sc Scenario
	var err error
	if sc.Kind, err = sim.ParseCoreKind(parts[0]); err != nil {
		return Scenario{}, err
	}
	rest := parts[1:]
	if sc.Kind == sim.ViReC {
		if len(rest) < 2 {
			return Scenario{}, fmt.Errorf("difftest: scenario %q: virec needs a policy", text)
		}
		if sc.Policy, err = vrmu.ParsePolicy(rest[0]); err != nil {
			return Scenario{}, err
		}
		rest = rest[1:]
	}
	if !strings.HasPrefix(rest[0], "t") {
		return Scenario{}, fmt.Errorf("difftest: scenario %q: want tN after kind/policy", text)
	}
	if sc.Threads, err = strconv.Atoi(rest[0][1:]); err != nil || sc.Threads < 1 {
		return Scenario{}, fmt.Errorf("difftest: scenario %q: bad thread count %q", text, rest[0])
	}
	for _, p := range rest[1:] {
		switch {
		case strings.HasPrefix(p, "ctx"):
			if sc.CtxPct, err = strconv.Atoi(p[3:]); err != nil || sc.CtxPct < 1 || sc.CtxPct > 100 {
				return Scenario{}, fmt.Errorf("difftest: scenario %q: bad ctx pct %q", text, p)
			}
		case strings.HasPrefix(p, "faults="):
			name := p[len("faults="):]
			if _, ok := harden.PlanByName(name); !ok {
				return Scenario{}, fmt.Errorf("difftest: scenario %q: unknown fault schedule %q", text, name)
			}
			sc.Faults = name
		case p == "noskip":
			sc.NoSkip = true
		default:
			return Scenario{}, fmt.Errorf("difftest: scenario %q: unknown component %q", text, p)
		}
	}
	return sc, nil
}

// Matrix returns the standard co-simulation matrix: both conventional
// providers and ViReC under every replacement policy across 1..8
// threads, plus capacity-squeezed and fault-injected corners, both
// prefetch providers and the Belady bound.
func Matrix() []Scenario {
	threads := []int{1, 2, 4, 8}
	var out []Scenario
	for _, kind := range []sim.CoreKind{sim.Banked, sim.Software} {
		for _, t := range threads {
			out = append(out, Scenario{Kind: kind, Threads: t})
		}
	}
	for _, pol := range vrmu.AllPolicies() {
		for _, t := range threads {
			out = append(out, Scenario{Kind: sim.ViReC, Policy: pol, Threads: t})
		}
	}
	// LRC+H: hints must be a pure performance channel, so the hint-aware
	// policy faces the full thread grid plus its own capacity-squeezed and
	// fault-injected corners (dead-victim picks and spill elision run
	// hottest under pressure and across rollbacks).
	for _, t := range threads {
		out = append(out, Scenario{Kind: sim.ViReC, Policy: vrmu.LRCH, Threads: t})
	}
	out = append(out,
		Scenario{Kind: sim.ViReC, Policy: vrmu.LRCH, Threads: 8, CtxPct: 40},
		Scenario{Kind: sim.ViReC, Policy: vrmu.LRCH, Threads: 4, Faults: "storm"})
	// Capacity pressure: the register file holds well under the full
	// contexts, so spill/fill and rollback paths run hot.
	for _, pct := range []int{40, 60} {
		out = append(out,
			Scenario{Kind: sim.ViReC, Policy: vrmu.LRC, Threads: 8, CtxPct: pct},
			Scenario{Kind: sim.ViReC, Policy: vrmu.PLRU, Threads: 8, CtxPct: pct})
	}
	// Fault injection: timing perturbations must leave architecture
	// untouched on every provider.
	for _, np := range harden.Schedules() {
		out = append(out, Scenario{Kind: sim.ViReC, Policy: vrmu.LRC, Threads: 4, Faults: np.Name})
	}
	out = append(out,
		Scenario{Kind: sim.Banked, Threads: 8, Faults: "storm"},
		Scenario{Kind: sim.Software, Threads: 8, Faults: "all"})
	// Skip-ahead off axis: the timed model must be indistinguishable from
	// the reference whether or not the clock is skipped, so a slice of the
	// matrix reruns with the tick-every-cycle loop.
	out = append(out,
		Scenario{Kind: sim.ViReC, Policy: vrmu.LRC, Threads: 8, NoSkip: true},
		Scenario{Kind: sim.ViReC, Policy: vrmu.LRC, Threads: 8, CtxPct: 40, NoSkip: true},
		Scenario{Kind: sim.ViReC, Policy: vrmu.LRC, Threads: 4, Faults: "all", NoSkip: true},
		Scenario{Kind: sim.Banked, Threads: 4, NoSkip: true},
		Scenario{Kind: sim.Software, Threads: 4, NoSkip: true})
	// Both prefetch providers rotate contexts through two banks.
	for _, kind := range []sim.CoreKind{sim.PrefetchFull, sim.PrefetchExact} {
		out = append(out,
			Scenario{Kind: kind, Threads: 4},
			Scenario{Kind: kind, Threads: 4, NoSkip: true})
	}
	// Belady evicts by each thread's recorded future (the oracle pre-run),
	// so its victims differ from every other policy's. This is the
	// configuration the hints experiment runs it in, whose generated
	// kernels check no values of their own.
	out = append(out, Scenario{Kind: sim.ViReC, Policy: vrmu.Belady, Threads: 4, CtxPct: 50})
	return out
}

// Divergence pinpoints the first disagreement between the pipeline and
// the interpreter reference.
type Divergence struct {
	Scenario string `json:"scenario"`
	Kind     string `json:"kind"` // pc | writeback | mem-addr | store-data | extra-commit | missing-commits | final-reg | final-mem | run-error
	Thread   int    `json:"thread"`
	Index    int    `json:"index"` // commit index within the thread's stream
	PC       int    `json:"pc"`
	Detail   string `json:"detail"`
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("difftest: %s: %s at t%d commit %d pc=%d: %s",
		d.Scenario, d.Kind, d.Thread, d.Index, d.PC, d.Detail)
}

// Report is the verdict for one kernel across a scenario set.
type Report struct {
	Seed       uint64
	Scenarios  int    // scenarios completed (including the diverging one)
	Commits    uint64 // total commits compared
	Divergence *Divergence
}

// Clean reports whether every scenario matched the reference exactly.
func (r *Report) Clean() bool { return r.Divergence == nil }

// CheckOpts tunes a differential run.
type CheckOpts struct {
	// Scenarios overrides the standard Matrix().
	Scenarios []Scenario
	// WrapProvider, when set, wraps each core's register provider —
	// the hook fault-seeding tests use to plant provider bugs.
	WrapProvider func(coreID int, p cpu.Provider) cpu.Provider
	// MaxCycles bounds each scenario's run (default 20M).
	MaxCycles uint64
	// ForceNoSkip disables timed-model skip-ahead for every scenario,
	// regardless of its NoSkip field (the -skipahead=off CI lane).
	ForceNoSkip bool
}

// Check co-simulates the kernel against the interpreter across the
// scenario set and reports at the first divergence.
func Check(k *Kernel, opts CheckOpts) *Report {
	scenarios := opts.Scenarios
	if scenarios == nil {
		scenarios = Matrix()
	}
	rep := &Report{Seed: k.Seed}
	if len(scenarios) == 0 {
		return rep
	}
	// One golden reference serves every scenario: it runs the most threads
	// any scenario does, and a scenario reads its first sc.Threads.
	widest := scenarios[0]
	for _, sc := range scenarios[1:] {
		if sc.Threads > widest.Threads {
			widest = sc
		}
	}
	ref := buildReference(k, scenarioConfig(k, widest, opts), widest.Threads)
	defer ref.release()
	for _, sc := range scenarios {
		commits, d := runScenario(k, sc, opts, ref)
		rep.Commits += commits
		rep.Scenarios++
		if d != nil {
			rep.Divergence = d
			return rep
		}
	}
	return rep
}

// refThread is one thread's golden execution.
type refThread struct {
	entries []refEntry // exactly as long as the thread's execution
	final   interp.Context
}

// refEntry is one reference commit: the six fields runScenario compares,
// in 40 bytes. The instruction is named through the program
// (Prog.At(pc)), and only when a divergence is reported. pc keeps its
// full width: a ret can halt a thread at any address.
type refEntry struct {
	pc    int
	rd    isa.Reg
	wrote bool
	addr  mem.Addr
	val   uint64
	data  uint64
}

// reference is a kernel's golden execution for its first threads. It is
// read-only once built, until release hands it to the next build.
type reference struct {
	threads []refThread // the threads that halted, in order
	mem     *mem.Memory
	err     error           // why thread len(threads) has no reference, if it has none
	pre     interp.Precoded // the kernel's threaded code, lowered anew per build
}

// referencePool holds released references. A build keeps the thread
// array, each thread's trace storage and the threaded code; nothing else
// carries over.
var referencePool sync.Pool

// release hands the reference, its memory released, to the next
// buildReference. Nothing may read it afterwards: a Divergence copies
// what it reports.
func (r *reference) release() {
	r.mem.Release()
	r.mem = nil
	referencePool.Put(r)
}

func effSeed(s uint64) uint64 {
	if s == 0 {
		return 0x9e3779b97f4a7c15
	}
	return s
}

// scenarioConfig builds the sim configuration for one scenario.
func scenarioConfig(k *Kernel, sc Scenario, opts CheckOpts) sim.Config {
	cfg := sim.Config{
		Kind:           sc.Kind,
		Cores:          1,
		ThreadsPerCore: sc.Threads,
		Workload:       k.Spec,
		Iters:          1,
		Seed:           effSeed(k.Seed),
		ContextPct:     sc.CtxPct,
		Policy:         sc.Policy,
		MaxCycles:      opts.MaxCycles,
		WrapProvider:   opts.WrapProvider,
		NoSkipAhead:    sc.NoSkip || opts.ForceNoSkip,
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 20_000_000
	}
	cfg.Harden.WatchdogWindow = 1_000_000
	if sc.Faults != "" {
		plan, _ := harden.PlanByName(sc.Faults)
		cfg.Harden.FaultSeed = effSeed(k.Seed) ^ 0xfa17d1ff
		cfg.Harden.Plan = plan
	}
	return cfg
}

// buildReference executes the kernel functionally, once per hardware
// thread, against the exact address-space layout and offload payload the
// simulator will use. Threads touch disjoint slabs by construction, so
// they share one reference memory, and thread th's reference does not
// depend on how many threads follow it. It stops at the first thread that
// does not halt.
//
// Each thread runs twice: untraced from a copy of its entry context on a
// throwaway overlay of the reference memory, which counts its commits,
// then traced into the thread's trace storage, grown first to that exact
// length if a released reference left it shorter.
func buildReference(k *Kernel, cfg sim.Config, threads int) *reference {
	ref, _ := referencePool.Get().(*reference)
	if ref == nil {
		ref = new(reference)
	}
	ref.threads = slices.Grow(ref.threads[:0], threads)[:threads]
	ref.mem, ref.err = mem.NewMemory(), nil
	seed := effSeed(k.Seed)
	// Setup for every thread first (as offload does), then run each. One
	// set callback serves every thread: Setup calls it only while it runs,
	// for the thread rt names.
	var rt *refThread
	set := func(r isa.Reg, v uint64) { rt.final.Set(r, v) }
	for th := range ref.threads {
		rt = &ref.threads[th]
		rt.final = interp.Context{}
		p := workloads.Params{Iters: 1, Seed: seed, ThreadID: th}
		k.Spec.Setup(ref.mem, cfg.ThreadSlabBase(0, th), p, set)
	}
	budget := uint64(k.MaxDyn)*2 + 4096
	// One pre-decode of the kernel serves every thread: the golden side
	// runs through the threaded-code interpreter, so the difftest matrix
	// also cross-checks Precode lowering against the timed model.
	pre := ref.pre.Reset(k.Spec.Prog)
	record := func(e interp.TraceEntry) {
		rt.entries = append(rt.entries, refEntry{pc: e.PC, rd: e.Rd, wrote: e.Wrote,
			addr: e.Addr, val: e.Val, data: e.Data})
	}
	for th := range ref.threads {
		rt = &ref.threads[th]
		entry := rt.final
		scratch := ref.mem.Overlay()
		res := pre.Run(&entry, scratch, budget, nil)
		scratch.Release()
		if !res.Halted {
			ref.threads = ref.threads[:th]
			ref.err = fmt.Errorf("reference thread %d did not halt within %d instructions", th, budget)
			return ref
		}
		rt.entries = slices.Grow(rt.entries[:0], int(res.Insts))
		pre.Run(&rt.final, ref.mem, budget, record)
	}
	return ref
}

// runScenario co-simulates one scenario in lock step against the first
// sc.Threads threads of ref and returns the number of commits compared
// plus the first divergence, if any.
func runScenario(k *Kernel, sc Scenario, opts CheckOpts, ref *reference) (uint64, *Divergence) {
	cfg := scenarioConfig(k, sc, opts)
	fail := func(kind string, th, idx, pc int, format string, args ...any) *Divergence {
		return &Divergence{Scenario: sc.String(), Kind: kind, Thread: th, Index: idx,
			PC: pc, Detail: fmt.Sprintf(format, args...)}
	}

	if sc.Threads > len(ref.threads) {
		return 0, fail("run-error", 0, 0, 0, "%v", ref.err)
	}
	refs, refMem := ref.threads, ref.mem

	sys, err := sim.New(cfg)
	if err != nil {
		return 0, fail("run-error", 0, 0, 0, "sim.New: %v", err)
	}
	defer sys.Release()

	var commits uint64
	var d *Divergence
	cursors := make([]int, sc.Threads)
	sys.SetOnCommit(func(coreID int, ev cpu.CommitEvent) {
		if d != nil {
			return
		}
		th := ev.Thread
		i := cursors[th]
		ref := refs[th]
		if i >= len(ref.entries) {
			d = fail("extra-commit", th, i, ev.PC,
				"pipeline committed %s after the reference halted (%d entries)",
				ev.Inst, len(ref.entries))
			return
		}
		e := &ref.entries[i]
		cursors[th]++
		commits++
		switch {
		case ev.PC != e.pc:
			d = fail("pc", th, i, ev.PC, "pipeline committed pc %d (%s), reference executed pc %d (%s)",
				ev.PC, ev.Inst, e.pc, k.Spec.Prog.At(e.pc))
		case ev.Wrote != e.wrote:
			d = fail("writeback", th, i, ev.PC, "%s: pipeline wrote-reg=%v, reference wrote-reg=%v",
				ev.Inst, ev.Wrote, e.wrote)
		case ev.Wrote && ev.Rd != e.rd:
			d = fail("writeback", th, i, ev.PC, "%s: pipeline wrote %s, reference wrote %s",
				ev.Inst, ev.Rd, e.rd)
		case ev.Wrote && ev.Val != e.val:
			d = fail("writeback", th, i, ev.PC, "%s: %s = %#x, reference %#x",
				ev.Inst, ev.Rd, ev.Val, e.val)
		case ev.Inst.IsMem() && ev.Addr != e.addr:
			d = fail("mem-addr", th, i, ev.PC, "%s: effective address %#x, reference %#x",
				ev.Inst, ev.Addr, e.addr)
		case ev.Inst.IsStore() && ev.Data != e.data:
			d = fail("store-data", th, i, ev.PC, "%s: store data %#x, reference %#x",
				ev.Inst, ev.Data, e.data)
		}
	})

	err = sys.Exec()
	if d != nil {
		// A lock-step mismatch explains any downstream run error.
		return commits, d
	}
	if err != nil {
		return commits, fail("run-error", 0, 0, 0, "%v", err)
	}

	for th := 0; th < sc.Threads; th++ {
		if cursors[th] != len(refs[th].entries) {
			return commits, fail("missing-commits", th, cursors[th], 0,
				"pipeline committed %d instructions, reference executed %d",
				cursors[th], len(refs[th].entries))
		}
	}
	// Final architectural state: every register (the commit-order shadow
	// is fed by the pipeline's actual writeback values) and every byte of
	// every thread's data slab.
	core := sys.Cores[0]
	for th := 0; th < sc.Threads; th++ {
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if got, want := core.Thread(th).Shadow(r), refs[th].final.Get(r); got != want {
				return commits, fail("final-reg", th, cursors[th], 0,
					"final %s = %#x, reference %#x", r, got, want)
			}
		}
		base := cfg.ThreadSlabBase(0, th)
		for off := uint64(0); off < k.Spec.SlabBytes; off += 8 {
			a := base + mem.Addr(off)
			if got, want := sys.Memory.Read64(a), refMem.Read64(a); got != want {
				return commits, fail("final-mem", th, cursors[th], 0,
					"final mem[%#x] = %#x, reference %#x", a, got, want)
			}
		}
	}
	return commits, nil
}
