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
	// One golden reference serves every scenario: it holds the most threads
	// any scenario runs, and a scenario steps its first sc.Threads.
	widest := scenarios[0]
	for _, sc := range scenarios[1:] {
		if sc.Threads > widest.Threads {
			widest = sc
		}
	}
	ls := newLockstep(k, scenarioConfig(k, widest, opts), widest.Threads)
	defer ls.release()
	for _, sc := range scenarios {
		d := ls.run(sc, opts)
		rep.Commits += ls.commits
		rep.Scenarios++
		if d != nil {
			rep.Divergence = d
			return rep
		}
	}
	return rep
}

// refThread is one thread's golden reference: its context after Setup,
// and how many instructions it executes up to and including its halt.
type refThread struct {
	entry interp.Context
	insts int
}

// stepThread is one thread's golden side in a scenario: a copy of its
// entry context, stepped one instruction per commit, and the commits
// compared so far.
type stepThread struct {
	ctx     interp.Context
	commits int
}

// lockstep is a kernel's golden side. Nothing in it grows with how long
// the kernel runs: per kernel it holds the memory after every thread's
// Setup and each thread's refThread; per scenario, the stepped threads,
// the copy-on-write overlay they run on, the commit count and the
// divergence. One lockstep serves every scenario of a Check, and is
// handed to the next Check when this one returns.
type lockstep struct {
	k    *Kernel
	pre  interp.Precoded // the kernel's threaded code, lowered anew per kernel
	mem  mem.Memory      // after every thread's Setup; read-only once built
	refs []refThread     // the threads that halt, in order
	err  error           // why thread len(refs) has no reference, if it has none

	// One scenario's state, reset by run.
	sc      Scenario
	steps   []stepThread
	over    *mem.Memory // the golden side's memory: an overlay of mem
	commits uint64
	div     *Divergence
	step    interp.TraceEntry // what the last step executed

	// Bound once per lockstep, so that a scenario builds no closure.
	onCommit func(cpu.CommitEvent)
	record   func(interp.TraceEntry)
}

// lockstepPool holds released lock-step states. A new one keeps its
// thread arrays, its threaded code and its bound callbacks.
var lockstepPool sync.Pool

// newLockstep builds the kernel's golden reference against the exact
// address-space layout and offload payload the simulator will use. Setup
// runs for every thread first (as offload does); then each thread runs
// once, untraced, on a throwaway overlay of the reference memory, to count
// its instructions. Threads touch disjoint slabs by construction, so they
// share one reference memory, and thread th's reference does not depend
// on how many threads follow it. It stops at the first thread that does
// not halt.
func newLockstep(k *Kernel, cfg sim.Config, threads int) *lockstep {
	ls, _ := lockstepPool.Get().(*lockstep)
	if ls == nil {
		ls = new(lockstep)
		ls.onCommit, ls.record = ls.commit, ls.recordStep
	}
	ls.k, ls.err = k, nil
	ls.refs = slices.Grow(ls.refs[:0], threads)[:threads]
	ls.steps = slices.Grow(ls.steps[:0], threads)
	seed := effSeed(k.Seed)
	// One set callback serves every thread: Setup calls it only while it
	// runs, for the thread rt names.
	var rt *refThread
	set := func(r isa.Reg, v uint64) { rt.entry.Set(r, v) }
	for th := range ls.refs {
		rt = &ls.refs[th]
		rt.entry = interp.Context{}
		p := workloads.Params{Iters: 1, Seed: seed, ThreadID: th}
		k.Spec.Setup(&ls.mem, cfg.ThreadSlabBase(0, th), p, set)
	}
	budget := uint64(k.MaxDyn)*2 + 4096
	// The golden side runs through the threaded-code interpreter, so the
	// difftest matrix also cross-checks Precode lowering against the timed
	// model.
	ls.pre.Reset(k.Spec.Prog)
	scratch := ls.mem.Overlay()
	defer scratch.Release()
	for th := range ls.refs {
		ctx := ls.refs[th].entry
		res := ls.pre.Run(&ctx, scratch, budget, nil)
		if !res.Halted {
			ls.refs = ls.refs[:th]
			ls.err = fmt.Errorf("reference thread %d did not halt within %d instructions", th, budget)
			break
		}
		ls.refs[th].insts = int(res.Insts)
	}
	return ls
}

// release hands the lock-step state, its memory released, to the next
// newLockstep. Nothing may read it afterwards: a Divergence copies what it
// reports.
func (ls *lockstep) release() {
	ls.mem.Release()
	ls.k, ls.err, ls.div = nil, nil, nil
	lockstepPool.Put(ls)
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

// run co-simulates one scenario in lock step against the first
// sc.Threads reference threads, leaves the number of commits compared in
// ls.commits and returns the first divergence, if any.
func (ls *lockstep) run(sc Scenario, opts CheckOpts) *Divergence {
	ls.sc, ls.commits, ls.div = sc, 0, nil
	if sc.Threads > len(ls.refs) {
		return ls.diverge("run-error", 0, 0, 0, ls.err.Error())
	}
	cfg := scenarioConfig(ls.k, sc, opts)
	sys, err := sim.New(cfg)
	if err != nil {
		return ls.diverge("run-error", 0, 0, 0, "sim.New: "+err.Error())
	}
	defer sys.Release()
	ls.steps = ls.steps[:sc.Threads]
	for th := range ls.steps {
		ls.steps[th] = stepThread{ctx: ls.refs[th].entry}
	}
	ls.over = ls.mem.Overlay()
	defer ls.over.Release()
	sys.SetOnCommit(ls.onCommit)

	err = sys.Exec()
	if ls.div != nil {
		// A lock-step mismatch explains any downstream run error.
		return ls.div
	}
	if err != nil {
		return ls.diverge("run-error", 0, 0, 0, err.Error())
	}
	for th := range ls.steps {
		if got, want := ls.steps[th].commits, ls.refs[th].insts; got != want {
			return ls.diverge("missing-commits", th, got, 0, fmt.Sprintf(
				"pipeline committed %d instructions, reference executed %d", got, want))
		}
	}
	// Final architectural state: every register (the commit-order shadow
	// is fed by the pipeline's actual writeback values) and every byte of
	// every thread's data slab.
	core := sys.Cores[0]
	for th := range ls.steps {
		idx, golden := ls.steps[th].commits, &ls.steps[th].ctx
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if got, want := core.Thread(th).Shadow(r), golden.Get(r); got != want {
				return ls.diverge("final-reg", th, idx, 0, fmt.Sprintf(
					"final %s = %#x, reference %#x", r, got, want))
			}
		}
		base := cfg.ThreadSlabBase(0, th)
		for off := uint64(0); off < ls.k.Spec.SlabBytes; off += 8 {
			a := base + mem.Addr(off)
			if got, want := sys.Memory.Read64(a), ls.over.Read64(a); got != want {
				return ls.diverge("final-mem", th, idx, 0, fmt.Sprintf(
					"final mem[%#x] = %#x, reference %#x", a, got, want))
			}
		}
	}
	return nil
}

// commit is the pipeline's commit hook: it steps the committing thread's
// golden context by one instruction and compares the two.
func (ls *lockstep) commit(ev cpu.CommitEvent) {
	if ls.div != nil {
		return
	}
	th := ev.Thread
	st := &ls.steps[th]
	i := st.commits
	if i >= ls.refs[th].insts {
		ls.div = ls.diverge("extra-commit", th, i, ev.PC, fmt.Sprintf(
			"pipeline committed %s after the reference halted (%d instructions)", ev.Inst, i))
		return
	}
	ls.pre.Run(&st.ctx, ls.over, 1, ls.record)
	st.commits++
	ls.commits++
	if kind, detail := compareCommit(ev, ls.step); kind != "" {
		ls.div = ls.diverge(kind, th, i, ev.PC, detail)
	}
}

func (ls *lockstep) recordStep(e interp.TraceEntry) { ls.step = e }

// diverge reports a divergence in the running scenario. Only a diverging
// scenario formats its name.
func (ls *lockstep) diverge(kind string, th, idx, pc int, detail string) *Divergence {
	return &Divergence{Scenario: ls.sc.String(), Kind: kind, Thread: th, Index: idx,
		PC: pc, Detail: detail}
}

// compareCommit compares one pipeline commit with the golden step at the
// same point of the same thread: the pc, the writeback (flag, register
// and value), the effective address and the store data. It returns the
// divergence kind of the first field that differs, with a detail naming
// the instruction, or "" when all six agree; a match formats nothing.
func compareCommit(ev cpu.CommitEvent, e interp.TraceEntry) (kind, detail string) {
	switch {
	case ev.PC != e.PC:
		return "pc", fmt.Sprintf("pipeline committed pc %d (%s), reference executed pc %d (%s)",
			ev.PC, ev.Inst, e.PC, e.Inst)
	case ev.Wrote != e.Wrote:
		return "writeback", fmt.Sprintf("%s: pipeline wrote-reg=%v, reference wrote-reg=%v",
			ev.Inst, ev.Wrote, e.Wrote)
	case ev.Wrote && ev.Rd != e.Rd:
		return "writeback", fmt.Sprintf("%s: pipeline wrote %s, reference wrote %s",
			ev.Inst, ev.Rd, e.Rd)
	case ev.Wrote && ev.Val != e.Val:
		return "writeback", fmt.Sprintf("%s: %s = %#x, reference %#x",
			ev.Inst, ev.Rd, ev.Val, e.Val)
	case ev.Inst.IsMem() && ev.Addr != e.Addr:
		return "mem-addr", fmt.Sprintf("%s: effective address %#x, reference %#x",
			ev.Inst, ev.Addr, e.Addr)
	case ev.Inst.IsStore() && ev.Data != e.Data:
		return "store-data", fmt.Sprintf("%s: store data %#x, reference %#x",
			ev.Inst, ev.Data, e.Data)
	}
	return "", ""
}
