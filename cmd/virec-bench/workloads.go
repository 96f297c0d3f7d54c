package main

import (
	"cmp"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"github.com/virec/virec/internal/difftest"
	"github.com/virec/virec/internal/experiments"
	"github.com/virec/virec/internal/interp"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/sweep"
	"github.com/virec/virec/internal/telemetry"
	"github.com/virec/virec/internal/vrmu"
	"github.com/virec/virec/internal/workloads"
)

// workloadNames lists the workloads in run order.
var workloadNames = []string{"regen", "stall", "difftest", "farm"}

// defaultPasses is each workload's pass count when no -seconds is given.
var defaultPasses = map[string]int{"regen": 1, "stall": 4, "difftest": 2, "farm": 2}

// sizes are the per-workload input sizes.
type sizes struct {
	stallIters      int // per-thread Iters of every stall sim (≈2.5 s per pass)
	difftestKernels int // generated kernels per difftest pass (≈8 s per pass)
	farmJobs        int // distinct sim jobs per farm pass
	farmIters       int // per-thread Iters of every farm job
}

var (
	fullSizes  = sizes{stallIters: 32768, difftestKernels: 16, farmJobs: 200, farmIters: 64}
	quickSizes = sizes{stallIters: 1024, difftestKernels: 2, farmJobs: 10, farmIters: 16}
)

func (o options) sizes() sizes {
	if o.quick {
		return quickSizes
	}
	return fullSizes
}

// goldenItersLimit is, for each kernel, the largest per-thread Iters at
// which its golden model still verifies (0: no limit found). Above it the
// kernels' index streams outgrow their data layout and verification
// fails, so every sim the benchmark configures must stay within it.
var goldenItersLimit = map[string]int{
	"bfs": 8192, "gather": 8192, "scatter": 8192, "gs": 8192, "meabo": 8192,
	"triad": 8192, "vecadd": 8192, "histogram": 8192,
	"spmv":  4096,
	"chase": 0, "lookup": 0, "stride": 0, "reduction": 0,
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// modelCounts sums modelled-hardware counters over telemetry snapshots,
// keyed by structure kind and counter ("core/ctx_switches").
type modelCounts map[string]float64

func (m modelCounts) add(snap *telemetry.Snapshot) {
	if snap == nil {
		return
	}
	for name, v := range snap.Counters {
		unit, field, ok := strings.Cut(name, "/")
		if !ok {
			continue
		}
		m[strings.TrimRight(unit, "0123456789")+"/"+field] += float64(v)
	}
}

// into writes the model.* counts.
func (m modelCounts) into(c map[string]float64) {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	rfAcc := m["rf/vrmu/hits"] + m["rf/vrmu/misses"]
	dcAcc := m["dcache/hits"] + m["dcache/misses"]
	rowAcc := m["dram/row_hits"] + m["dram/row_misses"] + m["dram/row_conflicts"]
	c["model.context_switches"] = m["core/ctx_switches"]
	c["model.mem_wait_cycles"] = m["core/mem_wait_cycles"]
	c["model.rf_hit_rate"] = ratio(m["rf/vrmu/hits"], rfAcc)
	c["model.rf_evictions"] = m["rf/vrmu/evictions"]
	c["model.dcache_accesses"] = dcAcc
	c["model.dcache_miss_rate"] = ratio(m["dcache/misses"], dcAcc)
	c["model.dram_reads"] = m["dram/reads"]
	c["model.dram_row_hit_rate"] = ratio(m["dram/row_hits"], rowAcc)
	c["model.xbar_forwarded"] = m["xbar/forwarded"]
}

// regen regenerates the paper evaluation: every experiment, full scale,
// checked section by section against the committed output.
type regen struct {
	names    []string
	expected map[string]string
	first    map[string]string
}

func (w *regen) setup(r *runner) error {
	w.names = experiments.Names()
	w.first = map[string]string{}
	if r.opt.quick {
		return nil // quick-scale output has no committed reference
	}
	data, err := os.ReadFile(r.opt.expected)
	if err != nil {
		return err
	}
	w.expected = splitSections(string(data))
	return nil
}

// splitSections cuts experiment output into its "== name: title ==" sections,
// each as experiments' own text renders it followed by a blank line.
func splitSections(text string) map[string]string {
	out := map[string]string{}
	name := ""
	var b strings.Builder
	flush := func() {
		if name != "" {
			out[name] = b.String()
		}
		b.Reset()
	}
	for _, line := range strings.SplitAfter(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			if n, _, ok := strings.Cut(rest, ":"); ok {
				flush()
				name = n
			}
		}
		b.WriteString(line)
	}
	flush()
	return out
}

func (w *regen) pass(r *runner, i int) (passOut, error) {
	po := newPassOut()
	model := modelCounts{}
	var cycles, insts float64
	opt := experiments.Options{Parallel: workers, Quick: r.opt.quick, OnResult: func(res *sim.Result) {
		cycles += float64(res.Cycles)
		insts += float64(res.Insts)
		model.add(res.Metrics)
	}}
	outs := make([]string, len(w.names))
	errs := make([]error, len(w.names))
	win := r.timed(func(pass int64) {
		for j, name := range w.names {
			_, end := r.tr.begin("exp."+name, pass)
			start := time.Now()
			rep, err := experiments.Run(name, opt)
			end()
			po.Lat["op"] = append(po.Lat["op"], ms(time.Since(start)))
			if err != nil {
				errs[j] = err
				continue
			}
			outs[j] = rep.String() + "\n"
		}
	})
	for j, name := range w.names {
		switch want, ok := w.expected[name]; {
		case errs[j] != nil:
			r.op(fmt.Errorf("regen %s: %w", name, errs[j]))
		case ok:
			r.op(sameText("regen "+name, "the expected output", want, outs[j]))
		case i > 0:
			r.op(sameText("regen "+name, "pass 0", w.first[name], outs[j]))
		default:
			w.first[name] = outs[j]
			r.opUnverified()
		}
	}
	po.Values["sim_mcycles_per_s"] = cycles / 1e6 / win.wall
	po.Values["sim_minsts_per_s"] = insts / 1e6 / win.wall
	po.Counters["sim.cycles"] = cycles
	po.Counters["sim.insts"] = insts
	model.into(po.Counters)
	return po, nil
}

func (w *regen) close() error { return nil }

// sameText reports where got first differs from want.
func sameText(what, ref, want, got string) error {
	if want == got {
		return nil
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for k := 0; k < len(wl) && k < len(gl); k++ {
		if wl[k] != gl[k] {
			return fmt.Errorf("%s: line %d differs from %s: got %q, want %q", what, k+1, ref, gl[k], wl[k])
		}
	}
	return fmt.Errorf("%s: %d lines, %s has %d", what, len(gl), ref, len(wl))
}

// stallCase is one stall-dominated system: few threads, so most cycles
// wait on memory and skip-ahead carries the run.
type stallCase struct {
	kernel   string
	kind     sim.CoreKind
	threads  int
	fixedLat int // constant memory latency instead of the DRAM model
}

var stallCases = func() []stallCase {
	var out []stallCase
	for _, k := range []string{"chase", "lookup"} {
		out = append(out,
			stallCase{kernel: k, kind: sim.ViReC, threads: 1},
			stallCase{kernel: k, kind: sim.ViReC, threads: 2},
			stallCase{kernel: k, kind: sim.Banked, threads: 1, fixedLat: 300})
	}
	return out
}()

func (c stallCase) config(seed uint64, iters int) sim.Config {
	spec, _ := workloads.ByName(c.kernel)
	cfg := sim.Config{
		Kind: c.kind, Cores: 1, ThreadsPerCore: c.threads,
		Workload: spec, Iters: iters, Seed: seed,
		FixedMemLatency: c.fixedLat,
	}
	if c.kind == sim.ViReC {
		cfg.ContextPct = 100
		cfg.Policy = vrmu.LRC
	}
	return cfg
}

func (c stallCase) String() string {
	s := fmt.Sprintf("%s/%s/t%d", c.kernel, c.kind, c.threads)
	if c.fixedLat > 0 {
		s += fmt.Sprintf("/lat%d", c.fixedLat)
	}
	return s
}

// stallWarmupIters sizes the stall workload's warm-up sim.
const stallWarmupIters = 64

// simOutcome is what every pass of a deterministic sim must repeat.
type simOutcome struct {
	cycles, insts, skipped uint64
}

type stall struct {
	cfgs  []sim.Config
	first []simOutcome
}

func (w *stall) setup(r *runner) error {
	for _, c := range stallCases {
		w.cfgs = append(w.cfgs, c.config(r.opt.seed, r.opt.sizes().stallIters))
	}
	// One short untimed warm-up sim, so the first timed op does not pay
	// for first-touch page faults. It is short so that set-up time stays
	// a measure of set-up, not of simulation speed.
	_, err := sim.Simulate(stallCases[0].config(r.opt.seed, stallWarmupIters))
	return err
}

func (w *stall) pass(r *runner, i int) (passOut, error) {
	po := newPassOut()
	model := modelCounts{}
	outcomes := make([]simOutcome, len(w.cfgs))
	errs := make([]error, len(w.cfgs))
	win := r.timed(func(pass int64) {
		for j, cfg := range w.cfgs {
			opSpan, endOp := r.tr.begin("op", pass)
			start := time.Now()
			_, end := r.tr.begin("sim_new", opSpan)
			sys, err := sim.New(cfg)
			end()
			if err == nil {
				_, end = r.tr.begin("sim_run", opSpan)
				var res *sim.Result
				res, err = sys.Run()
				end()
				if err == nil {
					outcomes[j] = simOutcome{res.Cycles, res.Insts, sys.SkipAheadCycles()}
					model.add(res.Metrics)
				}
			}
			endOp()
			po.Lat["op"] = append(po.Lat["op"], ms(time.Since(start)))
			errs[j] = err
		}
	})
	if i == 0 {
		w.first = outcomes
	}
	var cyc, insts, skipped float64
	for j, o := range outcomes {
		err := errs[j]
		if err == nil && o != w.first[j] {
			err = fmt.Errorf("pass %d gave cycles/insts/skipped %d/%d/%d, pass 0 gave %d/%d/%d",
				i, o.cycles, o.insts, o.skipped, w.first[j].cycles, w.first[j].insts, w.first[j].skipped)
		}
		if err != nil {
			err = fmt.Errorf("stall %s: %w", stallCases[j], err)
		}
		r.op(err)
		cyc += float64(o.cycles)
		insts += float64(o.insts)
		skipped += float64(o.skipped)
	}
	po.Values["sim_mcycles_per_s"] = cyc / 1e6 / win.wall
	po.Values["sim_minsts_per_s"] = insts / 1e6 / win.wall
	po.Counters["sim.cycles"] = cyc
	po.Counters["sim.insts"] = insts
	po.Counters["sim.ticks"] = cyc - skipped
	if cyc > 0 {
		po.Counters["sim.skip_frac"] = skipped / cyc
	}
	model.into(po.Counters)
	return po, nil
}

func (w *stall) close() error { return nil }

// difftestLoad co-simulates a fixed population of generated kernels (the
// generator seeds 0..N-1) under the data seeds S..S+N-1. Generator seeds
// differ in cost by two orders of magnitude, so a window of them would
// make each run's work depend on -seed; a fixed population keeps the work
// of a pass steady while -seed still changes every input value.
type difftestLoad struct {
	scenarios []difftest.Scenario
	gens      []uint64
	first     []uint64
}

// kernelOutcome is one kernel's verdict.
type kernelOutcome struct {
	ms      float64
	commits uint64
	err     error
}

// setup orders the population by decreasing work, the commits an
// interpreter replay implies, so that the workers claim the longest
// kernels first and finish together: a pass's wall time then does not
// hinge on where in the list the longest kernel falls.
func (w *difftestLoad) setup(r *runner) error {
	w.scenarios = difftest.Matrix()
	type sized struct{ gen, commits uint64 }
	var pop []sized
	for g := uint64(0); g < uint64(r.opt.sizes().difftestKernels); g++ {
		want, err := w.goldenCommits(nil, 0, w.kernel(g, r.opt.seed+g))
		if err != nil {
			return fmt.Errorf("kernel %d: %w", g, err)
		}
		pop = append(pop, sized{g, want})
	}
	slices.SortStableFunc(pop, func(a, b sized) int { return cmp.Compare(b.commits, a.commits) })
	for _, k := range pop {
		w.gens = append(w.gens, k.gen)
	}
	return nil
}

// kernel is generated kernel g under dataSeed.
func (w *difftestLoad) kernel(g, dataSeed uint64) *difftest.Kernel {
	gk := difftest.Generate(g, difftest.GenConfigForSeed(g))
	return difftest.KernelFromProgram(dataSeed, gk.Cfg, gk.Prog)
}

func (w *difftestLoad) pass(r *runner, i int) (passOut, error) {
	po := newPassOut()
	var outs []kernelOutcome
	var err error
	win := r.timed(func(pass int64) {
		outs, err = sweep.Map(sweep.New(workers), w.gens, func(g uint64, _ int) (kernelOutcome, error) {
			return w.one(r, pass, g, r.opt.seed+g), nil
		})
	})
	if err != nil {
		return po, err
	}
	if i == 0 {
		w.first = make([]uint64, len(outs))
		for j, o := range outs {
			w.first[j] = o.commits
		}
	}
	var commits float64
	for j, o := range outs {
		if o.err == nil && o.commits != w.first[j] {
			o.err = fmt.Errorf("pass %d compared %d commits, pass 0 compared %d", i, o.commits, w.first[j])
		}
		if o.err != nil {
			o.err = fmt.Errorf("difftest kernel %d data seed %d: %w", w.gens[j], r.opt.seed+w.gens[j], o.err)
		}
		r.op(o.err)
		po.Lat["op"] = append(po.Lat["op"], o.ms)
		commits += float64(o.commits)
	}
	po.Values["commits_per_s"] = commits / win.wall
	po.Counters["difftest.commits"] = commits
	return po, nil
}

// one generates kernel g under dataSeed, replays it on the interpreter to
// learn how many commits the full matrix must compare, and checks it.
func (w *difftestLoad) one(r *runner, pass int64, g, dataSeed uint64) kernelOutcome {
	start := time.Now()
	opSpan, endOp := r.tr.begin("seed", pass)
	defer endOp()
	_, end := r.tr.begin("generate", opSpan)
	k := w.kernel(g, dataSeed)
	end()
	want, err := w.goldenCommits(r.tr, opSpan, k)
	if err != nil {
		return kernelOutcome{ms: ms(time.Since(start)), err: err}
	}
	_, end = r.tr.begin("check", opSpan)
	rep := difftest.Check(k, difftest.CheckOpts{Scenarios: w.scenarios})
	end()
	o := kernelOutcome{ms: ms(time.Since(start)), commits: rep.Commits}
	switch {
	case !rep.Clean():
		o.err = rep.Divergence
	case rep.Commits != want:
		o.err = fmt.Errorf("compared %d commits, the interpreter replay implies %d", rep.Commits, want)
	}
	return o
}

// goldenCommits replays k on the threaded-code interpreter for every
// hardware thread the matrix uses, against the address layout and offload
// payload the simulator builds, and returns the commits a clean lock-step
// check over the matrix compares: each scenario commits every instruction
// of each of its threads.
func (w *difftestLoad) goldenCommits(tr *tracer, parent int64, k *difftest.Kernel) (uint64, error) {
	threads := 0
	for _, sc := range w.scenarios {
		threads = max(threads, sc.Threads)
	}
	seed := k.Seed
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15 // the simulator's stand-in for seed 0
	}
	cfg := sim.Config{Cores: 1, ThreadsPerCore: threads, Workload: k.Spec, Iters: 1, Seed: seed}
	m := mem.NewMemory()
	ctxs := make([]interp.Context, threads)
	for th := range ctxs {
		p := workloads.Params{Iters: 1, Seed: seed, ThreadID: th}
		k.Spec.Setup(m, cfg.ThreadSlabBase(0, th), p, func(reg isa.Reg, v uint64) { ctxs[th].Set(reg, v) })
	}
	_, end := tr.begin("precode", parent)
	pre := interp.Precode(k.Prog)
	end()
	_, end = tr.begin("interp_run", parent)
	defer end()
	insts := make([]uint64, threads)
	budget := uint64(k.MaxDyn)*2 + 4096
	for th := range ctxs {
		res := pre.Run(&ctxs[th], m, budget, nil)
		if !res.Halted {
			return 0, fmt.Errorf("interpreter replay of thread %d did not halt within %d instructions", th, budget)
		}
		insts[th] = res.Insts
	}
	var want uint64
	for _, sc := range w.scenarios {
		for th := 0; th < sc.Threads; th++ {
			want += insts[th]
		}
	}
	return want, nil
}

func (w *difftestLoad) close() error { return nil }
