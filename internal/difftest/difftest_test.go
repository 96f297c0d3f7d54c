package difftest

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/virec/virec/internal/asm"
	"github.com/virec/virec/internal/asm/check"
	"github.com/virec/virec/internal/cpu"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/vrmu"
)

// smallMatrix is the cheap scenario subset unit tests sweep; the full
// Matrix() belongs to cmd/virec-difftest.
func smallMatrix() []Scenario {
	return []Scenario{
		{Kind: sim.Banked, Threads: 2},
		{Kind: sim.Software, Threads: 2},
		{Kind: sim.ViReC, Policy: vrmu.LRC, Threads: 1},
		{Kind: sim.ViReC, Policy: vrmu.LRC, Threads: 4},
		{Kind: sim.ViReC, Policy: vrmu.PLRU, Threads: 2, CtxPct: 50},
		{Kind: sim.ViReC, Policy: vrmu.MRTLRU, Threads: 2, Faults: "jitter"},
		{Kind: sim.ViReC, Policy: vrmu.Belady, Threads: 4, CtxPct: 50},
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		cfg := GenConfigForSeed(seed)
		a := Generate(seed, cfg)
		b := Generate(seed, cfg)
		if a.Text() != b.Text() {
			t.Fatalf("seed %d: two generations differ:\n%s\n----\n%s", seed, a.Text(), b.Text())
		}
		if cfg != GenConfigForSeed(seed) {
			t.Fatalf("seed %d: GenConfigForSeed is not deterministic", seed)
		}
	}
}

func TestGeneratedKernelsAnalyzerClean(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		k := Generate(seed, GenConfigForSeed(seed))
		if rep := check.Analyze(k.Prog, EntryRegs()); !rep.Clean() {
			t.Fatalf("seed %d: analyzer findings: %v", seed, rep.Findings)
		}
		n := len(k.Prog.Insts)
		if n < 5 {
			t.Fatalf("seed %d: improbably small program (%d insts)", seed, n)
		}
		if k.Prog.Insts[n-1].Op != isa.HALT {
			t.Fatalf("seed %d: program does not end in HALT", seed)
		}
	}
}

func TestKernelsMatchAcrossSmallMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("co-simulation sweep")
	}
	for seed := uint64(0); seed < 8; seed++ {
		k := Generate(seed, GenConfigForSeed(seed))
		rep := Check(k, CheckOpts{Scenarios: smallMatrix()})
		if !rep.Clean() {
			t.Fatalf("seed %d: %v\nprogram:\n%s", seed, rep.Divergence, k.Text())
		}
		if rep.Commits == 0 {
			t.Fatalf("seed %d: checker compared zero commits", seed)
		}
	}
}

// TestExactPrefetchKeepsValues is the shrunk repro of seed 1 under exact
// prefetch. The kernel has no loop, so its oracle set is empty and every
// register arrives by on-demand fill. asrv reads x3 while x3's fill may
// be in flight and also writes it: x3 must not count as resident until the
// fill lands, or the next Acquire reads the stale value the bank's
// previous occupant left. Banks are recycled only with three or more
// threads, and a recycled bank must store back every resident register,
// not just the oracle set.
func TestExactPrefetchKeepsValues(t *testing.T) {
	prog := asm.MustAssemble("repro", `
		movz x3, #23745
		movz x5, #21854
		and x5, x5, #4095
		ldrb x7, [x2, x5]
		asrv x3, x5, x3
		halt
	`)
	k := KernelFromProgram(1, GenConfigForSeed(1), prog)
	for _, threads := range []int{3, 4, 8} {
		sc := Scenario{Kind: sim.PrefetchExact, Threads: threads}
		if rep := Check(k, CheckOpts{Scenarios: []Scenario{sc}}); !rep.Clean() {
			t.Errorf("%s: %v", sc, rep.Divergence)
		}
	}
}

func TestSameSeedSameVerdict(t *testing.T) {
	k1 := Generate(7, GenConfigForSeed(7))
	k2 := Generate(7, GenConfigForSeed(7))
	sc := []Scenario{{Kind: sim.ViReC, Policy: vrmu.LRC, Threads: 2}}
	r1 := Check(k1, CheckOpts{Scenarios: sc})
	r2 := Check(k2, CheckOpts{Scenarios: sc})
	if r1.Clean() != r2.Clean() || r1.Commits != r2.Commits {
		t.Fatalf("same seed, different verdicts: %+v vs %+v", r1, r2)
	}
}

// corruptReads is the seeded provider bug: it flips bit 0 of every value
// the pipeline reads from the provider for one target register. Decode
// forwards from EX/MEM/WB first, so only reads of older (out-of-window)
// definitions are corrupted — exactly the class of bug only differential
// testing catches, since the corrupt value computes plausibly downstream.
type corruptReads struct {
	cpu.Provider
	target isa.Reg
}

func (c *corruptReads) ReadValue(thread int, r isa.Reg) uint64 {
	v := c.Provider.ReadValue(thread, r)
	if r == c.target {
		v ^= 1
	}
	return v
}

func TestSeededBugIsCaughtAndShrunk(t *testing.T) {
	opts := CheckOpts{
		Scenarios: []Scenario{{Kind: sim.ViReC, Policy: vrmu.LRC, Threads: 2}},
		WrapProvider: func(coreID int, p cpu.Provider) cpu.Provider {
			return &corruptReads{Provider: p, target: isa.X3}
		},
	}
	var k *Kernel
	var rep *Report
	for seed := uint64(0); seed < 20; seed++ {
		cand := Generate(seed, GenConfigForSeed(seed))
		if r := Check(cand, opts); !r.Clean() {
			k, rep = cand, r
			break
		}
	}
	if k == nil {
		t.Fatal("no seed in 0..19 tripped the planted ReadValue corruption")
	}
	t.Logf("seed %d diverged: %v", k.Seed, rep.Divergence)

	sc, err := ParseScenario(rep.Divergence.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	sr := Shrink(k, sc, opts, 600)
	if sr == nil {
		t.Fatal("shrinker could not reproduce the divergence")
	}
	t.Logf("shrunk %d -> %d insts in %d attempts: %v\n%s",
		len(k.Prog.Insts), sr.Insts, sr.Attempts, sr.Divergence, sr.Kernel.Text())
	if sr.Insts > 12 {
		t.Fatalf("shrunk program still has %d instructions (want <= 12):\n%s",
			sr.Insts, sr.Kernel.Text())
	}
	// The minimized program must itself be analyzer-clean and still fail.
	if repAgain := Check(sr.Kernel, CheckOpts{Scenarios: []Scenario{sr.Scenario},
		WrapProvider: opts.WrapProvider}); repAgain.Clean() {
		t.Fatal("minimized kernel no longer diverges")
	}
	// ... and pass cleanly on an unmodified provider (the bug is in the
	// wrapper, not the program).
	if repClean := Check(sr.Kernel, CheckOpts{Scenarios: []Scenario{sr.Scenario}}); !repClean.Clean() {
		t.Fatalf("minimized kernel diverges without the planted bug: %v", repClean.Divergence)
	}
}

func TestScenarioStringRoundTrip(t *testing.T) {
	for _, sc := range Matrix() {
		got, err := ParseScenario(sc.String())
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if got != sc {
			t.Fatalf("round trip changed %+v to %+v", sc, got)
		}
	}
	for _, bad := range []string{"", "virec", "virec/t4", "banked/t0", "virec/lrc/t2/faults=nope", "banked/t2/x"} {
		if _, err := ParseScenario(bad); err == nil {
			t.Errorf("ParseScenario(%q) accepted garbage", bad)
		}
	}
}

func TestArtifactRoundTripAndReplay(t *testing.T) {
	opts := CheckOpts{
		Scenarios: []Scenario{{Kind: sim.ViReC, Policy: vrmu.LRC, Threads: 2}},
		WrapProvider: func(coreID int, p cpu.Provider) cpu.Provider {
			return &corruptReads{Provider: p, target: isa.X3}
		},
	}
	var k *Kernel
	var rep *Report
	for seed := uint64(0); seed < 20; seed++ {
		cand := Generate(seed, GenConfigForSeed(seed))
		if r := Check(cand, opts); !r.Clean() {
			k, rep = cand, r
			break
		}
	}
	if k == nil {
		t.Fatal("no seed tripped the planted bug")
	}
	sc, _ := ParseScenario(rep.Divergence.Scenario)
	sr := Shrink(k, sc, opts, 300)

	dir := t.TempDir()
	art := NewArtifact(k, sc, rep.Divergence, sr)
	path, err := art.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Program != k.Text() || loaded.Seed != k.Seed {
		t.Fatal("artifact did not round-trip the program")
	}
	orig, shrunk, err := loaded.Kernels()
	if err != nil {
		t.Fatal(err)
	}
	if orig.Text() != k.Text() {
		t.Fatalf("reassembled program differs:\n%s\n----\n%s", orig.Text(), k.Text())
	}
	if sr != nil && (shrunk == nil || shrunk.Text() != sr.Kernel.Text()) {
		t.Fatal("shrunk program did not round-trip")
	}
	// Replay with the planted bug reproduces; replay without it is clean.
	again, err := loaded.Replay(CheckOpts{WrapProvider: opts.WrapProvider})
	if err != nil {
		t.Fatal(err)
	}
	if again.Clean() {
		t.Fatal("replay with the planted bug did not reproduce")
	}
	cleanRep, err := loaded.Replay(CheckOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !cleanRep.Clean() {
		t.Fatalf("replay on a healthy provider diverged: %v", cleanRep.Divergence)
	}

	// Artifacts land where the CI upload step looks for them.
	if filepath.Dir(path) != dir {
		t.Fatalf("artifact written to %s, want under %s", path, dir)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("artifact file missing or empty: %v", err)
	}
}

// TestLockStepAllocsPerScenario holds a warm lock-step check to the
// allocations the compare itself needs. A warm scenario builds no Result,
// no new reference and no trace: it runs the Result-free Exec, the golden
// side steps beside the pipeline in the one lock-step state its Check
// holds, and that state, the systems and their components, and the memory
// pages and page tables come back from pools. With the collector off, so
// that no pool is emptied, and on one P, so that what a release puts in a
// pool is what the next build gets, one Check of generated seeds 0–3 over
// Matrix() warms the pools; a second Check of each seed must then stay
// under 1,120 bytes per scenario. Seeds 0–3 measure 192, 232, 746 and 319
// bytes, so the bound leaves about 50% over the largest; with progress
// slices and Setup and verifier callbacks built per simulation and a heap
// rng per thread they took 333–888 bytes, with a golden trace, a commit
// closure per scenario and a page table per memory 770–1,346 bytes, and
// with a Result and snapshot per scenario and a reference built anew
// 8–12 KiB. The race detector's pool drops a quarter of what it is given,
// so components are sometimes built anew under it; there 12 samples
// measured 16–30 KiB.
func TestLockStepAllocsPerScenario(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	bound := uint64(1120)
	if raceEnabled {
		bound = 40 << 10
	}
	scenarios := Matrix()
	kernels := make([]*Kernel, 4)
	for seed := range kernels {
		kernels[seed] = Generate(uint64(seed), GenConfigForSeed(uint64(seed)))
		if rep := Check(kernels[seed], CheckOpts{Scenarios: scenarios}); !rep.Clean() {
			t.Fatalf("seed %d: %v", seed, rep.Divergence)
		}
	}
	for seed, k := range kernels {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep := Check(k, CheckOpts{Scenarios: scenarios})
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / uint64(rep.Scenarios)
		t.Logf("seed %d: %d scenarios, %d bytes each", seed, rep.Scenarios, per)
		if !rep.Clean() || rep.Scenarios != len(scenarios) {
			t.Fatalf("seed %d: %d of %d scenarios, divergence %v", seed, rep.Scenarios, len(scenarios), rep.Divergence)
		}
		if per > bound {
			t.Errorf("seed %d: a warm check allocated %d bytes per scenario, want at most %d", seed, per, bound)
		}
	}
}

// TestCheckAllocationIndependentOfLength holds a cold lock-step check to
// storage that does not grow with the kernel's run: the golden side is
// stepped at each commit, so nothing is kept per commit. On one P, with
// the pools drained by two collections and the collector then off, one
// LRC scenario at 8 threads checks generated seed 13 (9,166 commits) and
// seed 5 (518 commits); seed 13 may allocate at most 64 KiB more. Both
// rebuild every pooled structure, so the difference is what the longer
// run alone costs. Seed 13 measured 128 KB against 97 KB for seed 5; with a
// 40-byte trace entry per reference commit it took 500 KB against 107 KB.
// Under the race detector, whose pool drops a quarter of what it is
// given, the difference measured 35–43 KB, and the bound doubles.
func TestCheckAllocationIndependentOfLength(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	scenarios := []Scenario{{Kind: sim.ViReC, Policy: vrmu.LRC, Threads: 8}}
	cold := func(seed uint64) (alloc, commits uint64) {
		k := Generate(seed, GenConfigForSeed(seed))
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep := Check(k, CheckOpts{Scenarios: scenarios})
		runtime.ReadMemStats(&after)
		if !rep.Clean() {
			t.Fatalf("seed %d: %v", seed, rep.Divergence)
		}
		return after.TotalAlloc - before.TotalAlloc, rep.Commits
	}
	cold(5) // process-wide, built-once state (metric names, bounds)
	long, longCommits := cold(13)
	short, shortCommits := cold(5)
	t.Logf("seed 13: %d commits, %d bytes; seed 5: %d commits, %d bytes", longCommits, long, shortCommits, short)
	bound := uint64(64 << 10)
	if raceEnabled {
		bound *= 2
	}
	if long > short+bound {
		t.Errorf("checking %d commits allocated %d bytes, %d commits %d: want at most %d more",
			longCommits, long, shortCommits, short, bound)
	}
}
