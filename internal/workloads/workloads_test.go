package workloads_test

import (
	"slices"
	"testing"

	"github.com/virec/virec/internal/asm"
	"github.com/virec/virec/internal/cpu"
	"github.com/virec/virec/internal/cpu/regfile"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/mem/cache"
	"github.com/virec/virec/internal/vrmu"
	"github.com/virec/virec/internal/workloads"
)

const (
	regBase  = mem.Addr(0x4000000)
	dataBase = mem.Addr(0x10000)
)

// runWorkload executes spec on `threads` hardware threads with the given
// provider and verifies every thread's final state against the golden
// model. It returns total cycles.
func runWorkload(t *testing.T, spec *workloads.Spec, threads int, virec bool, physRegs int) uint64 {
	t.Helper()
	memory := mem.NewMemory()
	lower := mem.NewDelayDevice(60)
	layout := cpu.RegLayout{Base: regBase}
	ccfg := cache.Config{
		Name: "dcache", SizeBytes: 8 * 1024, Assoc: 4,
		HitLatency: 2, MSHRs: 24, Ports: 1,
	}
	if virec {
		ccfg.RegRegionBase = regBase
		ccfg.RegRegionSize = layout.Size(threads)
	}
	dc := cache.New(ccfg, lower)
	var provider cpu.Provider
	if virec {
		provider = regfile.NewViReC(regfile.ViReCConfig{PhysRegs: physRegs, Policy: vrmu.LRC},
			threads, dc, memory, layout)
	} else {
		provider = regfile.NewBanked(threads, dc, memory, layout)
	}
	core := cpu.New(cpu.Config{Threads: threads, ValidateValues: true}, provider, dc, memory)

	verifies := make([]workloads.Verify, threads)
	for th := 0; th < threads; th++ {
		base := dataBase + mem.Addr(uint64(th)*(spec.SlabBytes+0x2c0))
		p := workloads.DefaultParams(th)
		p.Iters = 96
		thread := core.Thread(th)
		thread.Prog = spec.Prog
		verifies[th] = spec.Setup(memory, base, p, func(r isa.Reg, v uint64) {
			memory.Write64(layout.RegAddr(th, r), v)
			thread.SetShadow(r, v)
		})
	}
	core.Start()
	var cycle uint64
	for ; cycle < 50000000 && !core.Done(); cycle++ {
		core.Tick(cycle)
		dc.Tick(cycle)
		lower.Tick(cycle)
	}
	if !core.Done() {
		t.Fatalf("%s did not finish", spec.Name)
	}
	for th := 0; th < threads; th++ {
		thread := core.Thread(th)
		if err := verifies[th](thread.Shadow, memory); err != nil {
			t.Errorf("%s thread %d: %v", spec.Name, th, err)
		}
	}
	if msg := dc.CheckInvariants(); msg != "" {
		t.Errorf("%s dcache invariant: %s", spec.Name, msg)
	}
	return core.Stats.Cycles
}

func TestAllWorkloadsBanked(t *testing.T) {
	for _, spec := range workloads.All() {
		t.Run(spec.Name, func(t *testing.T) {
			runWorkload(t, spec, 4, false, 0)
		})
	}
}

func TestAllWorkloadsViReC(t *testing.T) {
	for _, spec := range workloads.All() {
		t.Run(spec.Name, func(t *testing.T) {
			runWorkload(t, spec, 4, true, 48)
		})
	}
}

func TestAllWorkloadsViReCHighContention(t *testing.T) {
	for _, spec := range workloads.All() {
		t.Run(spec.Name, func(t *testing.T) {
			// ~40% of 4 threads' active contexts, but at least 8.
			phys := 4 * len(spec.ActiveRegs()) * 40 / 100
			if phys < 8 {
				phys = 8
			}
			runWorkload(t, spec, 4, true, phys)
		})
	}
}

func TestWorkloadCatalog(t *testing.T) {
	if len(workloads.All()) < 10 {
		t.Errorf("only %d workloads; the evaluation needs a broad set", len(workloads.All()))
	}
	seen := map[string]bool{}
	suites := map[string]bool{}
	for _, s := range workloads.All() {
		if s.Name == "" || s.Prog == nil || s.Setup == nil || s.SlabBytes == 0 {
			t.Errorf("workload %q incompletely specified", s.Name)
		}
		if seen[s.Name] {
			t.Errorf("duplicate workload name %q", s.Name)
		}
		seen[s.Name] = true
		suites[s.Suite] = true
	}
	for _, want := range []string{"spatter", "meabo", "coral2", "prim"} {
		if !suites[want] {
			t.Errorf("missing suite %q", want)
		}
	}
	if _, ok := workloads.ByName("gather"); !ok {
		t.Error("ByName(gather) failed")
	}
	if _, ok := workloads.ByName("nope"); ok {
		t.Error("ByName(nope) should fail")
	}
	if len(workloads.Names()) != len(workloads.All()) {
		t.Error("Names length mismatch")
	}
}

func TestRegisterUsageGather(t *testing.T) {
	spec, _ := workloads.ByName("gather")
	inner, total := workloads.RegisterUsage(spec.Prog)
	// Loop body: x1,x2,x3,x4,x5,x6,x7.
	if len(inner) != 7 {
		t.Errorf("gather inner regs = %v, want 7 registers", inner)
	}
	if len(total) < len(inner) {
		t.Errorf("total %d < inner %d", len(total), len(inner))
	}
	for _, r := range []isa.Reg{isa.X1, isa.X2, isa.X5, isa.X6, isa.X7} {
		found := false
		for _, g := range inner {
			if g == r {
				found = true
			}
		}
		if !found {
			t.Errorf("gather inner regs missing %s: %v", r, inner)
		}
	}
}

// TestRegisterUsageNegativeBranchTarget: a backward branch whose target
// lies before the program (it executes as a halt) delimits a body that
// starts at pc 0, and the analysis must not index below it.
func TestRegisterUsageNegativeBranchTarget(t *testing.T) {
	prog := &asm.Program{Name: "negtarget", Insts: []isa.Inst{
		{Op: isa.ADD, Rd: isa.X1, Rn: isa.X2, Rm: isa.X3},
		{Op: isa.CBNZ, Rn: isa.X4, Target: -1456459728},
		{Op: isa.MOV, Rd: isa.X5, Rn: isa.X6},
		{Op: isa.HALT},
	}}
	inner, total := workloads.RegisterUsage(prog)
	if want := []isa.Reg{isa.X1, isa.X2, isa.X3, isa.X4}; !slices.Equal(inner, want) {
		t.Errorf("inner = %v, want %v", inner, want)
	}
	if want := []isa.Reg{isa.X1, isa.X2, isa.X3, isa.X4, isa.X5, isa.X6}; !slices.Equal(total, want) {
		t.Errorf("total = %v, want %v", total, want)
	}
}

// TestRegisterUsageAllocs: the analysis collects its register sets in
// fixed arrays, so a 300-instruction program touching every register
// costs as many allocations as a 10-instruction one touching eight: the
// two result slices.
func TestRegisterUsageAllocs(t *testing.T) {
	program := func(n int) *asm.Program {
		p := &asm.Program{Name: "regs", Insts: make([]isa.Inst, n)}
		for i := range n - 2 {
			x, d := isa.Reg(i/2%int(isa.XZR)), isa.V0+isa.Reg(i/2%isa.NumFPRegs)
			p.Insts[i] = isa.Inst{Op: isa.ADD, Rd: x, Rn: x, Rm: isa.X1}
			if i%2 == 1 {
				p.Insts[i] = isa.Inst{Op: isa.FADD, Rd: d, Rn: d, Rm: isa.V0}
			}
		}
		p.Insts[n-2] = isa.Inst{Op: isa.CBNZ, Rn: isa.X1, Target: int32(n / 2)}
		p.Insts[n-1] = isa.Inst{Op: isa.HALT}
		return p
	}
	short, long := program(10), program(300)
	if _, total := workloads.RegisterUsage(long); len(total) != isa.NumRegs-1 {
		t.Fatalf("the long program uses %d registers, want every one but xzr", len(total))
	}
	a10 := testing.AllocsPerRun(10, func() { workloads.RegisterUsage(short) })
	a300 := testing.AllocsPerRun(10, func() { workloads.RegisterUsage(long) })
	if a10 != a300 {
		t.Errorf("RegisterUsage makes %v allocations at 10 instructions, %v at 300", a10, a300)
	}
}

// TestFigure2Property: the paper's motivation — memory-intensive kernels
// use well under the full 32-register context in their loops.
func TestFigure2Property(t *testing.T) {
	for _, s := range workloads.All() {
		u := workloads.InnerLoopUtilization(s)
		if u <= 0 || u > 0.5 {
			t.Errorf("%s inner-loop utilization %.2f outside (0, 0.5]; the "+
				"active-context premise fails", s.Name, u)
		}
	}
}

func TestActiveRegsCoverOracleNeeds(t *testing.T) {
	// The exact-prefetch oracle uses ActiveRegs; a register read in a loop
	// but absent from ActiveRegs would force on-demand fills.
	for _, s := range workloads.All() {
		inner, _ := workloads.RegisterUsage(s.Prog)
		active := s.ActiveRegs()
		if len(active) != len(inner) {
			t.Errorf("%s ActiveRegs %v != inner %v", s.Name, active, inner)
		}
	}
}

func TestNestedLoopWorkloadUsage(t *testing.T) {
	spec, _ := workloads.ByName("spmv")
	inner, _ := workloads.RegisterUsage(spec.Prog)
	if len(inner) < 10 {
		t.Errorf("spmv loops use %d regs, expected a larger working set", len(inner))
	}
}
