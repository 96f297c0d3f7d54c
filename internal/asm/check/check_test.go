package check_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/virec/virec/internal/asm"
	"github.com/virec/virec/internal/asm/check"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/workloads"
)

func mustAssemble(t *testing.T, src string) *asm.Program {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// findings of one kind, for asserting on a specific analysis.
func ofKind(rep *check.Report, kind string) []check.Finding {
	var out []check.Finding
	for _, f := range rep.Findings {
		if f.Kind == kind {
			out = append(out, f)
		}
	}
	return out
}

func TestCleanProgram(t *testing.T) {
	p := mustAssemble(t, `
		movz x0, #0
	loop:
		add  x0, x0, #1
		cmp  x0, #10
		b.lt loop
		halt
	`)
	rep := check.Analyze(p, nil)
	if !rep.Clean() {
		t.Fatalf("expected clean, got %v", rep.Findings)
	}
	if rep.MaxLive < 1 {
		t.Errorf("MaxLive = %d, want >= 1 (x0 is live around the loop)", rep.MaxLive)
	}
}

func TestUseBeforeDef(t *testing.T) {
	p := mustAssemble(t, `
		add x1, x2, x3
		halt
	`)
	rep := check.Analyze(p, nil)
	got := ofKind(rep, check.UseBeforeDef)
	if len(got) != 2 {
		t.Fatalf("findings = %v, want reads of x2 and x3", rep.Findings)
	}
	for _, f := range got {
		if f.PC != 0 {
			t.Errorf("finding at pc %d, want 0: %s", f.PC, f)
		}
	}

	// The same program is fine once Setup initializes the inputs.
	rep = check.Analyze(p, []isa.Reg{isa.X2, isa.X3})
	if !rep.Clean() {
		t.Fatalf("with entry-defined x2,x3 expected clean, got %v", rep.Findings)
	}
}

// TestUseBeforeDefPathSensitive: a register defined on only one branch of a
// diamond is not must-defined at the join.
func TestUseBeforeDefPathSensitive(t *testing.T) {
	p := mustAssemble(t, `
		cbz  x0, join
		movz x1, #5
	join:
		mov  x2, x1
		halt
	`)
	rep := check.Analyze(p, []isa.Reg{isa.X0})
	got := ofKind(rep, check.UseBeforeDef)
	if len(got) != 1 || got[0].PC != 2 || !strings.Contains(got[0].Msg, "x1") {
		t.Fatalf("findings = %v, want one x1 read at pc 2", rep.Findings)
	}
}

func TestBadBranchTarget(t *testing.T) {
	p := mustAssemble(t, `
		b 99
		halt
	`)
	rep := check.Analyze(p, nil)
	if got := ofKind(rep, check.BadBranchTarget); len(got) != 1 || got[0].PC != 0 {
		t.Fatalf("findings = %v, want one bad target at pc 0", rep.Findings)
	}
	// The broken edge is dropped, so the halt behind it is also dead text.
	if got := ofKind(rep, check.Unreachable); len(got) != 1 || got[0].PC != 1 {
		t.Fatalf("findings = %v, want unreachable halt at pc 1", rep.Findings)
	}
}

// TestUnreachableRange: consecutive dead instructions collapse into one
// finding, and the use-before-def pass does not also report on dead code.
func TestUnreachableRange(t *testing.T) {
	p := mustAssemble(t, `
		halt
		add x0, x9, #1
		add x0, x0, #1
	`)
	rep := check.Analyze(p, nil)
	if len(rep.Findings) != 1 {
		t.Fatalf("findings = %v, want exactly one unreachable range", rep.Findings)
	}
	f := rep.Findings[0]
	if f.Kind != check.Unreachable || f.PC != 1 || !strings.Contains(f.Msg, "1-2") {
		t.Fatalf("finding = %v, want unreachable range 1-2", f)
	}
}

func TestFlagsBeforeCompare(t *testing.T) {
	p := mustAssemble(t, `
		b.eq done
		movz x0, #1
	done:
		halt
	`)
	rep := check.Analyze(p, nil)
	if got := ofKind(rep, check.FlagsBeforeCmp); len(got) != 1 || got[0].PC != 0 {
		t.Fatalf("findings = %v, want flags read at pc 0", rep.Findings)
	}

	p = mustAssemble(t, `
		cmp  x0, #0
		b.eq done
		movz x1, #1
	done:
		halt
	`)
	rep = check.Analyze(p, []isa.Reg{isa.X0})
	if !rep.Clean() {
		t.Fatalf("compare-then-branch expected clean, got %v", rep.Findings)
	}
}

// TestMovkReadsDest: MOVK is a read-modify-write of its destination, so a
// MOVK into a never-written register is a use-before-def.
func TestMovkReadsDest(t *testing.T) {
	p := mustAssemble(t, `
		movk x1, #2, lsl #16
		halt
	`)
	rep := check.Analyze(p, nil)
	got := ofKind(rep, check.UseBeforeDef)
	if len(got) != 1 || got[0].PC != 0 {
		t.Fatalf("findings = %v, want one x1 read at pc 0", rep.Findings)
	}
	if rep = check.Analyze(p, []isa.Reg{isa.X1}); !rep.Clean() {
		t.Fatalf("with entry-defined x1 expected clean, got %v", rep.Findings)
	}
}

func TestPressure(t *testing.T) {
	p := mustAssemble(t, `
		movz x1, #1
		movz x2, #2
		add  x3, x1, x2
		halt
	`)
	rep := check.Analyze(p, nil)
	if !rep.Clean() {
		t.Fatalf("expected clean, got %v", rep.Findings)
	}
	if rep.MaxLive != 2 || rep.MaxLivePC != 2 {
		t.Fatalf("MaxLive = %d @ pc %d, want 2 @ pc 2", rep.MaxLive, rep.MaxLivePC)
	}
	if len(rep.LiveRegs) != 2 || rep.LiveRegs[0] != isa.X1 || rep.LiveRegs[1] != isa.X2 {
		t.Fatalf("LiveRegs = %v, want [X1 X2]", rep.LiveRegs)
	}
}

func TestEmptyProgram(t *testing.T) {
	rep := check.Analyze(&asm.Program{}, nil)
	if !rep.Clean() || rep.MaxLivePC != -1 {
		t.Fatalf("empty program: findings=%v MaxLivePC=%d", rep.Findings, rep.MaxLivePC)
	}
}

// TestAllWorkloadsClean is the acceptance bar: every built-in kernel,
// given its Setup-defined entry registers, analyzes with zero findings.
func TestAllWorkloadsClean(t *testing.T) {
	all := workloads.All()
	if len(all) == 0 {
		t.Fatal("no workloads registered")
	}
	for _, w := range all {
		rep := check.Analyze(w.Prog, w.EntryRegs(workloads.DefaultParams(0)))
		for _, f := range rep.Findings {
			t.Errorf("%s: %s", w.Name, f)
		}
		if rep.MaxLive < 1 {
			t.Errorf("%s: MaxLive = %d, want >= 1", w.Name, rep.MaxLive)
		}
	}
}

// loopProgram assembles a clean program of exactly n = 6+2k instructions:
// a counted loop around k blocks, each a conditional branch over an add,
// so every block adds a branch target and a fallthrough to the CFG.
func loopProgram(t *testing.T, k int) *asm.Program {
	t.Helper()
	var b strings.Builder
	b.WriteString("movz x1, #1\nmovz x2, #2\nmovz x4, #3\ntop:\n")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "cbz x1, s%d\nadd x1, x1, x2\ns%d:\n", i, i)
	}
	b.WriteString("sub x4, x4, #1\ncbnz x4, top\nhalt\n")
	p := mustAssemble(t, b.String())
	if p.Len() != 6+2*k {
		t.Fatalf("loopProgram(%d) has %d instructions, want %d", k, p.Len(), 6+2*k)
	}
	return p
}

// TestAnalysisAllocsIndependentOfLength: the CFG is one slice of two-slot
// successor lists and every dataflow pass works in the pooled scratch, so
// analyzing or synthesizing hints for a clean program costs the same
// number of allocations at 40 instructions as at 400.
func TestAnalysisAllocsIndependentOfLength(t *testing.T) {
	short, long := loopProgram(t, 17), loopProgram(t, 197)
	for _, p := range []*asm.Program{short, long} {
		if rep := check.Analyze(p, nil); !rep.Clean() {
			t.Fatalf("%d-instruction program: findings %v", p.Len(), rep.Findings)
		}
	}
	allocs := func(f func(*asm.Program)) (float64, float64) {
		return testing.AllocsPerRun(50, func() { f(short) }), testing.AllocsPerRun(50, func() { f(long) })
	}
	if a40, a400 := allocs(func(p *asm.Program) { check.Analyze(p, nil) }); !sameAllocs(a40, a400) {
		t.Errorf("Analyze: %v allocs at 40 instructions, %v at 400; want the same", a40, a400)
	}
	if a40, a400 := allocs(func(p *asm.Program) { check.Synthesize(p) }); !sameAllocs(a40, a400) {
		t.Errorf("Synthesize: %v allocs at 40 instructions, %v at 400; want the same", a40, a400)
	}
}

// scratchAllocs is what building a scratch again costs: the struct and
// its six arrays.
const scratchAllocs = 7

// sameAllocs reports whether two allocation counts are equal, up to one
// scratch rebuilt when the race detector's pool dropped it.
func sameAllocs(a, b float64) bool {
	return a == b || raceEnabled && a-b <= scratchAllocs && b-a <= scratchAllocs
}

// raceEnabled is set when the race detector is on (race_test.go). Its
// sync.Pool drops a quarter of what it is given, so a call sometimes
// builds its scratch again under it.
var raceEnabled bool

// TestApplyAndAnalyzeBuildsOneCFG: the combined pass hands one CFG and
// reachability to hint synthesis and to the analyzer, and works in the
// pooled scratch, so after a warm-up call it allocates only its reports
// (the Hints and their per-instruction flags, the Report and its live
// registers), at 40 instructions as at 400. Its reports and written hints
// equal Apply's and Analyze's.
func TestApplyAndAnalyzeBuildsOneCFG(t *testing.T) {
	const reports = 4
	for _, p := range []*asm.Program{loopProgram(t, 17), loopProgram(t, 197)} {
		check.ApplyAndAnalyze(p, nil)
		got := testing.AllocsPerRun(50, func() { check.ApplyAndAnalyze(p, nil) })
		if got != reports && !(raceEnabled && got <= reports+scratchAllocs) {
			t.Errorf("ApplyAndAnalyze on %d instructions made %v allocations after a warm-up; want its %d reports",
				p.Len(), got, reports)
		}
	}

	// A program with a bad branch and dead text, so both reports carry
	// findings; its hints start cleared.
	q := mustAssemble(t, `
		movz x1, #1
		cbz  x1, done
		add  x2, x1, x3
		b    done
		add  x4, x4, x4
	done:
		halt
	`)
	q.Insts[1].Target = 99
	wantH, wantR := check.Synthesize(q), check.Analyze(q, nil)
	h, rep := check.ApplyAndAnalyze(q, nil)
	if fmt.Sprint(h) != fmt.Sprint(wantH) || fmt.Sprint(rep) != fmt.Sprint(wantR) {
		t.Errorf("ApplyAndAnalyze = %+v, %+v; want %+v, %+v", h, rep, wantH, wantR)
	}
	if len(rep.Findings) < 3 {
		t.Errorf("findings %v, want a bad branch target, dead text and a use before def", rep.Findings)
	}
	for i := range q.Insts {
		if q.Insts[i].Hints != h.PerInst[i] {
			t.Errorf("pc %d: hints %v written, report says %v", i, q.Insts[i].Hints, h.PerInst[i])
		}
	}
}
