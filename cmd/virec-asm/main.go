// Command virec-asm assembles and disassembles programs for the
// simulator's AArch64-flavoured ISA, can run them functionally, and runs
// the ISA-level static analyzer (internal/asm/check) over them.
//
// Usage:
//
//	virec-asm file.s              # assemble, print the listing
//	virec-asm -run file.s         # assemble and interpret until HALT
//	virec-asm -workload gather    # disassemble a built-in kernel
//	virec-asm -check file.s       # assemble and statically analyze
//	virec-asm -check-workloads    # analyze every built-in kernel
//	virec-asm -hints file.s       # print synthesized register-management hints
//	virec-asm -hints-workloads    # annotate every built-in kernel with hints
//	virec-asm -verify-hints       # cross-check hints against interpreter traces
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/virec/virec/internal/asm"
	"github.com/virec/virec/internal/asm/check"
	"github.com/virec/virec/internal/interp"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/workloads"
)

func main() {
	var (
		run      = flag.Bool("run", false, "interpret the program until HALT")
		workload = flag.String("workload", "", "disassemble a built-in kernel instead of reading a file")
		maxInsts = flag.Uint64("max-insts", 100_000_000, "interpreter instruction budget")
		doCheck  = flag.Bool("check", false, "statically analyze the program (branch targets, reachability, use-before-def, register pressure)")
		checkAll = flag.Bool("check-workloads", false, "statically analyze every built-in kernel and exit")
		doHints  = flag.Bool("hints", false, "synthesize and print register-management hints for the program")
		hintsAll = flag.Bool("hints-workloads", false, "annotate every built-in kernel with synthesized hints and exit")
		verify   = flag.Bool("verify-hints", false, "run every built-in kernel in the interpreter and cross-check dead hints against the observed trace; exit nonzero on any unsound hint")
	)
	flag.Parse()

	if *checkAll {
		os.Exit(checkWorkloads())
	}
	if *hintsAll {
		hintsWorkloads(os.Stdout)
		return
	}
	if *verify {
		os.Exit(verifyHints(os.Stdout, *maxInsts))
	}

	var prog *asm.Program
	var entry []isa.Reg
	switch {
	case *workload != "":
		w, ok := workloads.ByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "virec-asm: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		prog = w.Prog
		entry = w.EntryRegs(workloads.DefaultParams(0))
	case flag.NArg() == 1:
		src, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "virec-asm:", err)
			os.Exit(1)
		}
		prog, err = asm.Assemble(string(src))
		if err != nil {
			fmt.Fprintln(os.Stderr, "virec-asm:", err)
			os.Exit(1)
		}
		prog.Name = flag.Arg(0)
	default:
		fmt.Fprintln(os.Stderr, "usage: virec-asm [-run] [-check] file.s | virec-asm [-check] -workload name | virec-asm -check-workloads")
		os.Exit(2)
	}

	fmt.Printf("// %s: %d instructions\n", prog.Name, prog.Len())
	fmt.Print(asm.Disassemble(prog))

	if *doCheck {
		rep := check.Analyze(prog, entry)
		printReport(rep)
		if !rep.Clean() {
			os.Exit(1)
		}
	}

	if *doHints {
		h := check.Synthesize(prog)
		fmt.Printf("\nhints:\n%s", h.Annotate(prog))
	}

	if *run {
		var ctx interp.Context
		m := mem.NewMemory()
		res := interp.Precode(prog).Run(&ctx, m, *maxInsts, nil)
		fmt.Printf("\nexecuted %d instructions (halted=%v)\n", res.Insts, res.Halted)
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if v := ctx.Get(r); v != 0 {
				fmt.Printf("  %-4s = %#x (%d)\n", r, v, v)
			}
		}
	}
}

func printReport(rep *check.Report) {
	fmt.Printf("\ncheck: %d finding(s)", len(rep.Findings))
	if rep.MaxLivePC >= 0 {
		fmt.Printf(", max register pressure %d at pc %d (%v)", rep.MaxLive, rep.MaxLivePC, rep.LiveRegs)
	}
	fmt.Println()
	for _, f := range rep.Findings {
		fmt.Printf("  %s\n", f)
	}
}

// checkWorkloads analyzes every built-in kernel with its Setup-defined
// entry registers; returns the process exit code.
func checkWorkloads() int {
	bad := 0
	for _, w := range workloads.All() {
		rep := check.Analyze(w.Prog, w.EntryRegs(workloads.DefaultParams(0)))
		status := "ok"
		if !rep.Clean() {
			status = fmt.Sprintf("%d finding(s)", len(rep.Findings))
			bad++
		}
		fmt.Printf("%-16s %3d insts  pressure %2d @ pc %-3d  %s\n",
			w.Name, w.Prog.Len(), rep.MaxLive, rep.MaxLivePC, status)
		for _, f := range rep.Findings {
			fmt.Printf("  %s\n", f)
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "virec-asm: %d kernel(s) with findings\n", bad)
		return 1
	}
	return 0
}

// hintsWorkloads prints the synthesized hint annotation for every built-in
// kernel. The output is pinned by a golden-file test so hint drift is a
// reviewed diff, not a silent behavior change.
func hintsWorkloads(w io.Writer) {
	for _, wl := range workloads.All() {
		h := check.Synthesize(wl.Prog)
		fmt.Fprintf(w, "== %s ==\n", wl.Name)
		fmt.Fprint(w, h.Annotate(wl.Prog))
		fmt.Fprintln(w)
	}
}

// verifyHints is the CI soundness gate for the hint synthesizer: it runs
// every built-in kernel to completion in the functional interpreter,
// records the committed pc sequence, and checks each dead-register hint
// against the observed trace (a register flagged dead must never be read
// again before being overwritten). A violation means the static analysis
// produced an unsound fact; the VRMU would still be functionally correct
// (hints are timing-only) but the pass itself is broken, so we fail hard.
func verifyHints(w io.Writer, maxInsts uint64) int {
	bad := 0
	for _, wl := range workloads.All() {
		var ctx interp.Context
		m := mem.NewMemory()
		wl.Setup(m, 0, workloads.DefaultParams(0), func(r isa.Reg, v uint64) {
			ctx.Set(r, v)
		})
		var pcs []int
		res := interp.Precode(wl.Prog).Run(&ctx, m, maxInsts, func(e interp.TraceEntry) {
			pcs = append(pcs, e.PC)
		})
		if !res.Halted {
			fmt.Fprintf(w, "%-16s FAIL: did not halt within %d instructions\n", wl.Name, maxInsts)
			bad++
			continue
		}
		h := check.Synthesize(wl.Prog)
		viol := check.DeadHintViolations(wl.Prog, pcs)
		status := "sound"
		if len(viol) > 0 {
			status = fmt.Sprintf("%d UNSOUND hint(s)", len(viol))
			bad++
		}
		fmt.Fprintf(w, "%-16s %8d insts traced  %2d/%2d hinted (%d dead, %d remat)  %s\n",
			wl.Name, res.Insts, h.Hinted, wl.Prog.Len(), h.Dead, h.Remat, status)
		for _, f := range viol {
			fmt.Fprintf(w, "  %s\n", f)
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "virec-asm: unsound hints in %d kernel(s)\n", bad)
		return 1
	}
	fmt.Fprintf(w, "virec-asm: all dead hints consistent with interpreter traces\n")
	return 0
}
