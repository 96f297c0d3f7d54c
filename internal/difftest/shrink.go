package difftest

import (
	"slices"

	"github.com/virec/virec/internal/isa"
)

// The shrinker is a greedy delta-debugger over the generator's construct
// table. Editing whole constructs rather than single instructions means
// every candidate is structurally legal for free: removing a construct
// can never strand a branch target, split a compare from its conditional
// select, or separate a mask from the memory access it sandboxes.
// Candidates that break dataflow (removing a prologue definition
// something still reads) are rejected by the static analyzer before any
// simulation runs.

// ShrinkResult is a minimized failing kernel.
type ShrinkResult struct {
	Kernel     *Kernel
	Scenario   Scenario // minimized scenario (fewest threads, no faults kept)
	Divergence *Divergence
	Attempts   int // differential checks spent
	Insts      int // static instructions in the minimized program (incl. HALT)
}

type mutMode uint8

const (
	mRemove   mutMode = iota // delete the construct, body included
	mUnwrap                  // delete a loop's or an if's own instructions, keeping its body
	mTrip1                   // force a loop's trip count to 1
	mTripHalf                // halve a loop's trip count
)

// span is the instruction range [lo, hi).
type span struct{ lo, hi int32 }

// before returns how many of the span's instructions lie before p.
func (s span) before(p int32) int32 { return max(0, min(p, s.hi)-s.lo) }

// mutate returns k's program and construct table with mode applied to
// the construct at pre-order index i, and whether the mode applies there:
// only loops and ifs unwrap, and only a loop of more than one trip has
// its trip count cut. k's own program and table are left as they are.
func (k *Kernel) mutate(i int, mode mutMode) ([]isa.Inst, []construct, bool) {
	c := k.cons[i]
	insts := k.Prog.Insts
	switch mode {
	case mRemove:
		// The construct's descendants are the entries after it that
		// start inside it.
		last := i + 1
		for last < len(k.cons) && k.cons[last].start < c.end {
			last++
		}
		prog, cons := cut(insts, k.cons, i, last, span{c.start, c.end}, span{c.end, c.end})
		return prog, cons, true
	case mUnwrap:
		var head, tail int32
		switch {
		case c.kind == loopCons: // movz; ... subi, cbnz
			head, tail = 1, 2
		case c.kind == ifCons && insts[c.start].IsBranch(): // cbz/cbnz
			head = 1
		case c.kind == ifCons: // compare, branch
			head = 2
		default:
			return nil, nil, false
		}
		prog, cons := cut(insts, k.cons, i, i+1, span{c.start, c.start + head}, span{c.end - tail, c.end})
		return prog, cons, true
	default: // mTrip1, mTripHalf rewrite the loop's movz
		if c.kind != loopCons || insts[c.start].Imm <= 1 {
			return nil, nil, false
		}
		prog := slices.Clone(insts)
		if mode == mTrip1 {
			prog[c.start].Imm = 1
		} else {
			prog[c.start].Imm /= 2
		}
		return prog, k.cons, true
	}
}

// cut returns a copy of insts without the instructions of a and b (a
// lies before b; either may be empty) and a copy of cons without entries
// [from, to). Every branch target and every kept construct bound moves
// down by the number of deleted instructions before it.
func cut(insts []isa.Inst, cons []construct, from, to int, a, b span) ([]isa.Inst, []construct) {
	shift := func(p int32) int32 { return p - a.before(p) - b.before(p) }
	prog := make([]isa.Inst, 0, len(insts)-int(a.hi-a.lo)-int(b.hi-b.lo))
	prog = append(prog, insts[:a.lo]...)
	prog = append(prog, insts[a.hi:b.lo]...)
	prog = append(prog, insts[b.hi:]...)
	for j := range prog {
		if prog[j].IsBranch() {
			prog[j].Target = shift(prog[j].Target)
		}
	}
	out := make([]construct, 0, len(cons)-(to-from))
	out = append(out, cons[:from]...)
	out = append(out, cons[to:]...)
	for j := range out {
		out[j].start, out[j].end = shift(out[j].start), shift(out[j].end)
	}
	return prog, out
}

// Shrink minimizes a kernel that diverges under the given scenario. It
// first reduces the scenario (fewest threads that still fail, then drops
// fault injection and capacity pressure), then greedily removes constructs,
// unwraps control flow and shrinks trip counts to a fixpoint. Any
// divergence counts as reproduction — the minimal program may fail with a
// different symptom than the original, which is exactly what a
// delta-debugger wants. Returns nil if the kernel does not actually
// diverge (not a repro), or if the kernel has no construct table
// (reassembled from an artifact).
func Shrink(k *Kernel, sc Scenario, opts CheckOpts, maxAttempts int) *ShrinkResult {
	if k.cons == nil {
		return nil
	}
	if maxAttempts <= 0 {
		maxAttempts = 2000
	}
	attempts := 0
	run := func(kk *Kernel, scc Scenario) *Divergence {
		attempts++
		o := opts
		o.Scenarios = []Scenario{scc}
		return Check(kk, o).Divergence
	}

	d := run(k, sc)
	if d == nil {
		return nil
	}
	best, bestD, bestSc := k, d, sc

	// Scenario reduction: fewest threads first (cheapest repro), then
	// strip the timing perturbations.
	for _, t := range []int{1, 2, 4} {
		if t >= bestSc.Threads {
			break
		}
		cand := bestSc
		cand.Threads = t
		if dd := run(best, cand); dd != nil {
			bestD, bestSc = dd, cand
			break
		}
	}
	if bestSc.Faults != "" {
		cand := bestSc
		cand.Faults = ""
		if dd := run(best, cand); dd != nil {
			bestD, bestSc = dd, cand
		}
	}
	if bestSc.CtxPct != 0 {
		cand := bestSc
		cand.CtxPct = 0
		if dd := run(best, cand); dd != nil {
			bestD, bestSc = dd, cand
		}
	}

	// Program reduction to a fixpoint.
	modes := [...]mutMode{mRemove, mUnwrap, mTrip1, mTripHalf}
	for changed := true; changed && attempts < maxAttempts; {
		changed = false
		for i := 0; i < len(best.cons) && attempts < maxAttempts; i++ {
			for _, mode := range modes {
				insts, cons, applied := best.mutate(i, mode)
				if !applied {
					continue
				}
				cand := &Kernel{Seed: best.Seed, Cfg: best.Cfg, cons: cons, MaxDyn: best.MaxDyn}
				if !cand.rebuild(insts).Clean() {
					continue // mutation broke dataflow; structurally dead end
				}
				if dd := run(cand, bestSc); dd != nil {
					best, bestD = cand, dd
					changed = true
					break // indices shifted; rescan from the current position
				}
			}
		}
	}
	return &ShrinkResult{
		Kernel:     best,
		Scenario:   bestSc,
		Divergence: bestD,
		Attempts:   attempts,
		Insts:      len(best.Prog.Insts),
	}
}
