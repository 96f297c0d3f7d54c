package difftest

import (
	"github.com/virec/virec/internal/asm/check"
)

// The shrinker is a greedy delta-debugger over the generator's IR tree.
// Operating on the tree rather than the instruction list means every
// candidate is structurally legal for free: removing a node can never
// strand a branch target, split a compare from its conditional select,
// or separate a mask from the memory access it sandboxes. Candidates
// that break dataflow (removing a prologue definition something still
// reads) are rejected by the static analyzer before any simulation runs.

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
	mRemove   mutMode = iota // drop the node (and its subtree)
	mUnwrap                  // replace a loop/if with its body
	mTrip1                   // force a loop's trip count to 1
	mTripHalf                // halve a loop's trip count
)

func subtreeSize(n *node) int {
	s := 1
	for _, b := range n.body {
		s += subtreeSize(b)
	}
	return s
}

func countTree(ns []*node) int {
	s := 0
	for _, n := range ns {
		s += subtreeSize(n)
	}
	return s
}

// applyAt clones the tree and applies one mutation to the node at the
// given pre-order index. Returns the new tree and whether the mutation
// actually applied (e.g. mTrip1 on a leaf does not).
func applyAt(ns []*node, target int, mode mutMode) ([]*node, bool) {
	idx := 0
	applied := false
	var walk func(ns []*node) []*node
	walk = func(ns []*node) []*node {
		var out []*node
		for _, n := range ns {
			me := idx
			idx++
			if me == target {
				switch mode {
				case mRemove:
					idx += subtreeSize(n) - 1
					applied = true
					continue
				case mUnwrap:
					if n.kind != leafNode {
						applied = true
						out = append(out, walk(n.body)...)
						continue
					}
				case mTrip1:
					if n.kind == loopNode && n.trip > 1 {
						applied = true
						c := *n
						c.trip = 1
						c.body = walk(n.body)
						out = append(out, &c)
						continue
					}
				case mTripHalf:
					if n.kind == loopNode && n.trip > 1 {
						applied = true
						c := *n
						c.trip = n.trip / 2
						c.body = walk(n.body)
						out = append(out, &c)
						continue
					}
				}
			}
			c := *n
			c.insts = n.insts
			c.cmp = n.cmp
			c.body = walk(n.body)
			out = append(out, &c)
		}
		return out
	}
	return walk(ns), applied
}

// Shrink minimizes a kernel that diverges under the given scenario. It
// first reduces the scenario (fewest threads that still fail, then drops
// fault injection and capacity pressure), then greedily removes IR nodes,
// unwraps control flow and shrinks trip counts to a fixpoint. Any
// divergence counts as reproduction — the minimal program may fail with a
// different symptom than the original, which is exactly what a
// delta-debugger wants. Returns nil if the kernel does not actually
// diverge (not a repro), or if the kernel has no IR (reassembled from an
// artifact).
func Shrink(k *Kernel, sc Scenario, opts CheckOpts, maxAttempts int) *ShrinkResult {
	if k.ir == nil {
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
		for i := 0; i < countTree(best.ir) && attempts < maxAttempts; i++ {
			for _, mode := range modes {
				ir, applied := applyAt(best.ir, i, mode)
				if !applied {
					continue
				}
				cand := &Kernel{Seed: best.Seed, Cfg: best.Cfg, ir: ir, MaxDyn: best.MaxDyn}
				cand.rebuild()
				if !check.Analyze(cand.Prog, EntryRegs()).Clean() {
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
