package difftest

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/virec/virec/internal/interp"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/vrmu"
	"github.com/virec/virec/internal/workloads"
)

// interpTrace is what the compact reference is checked against: Setup for
// the kernel's first threads on a fresh memory, then each thread run on
// the interpreter with its full trace kept.
func interpTrace(k *Kernel, cfg sim.Config, threads int) [][]interp.TraceEntry {
	m := mem.NewMemory()
	defer m.Release()
	ctxs := make([]interp.Context, threads)
	for th := range ctxs {
		ctx := &ctxs[th]
		p := workloads.Params{Iters: 1, Seed: effSeed(k.Seed), ThreadID: th}
		k.Spec.Setup(m, cfg.ThreadSlabBase(0, th), p, func(r isa.Reg, v uint64) { ctx.Set(r, v) })
	}
	pre := interp.Precode(k.Spec.Prog)
	out := make([][]interp.TraceEntry, threads)
	for th := range ctxs {
		pre.Run(&ctxs[th], m, uint64(k.MaxDyn)*2+4096, func(e interp.TraceEntry) {
			out[th] = append(out[th], e)
		})
	}
	return out
}

// TestReferenceMatchesInterpTrace: each thread's compact reference holds
// exactly the interpreter's trace, field by field and at exactly its
// length. The 50 seeds' references are built through the pool, longest
// first, and each is released before the next is built, so every later
// reference lives in storage that a longer trace used: an entry, a final
// context or a thread left over from an earlier kernel shows here.
func TestReferenceMatchesInterpTrace(t *testing.T) {
	const threads = 8
	sc := Scenario{Kind: sim.ViReC, Policy: vrmu.LRC, Threads: threads}
	type golden struct {
		k       *Kernel
		cfg     sim.Config
		want    [][]interp.TraceEntry
		commits int
	}
	var seeds []golden
	for seed := uint64(0); seed < 50; seed++ {
		k := Generate(seed, GenConfigForSeed(seed))
		cfg := scenarioConfig(k, sc, CheckOpts{})
		g := golden{k: k, cfg: cfg, want: interpTrace(k, cfg, threads)}
		for _, w := range g.want {
			g.commits += len(w)
		}
		seeds = append(seeds, g)
	}
	slices.SortStableFunc(seeds, func(a, b golden) int { return b.commits - a.commits })

	var last *reference
	recycled := 0
	for _, g := range seeds {
		seed := g.k.Seed
		ref := buildReference(g.k, g.cfg, threads)
		if ref == last {
			recycled++
		}
		if ref.err != nil || len(ref.threads) != threads {
			t.Fatalf("seed %d: %d reference threads, err %v", seed, len(ref.threads), ref.err)
		}
		for th, rt := range ref.threads {
			if len(rt.entries) != len(g.want[th]) {
				t.Fatalf("seed %d t%d: %d entries, interpreter executed %d",
					seed, th, len(rt.entries), len(g.want[th]))
			}
			for i, e := range rt.entries {
				w := g.want[th][i]
				if e.pc != w.PC || e.rd != w.Rd || e.wrote != w.Wrote ||
					e.addr != w.Addr || e.val != w.Val || e.data != w.Data {
					t.Fatalf("seed %d t%d entry %d: reference %+v, interpreter %+v", seed, th, i, e, w)
				}
			}
		}
		ref.release()
		last = ref
	}
	if recycled == 0 {
		t.Fatal("no reference was built from a released one")
	}
}

// TestReferenceFieldsAreCompared corrupts one field of one reference entry
// at a time and checks that the lock-step compare reports it at that
// entry, as the divergence kind that field belongs to.
func TestReferenceFieldsAreCompared(t *testing.T) {
	sc := Scenario{Kind: sim.Banked, Threads: 1}
	var k *Kernel
	var ref *reference
	var entries []refEntry
	// The first seed whose thread 0 commits a store serves every case.
	for seed := uint64(0); seed < 20 && k == nil; seed++ {
		cand := Generate(seed, GenConfigForSeed(seed))
		r := buildReference(cand, scenarioConfig(cand, sc, CheckOpts{}), 1)
		for _, e := range r.threads[0].entries {
			if cand.Prog.At(e.pc).IsStore() {
				k, ref, entries = cand, r, r.threads[0].entries
				break
			}
		}
		if k == nil {
			r.release()
		}
	}
	if k == nil {
		t.Fatal("no seed in 0..19 commits a store on thread 0")
	}
	defer ref.release()
	if _, d := runScenario(k, sc, CheckOpts{}, ref); d != nil {
		t.Fatalf("seed %d: the uncorrupted reference diverges: %v", k.Seed, d)
	}
	// first returns the index of the first entry whose instruction
	// satisfies ok.
	first := func(t *testing.T, ok func(e refEntry, in *isa.Inst) bool) int {
		for i, e := range entries {
			if ok(e, k.Prog.At(e.pc)) {
				return i
			}
		}
		t.Fatalf("seed %d: no entry for this case", k.Seed)
		return 0
	}
	wrote := func(e refEntry, _ *isa.Inst) bool { return e.wrote }
	for _, tc := range []struct {
		field, kind string
		pick        func(e refEntry, in *isa.Inst) bool
		corrupt     func(e *refEntry)
	}{
		{"pc", "pc", func(refEntry, *isa.Inst) bool { return true }, func(e *refEntry) { e.pc++ }},
		{"wrote", "writeback", wrote, func(e *refEntry) { e.wrote = false }},
		{"rd", "writeback", wrote, func(e *refEntry) { e.rd ^= 1 }},
		{"val", "writeback", wrote, func(e *refEntry) { e.val ^= 1 }},
		{"addr", "mem-addr", func(_ refEntry, in *isa.Inst) bool { return in.IsMem() }, func(e *refEntry) { e.addr += 8 }},
		{"data", "store-data", func(_ refEntry, in *isa.Inst) bool { return in.IsStore() }, func(e *refEntry) { e.data ^= 1 }},
	} {
		t.Run(tc.field, func(t *testing.T) {
			i := first(t, tc.pick)
			saved := entries[i]
			tc.corrupt(&entries[i])
			_, d := runScenario(k, sc, CheckOpts{}, ref)
			entries[i] = saved
			if d == nil || d.Kind != tc.kind || d.Thread != 0 || d.Index != i {
				t.Fatalf("corrupting %s at entry %d: got %v, want %s there", tc.field, i, d, tc.kind)
			}
			if tc.field == "pc" {
				// The message names the instruction at the reference's pc.
				pc := saved.pc + 1
				want := fmt.Sprintf("reference executed pc %d (%s)", pc, k.Prog.At(pc))
				if !strings.Contains(d.Detail, want) {
					t.Fatalf("pc divergence %q does not contain %q", d.Detail, want)
				}
			}
		})
	}
}
