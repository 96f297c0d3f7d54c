package cpu_test

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/virec/virec/internal/cpu"
)

// TestProbeMatchesTickEveryCycle holds skip-ahead's probe to the stages it
// probes, one cycle at a time. Two identical gather rigs run side by side:
// A ticks its core every cycle; B skips its core (SkipTo) over every cycle
// NextEvent proves a pure stall and ticks it otherwise. The memory devices
// under both tick every cycle. After every cycle the cores must agree on
// every statistic and on their scheduling and pipeline state, so a probe
// that disagrees with its stage fails at the cycle it does, in whatever
// state the core has reached.
func TestProbeMatchesTickEveryCycle(t *testing.T) {
	for name, kind := range allKinds() {
		skipped := 0
		for _, threads := range []int{1, 2, 4} {
			for _, realDRAM := range []bool{false, true} {
				mem := "cache+delay"
				if realDRAM {
					mem = "cache+dram"
				}
				t.Run(fmt.Sprintf("%s/t%d/%s", name, threads, mem), func(t *testing.T) {
					skipped += runLockstep(t, kind, threads, realDRAM)
				})
			}
		}
		if skipped == 0 {
			t.Errorf("%s: the probe never proved a cycle skippable; the test is vacuous", name)
		}
	}
}

// runLockstep runs the two rigs to completion and returns the number of
// cycles B skipped.
func runLockstep(t *testing.T, kind providerKind, threads int, realDRAM bool) (skipped int) {
	var rigs [2]*rig
	for i := range rigs {
		r := newRig(kind, rigOpt{threads: threads, realDRAM: realDRAM})
		setupGather(r, threads, 32)
		for th := 0; th < threads; th++ {
			r.load(gatherProg(), th)
		}
		r.core.Start()
		rigs[i] = r
	}
	a, b := rigs[0].core, rigs[1].core
	const limit = 1_000_000
	for n := uint64(0); !a.Done(); n++ {
		if n == limit {
			t.Fatalf("did not finish in %d cycles", limit)
		}
		a.Tick(n)
		if n > 0 && skippable(b, n) {
			b.SkipTo(n)
			skipped++
		} else {
			b.Tick(n)
		}
		for _, r := range rigs {
			r.dcache.Tick(n)
			r.lower.Tick(n)
		}
		if !reflect.DeepEqual(a.Stats, b.Stats) {
			t.Fatalf("cycle %d: stats diverge\ntick: %+v\nskip: %+v", n, a.Stats, b.Stats)
		}
		if da, db := a.DebugDump(), b.DebugDump(); da != db {
			t.Fatalf("cycle %d: state diverges\ntick:\n%sskip:\n%s", n, da, db)
		}
	}
	if !b.Done() {
		t.Fatal("the skipping core did not finish with the ticking one")
	}
	return skipped
}

// skippable reports whether core's NextEvent, asked after cycle n-1,
// proves cycle n a pure stall.
func skippable(core *cpu.Core, n uint64) bool {
	ev, ok := core.NextEvent(n - 1)
	return !ok || ev > n
}
