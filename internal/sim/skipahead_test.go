package sim_test

import (
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"github.com/virec/virec/internal/cpu"
	"github.com/virec/virec/internal/harden"
	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/vrmu"
	"github.com/virec/virec/internal/workloads"
)

// trace captures everything a run exposes to the outside world: the
// measurement result, the marshalled end-of-run metrics snapshot, and
// marshalled snapshots sampled mid-run. Two runs are equivalent iff their
// traces are byte-identical.
type trace struct {
	res     *sim.Result
	metrics []byte
	samples [][]byte
}

// sampleEvery is the commit cadence of the mid-run snapshots. Commits
// happen only on ticked cycles, so sampling caps no skip window: the run
// keeps the skip schedule it has without an observer.
const sampleEvery = 64

// runCaptured executes cfg, snapshotting the metrics registry on every
// sampleEvery-th commit, and captures its trace. ValidateValues in the
// incoming cfg already pins the final architectural state to the
// workload golden model; the trace pins everything else.
func runCaptured(t *testing.T, cfg sim.Config) trace {
	t.Helper()
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	var tr trace
	var commits int
	var sampleErr error
	s.SetOnCommit(func(cpu.CommitEvent) {
		if commits++; commits%sampleEvery != 0 || sampleErr != nil {
			return
		}
		b, err := json.Marshal(s.Registry.Snapshot())
		if err != nil {
			sampleErr = err
			return
		}
		tr.samples = append(tr.samples, b)
	})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sampleErr != nil {
		t.Fatalf("mid-run snapshot: %v", sampleErr)
	}
	b, err := json.Marshal(res.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	tr.res, tr.metrics = res, b
	return tr
}

// requireEquivalent runs cfg with skip-ahead on and off and demands
// byte-identical observable behavior: cycle and instruction counts, the
// full metrics snapshot, and every mid-run snapshot sample.
func requireEquivalent(t *testing.T, cfg sim.Config) {
	t.Helper()
	cfg.ValidateValues = true

	on := cfg
	on.NoSkipAhead = false
	off := cfg
	off.NoSkipAhead = true

	a := runCaptured(t, on)
	b := runCaptured(t, off)

	if a.res.Cycles != b.res.Cycles {
		t.Fatalf("cycles diverge: skip=%d noskip=%d", a.res.Cycles, b.res.Cycles)
	}
	if a.res.Insts != b.res.Insts {
		t.Fatalf("insts diverge: skip=%d noskip=%d", a.res.Insts, b.res.Insts)
	}
	if string(a.metrics) != string(b.metrics) {
		t.Fatalf("metrics snapshots diverge:\nskip:   %s\nnoskip: %s", a.metrics, b.metrics)
	}
	if len(a.samples) == 0 {
		t.Fatalf("no mid-run samples: %d insts is fewer than %d commits", a.res.Insts, sampleEvery)
	}
	if len(a.samples) != len(b.samples) {
		t.Fatalf("sample counts diverge: skip=%d noskip=%d", len(a.samples), len(b.samples))
	}
	for i := range a.samples {
		if string(a.samples[i]) != string(b.samples[i]) {
			t.Fatalf("snapshot at commit %d diverges:\nskip:   %s\nnoskip: %s",
				(i+1)*sampleEvery, a.samples[i], b.samples[i])
		}
	}
}

// TestSkipAheadEquivalenceGrid is the core soundness wall: across
// workloads, register providers, replacement policies and fault
// schedules, a skip-ahead run must be indistinguishable from a
// tick-every-cycle run — same final architectural state (golden-model
// validated), same cycle count, byte-identical metrics at the end and at
// every sampled commit.
func TestSkipAheadEquivalenceGrid(t *testing.T) {
	type axis struct {
		kind   sim.CoreKind
		policy vrmu.Policy
	}
	providers := []axis{
		{sim.Banked, vrmu.LRC},
		{sim.Software, vrmu.LRC},
		{sim.PrefetchFull, vrmu.LRC},
		{sim.PrefetchExact, vrmu.LRC},
		{sim.ViReC, vrmu.LRC},
		{sim.ViReC, vrmu.PLRU},
		{sim.ViReC, vrmu.Belady},
	}
	faults := append([]harden.NamedPlan{{Name: "none"}}, harden.Schedules()...)
	for _, wname := range []string{"gather", "chase", "reduction"} {
		w, ok := workloads.ByName(wname)
		if !ok {
			t.Fatalf("workload %s missing", wname)
		}
		for _, p := range providers {
			for _, f := range faults {
				name := fmt.Sprintf("%s/%s-%s/%s", wname, p.kind, p.policy, f.Name)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					cfg := sim.Config{
						Kind:           p.kind,
						ThreadsPerCore: 4,
						Workload:       w,
						Iters:          24,
						ContextPct:     60,
						Policy:         p.policy,
					}
					if f.Name != "none" {
						cfg.Harden = harden.Config{FaultSeed: 0xabad1dea, Plan: f.Plan}
					}
					requireEquivalent(t, cfg)
				})
			}
		}
	}
}

// TestSkipAheadEquivalenceMultiCore pins the full-system composition:
// several cores contending through the crossbar and DRAM controller, with
// a workload mix, watchdog and continuous invariant checks enabled.
func TestSkipAheadEquivalenceMultiCore(t *testing.T) {
	g, _ := workloads.ByName("gather")
	ch, _ := workloads.ByName("chase")
	requireEquivalent(t, sim.Config{
		Kind:           sim.ViReC,
		Cores:          2,
		ThreadsPerCore: 4,
		WorkloadMix:    []*workloads.Spec{g, ch},
		Iters:          24,
		ContextPct:     60,
		Policy:         vrmu.LRC,
		Harden: harden.Config{
			FaultSeed:      77,
			WatchdogWindow: 100_000,
			CheckEvery:     300,
		},
	})
}

// TestSkipAheadEquivalenceFixedLatency covers the DelayDevice memory
// path, where pure-stall windows are long and regular — the case
// skip-ahead compresses hardest.
func TestSkipAheadEquivalenceFixedLatency(t *testing.T) {
	ch, _ := workloads.ByName("chase")
	requireEquivalent(t, sim.Config{
		Kind:            sim.Banked,
		ThreadsPerCore:  2,
		Workload:        ch,
		Iters:           32,
		FixedMemLatency: 150,
	})
}

// TestSkipAheadActuallySkips guards against the equivalence suite passing
// vacuously: on a pointer chase, long memory stalls must dominate, and the
// skip path must not silently degrade into ticking every cycle.
// SkipAheadCycles counts cycles the run never ticked. Besides the 20%
// floor on the two-thread full-context ViReC chase, every provider has a
// floor of skipped cycles on a 60%-context chase: a provider whose probe
// degrades to "always acts" passes every equivalence test but fails here.
func TestSkipAheadActuallySkips(t *testing.T) {
	ch, _ := workloads.ByName("chase")
	for _, tc := range []struct {
		kind       sim.CoreKind
		threads    int
		ctx        int
		minFrac    float64 // of all cycles
		minSkipped uint64
	}{
		{sim.ViReC, 2, 100, 0.2, 1},
		{sim.Banked, 1, 60, 0, 2536},
		{sim.Banked, 2, 60, 0, 1698},
		{sim.Software, 1, 60, 0, 2536},
		{sim.Software, 2, 60, 0, 2857},
		{sim.PrefetchFull, 1, 60, 0, 2536},
		{sim.PrefetchFull, 2, 60, 0, 1650},
		{sim.PrefetchExact, 1, 60, 0, 2479},
		{sim.PrefetchExact, 2, 60, 0, 1750},
		{sim.ViReC, 1, 60, 0, 2466},
		{sim.ViReC, 2, 60, 0, 1671},
	} {
		t.Run(fmt.Sprintf("%s/t%d/ctx%d", tc.kind, tc.threads, tc.ctx), func(t *testing.T) {
			s, err := sim.New(sim.Config{
				Kind:           tc.kind,
				ThreadsPerCore: tc.threads,
				Workload:       ch,
				Iters:          64,
				ContextPct:     tc.ctx,
				Policy:         vrmu.LRC,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			skipped := s.SkipAheadCycles()
			if skipped < tc.minSkipped {
				t.Errorf("skip-ahead compressed %d of %d cycles, want at least %d",
					skipped, res.Cycles, tc.minSkipped)
			}
			if frac := float64(skipped) / float64(res.Cycles); frac < tc.minFrac {
				t.Errorf("skip-ahead compressed only %.1f%% of %d cycles; expected memory stalls to dominate a chase",
					frac*100, res.Cycles)
			}
		})
	}
}

// sweepRecorder wraps a register provider that has no self-check of its
// own and, at every invariant sweep, records the cycle of the provider's
// last Tick: the cycle the sweep ran on, since each ticked cycle ends
// with the provider's Tick.
type sweepRecorder struct {
	cpu.Provider
	last   uint64
	sweeps []uint64
}

func (r *sweepRecorder) Tick(cycle uint64) {
	r.last = cycle
	r.Provider.Tick(cycle)
}

func (r *sweepRecorder) CheckInvariants() string {
	r.sweeps = append(r.sweeps, r.last)
	return ""
}

// TestSkipAheadCheckEveryBoundaries is the jump-aware observer
// regression: heavy clock skipping must not swallow, duplicate or move
// an invariant sweep. Every skip window is capped at the next CheckEvery
// boundary, so with skip on and off alike the sweeps must run at exactly
// k-1, 2k-1, … and once more at the final cycle.
func TestSkipAheadCheckEveryBoundaries(t *testing.T) {
	const every = 100
	ch, _ := workloads.ByName("chase")
	run := func(noSkip bool) (*sim.Result, uint64, []uint64) {
		var rec *sweepRecorder
		s, err := sim.New(sim.Config{
			Kind:            sim.Banked,
			ThreadsPerCore:  2,
			Workload:        ch,
			Iters:           32,
			FixedMemLatency: 150,
			NoSkipAhead:     noSkip,
			Harden:          harden.Config{CheckEvery: every},
			WrapProvider: func(_ int, p cpu.Provider) cpu.Provider {
				rec = &sweepRecorder{Provider: p}
				return rec
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Release()
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, s.SkipAheadCycles(), rec.sweeps
	}
	res, skipped, on := run(false)
	if skipped*2 < res.Cycles {
		t.Fatalf("only %d of %d cycles skipped; the run must skip across sweep boundaries to exercise the cap",
			skipped, res.Cycles)
	}
	var want []uint64
	for b := uint64(every - 1); b < res.Cycles-1; b += every {
		want = append(want, b)
	}
	want = append(want, res.Cycles-1)
	_, _, off := run(true)
	for _, got := range []struct {
		mode   string
		sweeps []uint64
	}{{"skip on", on}, {"skip off", off}} {
		if !slices.Equal(got.sweeps, want) {
			t.Errorf("%s: %d sweeps at cycles %v, want %d at %v",
				got.mode, len(got.sweeps), got.sweeps, len(want), want)
		}
	}
}

// BenchmarkSkipAhead measures the timed model on a stall-dominated
// pointer chase with the clock skip on and off. The on/off allocation
// parity is gated in CI: the skip machinery (NextEvent scans, SkipTo
// accounting) must not allocate, so enabling it may not add allocs/op
// over the tick-every-cycle loop.
func BenchmarkSkipAhead(b *testing.B) {
	ch, _ := workloads.ByName("chase")
	for _, mode := range []struct {
		name   string
		noSkip bool
	}{{"on", false}, {"off", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var cycles, skipped uint64
			for i := 0; i < b.N; i++ {
				s, err := sim.New(sim.Config{
					Kind:           sim.ViReC,
					ThreadsPerCore: 8,
					Workload:       ch,
					Iters:          64,
					ContextPct:     60,
					Policy:         vrmu.LRC,
					NoSkipAhead:    mode.noSkip,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := s.Run()
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Cycles
				skipped += s.SkipAheadCycles()
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
			b.ReportMetric(float64(skipped)/float64(cycles), "skip-frac")
		})
	}
}

// TestSkipAheadLivelockTripsIdentically pins error behavior: a blocked
// register fill livelocks the machine, and the watchdog must trip at the
// same cycle with and without skip-ahead (the skip window is capped at
// the watchdog deadline).
func TestSkipAheadLivelockTripsIdentically(t *testing.T) {
	g, _ := workloads.ByName("gather")
	run := func(noSkip bool) *sim.LivelockError {
		_, err := sim.Simulate(sim.Config{
			Kind:           sim.ViReC,
			ThreadsPerCore: 4,
			Workload:       g,
			Iters:          64,
			ContextPct:     60,
			Policy:         vrmu.LRC,
			NoSkipAhead:    noSkip,
			Harden: harden.Config{
				FaultSeed:      42,
				Plan:           harden.FaultPlan{BlockRegisterFills: true},
				WatchdogWindow: 5_000,
			},
		})
		le, ok := err.(*sim.LivelockError)
		if !ok {
			t.Fatalf("err = %v (%T), want *sim.LivelockError", err, err)
		}
		return le
	}
	a := run(false)
	b := run(true)
	if a.Cycle != b.Cycle || a.LastProgress != b.LastProgress {
		t.Errorf("livelock trip diverges: skip cycle=%d last=%d, noskip cycle=%d last=%d",
			a.Cycle, a.LastProgress, b.Cycle, b.LastProgress)
	}
}

// TestSkipAheadMaxCyclesIdentical pins the exhaustion path: a run that
// cannot finish within MaxCycles must fail with the same per-core
// progress report whether or not the clock was skipped.
func TestSkipAheadMaxCyclesIdentical(t *testing.T) {
	g, _ := workloads.ByName("gather")
	run := func(noSkip bool) string {
		_, err := sim.Simulate(sim.Config{
			Kind:           sim.ViReC,
			ThreadsPerCore: 4,
			Workload:       g,
			Iters:          64,
			ContextPct:     60,
			Policy:         vrmu.LRC,
			NoSkipAhead:    noSkip,
			MaxCycles:      300,
		})
		if err == nil {
			t.Fatal("run must not finish in 300 cycles")
		}
		return err.Error()
	}
	if a, b := run(false), run(true); a != b {
		t.Errorf("max-cycles reports diverge:\nskip:   %s\nnoskip: %s", a, b)
	}
}
