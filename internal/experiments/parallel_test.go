package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/sweep"
	"github.com/virec/virec/internal/telemetry"
	"github.com/virec/virec/internal/vrmu"
	"github.com/virec/virec/internal/workloads"
)

// TestParallelMatchesSerial is the experiment-level determinism contract:
// running a sweep-shaped experiment with a worker pool must render the
// exact same report, byte for byte, as the serial loop. fig9 covers the
// multi-workload multi-config shape; mix covers WorkloadMix configs with
// value validation enabled; fig12 and headline reduce across policies and
// kinds; hints runs the generated population and its activity tables.
func TestParallelMatchesSerial(t *testing.T) {
	for _, name := range []string{"fig9", "mix", "fig12", "headline", "hints"} {
		t.Run(name, func(t *testing.T) {
			serial, err := Run(name, Options{Quick: true, Iters: 16, Parallel: 1})
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := Run(name, Options{Quick: true, Iters: 16, Parallel: 4})
			if err != nil {
				t.Fatal(err)
			}
			s, p := serial.String(), parallel.String()
			if s != p {
				t.Errorf("parallel report differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", s, p)
			}
			if cs, cp := serial.CSV(), parallel.CSV(); cs != cp {
				t.Error("parallel CSV differs from serial")
			}
		})
	}
}

// traceRun simulates one traced ViReC config, checks its register-file
// events against the schema, and returns the JSONL event stream and the
// compact metrics-snapshot JSON.
func traceRun(t *testing.T, seed uint64) (trace, metrics []byte) {
	t.Helper()
	w, _ := workloads.ByName("gather")
	var buf bytes.Buffer
	var events []telemetry.Event
	cfg := sim.Config{
		Kind: sim.ViReC, ThreadsPerCore: 4,
		Workload: w, Iters: 24, Seed: seed,
		ContextPct: 60, Policy: vrmu.LRC,
		TraceEvents: 256,
		TraceSink: func(evs []telemetry.Event) {
			events = append(events, evs...)
			if err := telemetry.WriteEventsJSONL(&buf, evs); err != nil {
				t.Fatal(err)
			}
		},
	}
	res, err := sim.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkRegfileEvents(t, events, cfg.ThreadsPerCore)
	snap, err := res.Metrics.MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), snap
}

// checkRegfileEvents holds a ViReC trace to the argument layout the
// EventKind docs and DESIGN.md §9 give: rf_miss (reg, src 0 / dst 1),
// victim (victim's thread in Thread; reg, dirty), fill and spill (addr,
// reg), fill_done (addr, latency, reg). Every fill_done must close an
// earlier fill of the same thread, address and register that was issued
// exactly its latency before.
func checkRegfileEvents(t *testing.T, evs []telemetry.Event, threads int) {
	t.Helper()
	type fillKey struct {
		thread   int32
		addr     uint64
		reg      uint64
		issuedAt uint64
	}
	open := map[fillKey]int{}
	seen := map[string]int{}
	for _, e := range evs {
		bad := false
		switch e.Kind {
		case telemetry.EvRFMiss:
			bad = e.Arg0 >= isa.NumRegs || e.Arg1 > 1 || e.Arg2 != 0
			seen[fmt.Sprintf("rf_miss/%d", e.Arg1)]++
		case telemetry.EvVictim:
			bad = e.Arg0 >= isa.NumRegs || e.Arg1 > 1 || e.Arg2 != 0
			seen[fmt.Sprintf("victim/%d", e.Arg1)]++
		case telemetry.EvFill:
			bad = e.Arg1 >= isa.NumRegs || e.Arg2 != 0
			open[fillKey{e.Thread, e.Arg0, e.Arg1, e.Cycle}]++
			seen["fill"]++
		case telemetry.EvSpill:
			bad = e.Arg1 >= isa.NumRegs || e.Arg2 != 0
			seen["spill"]++
		case telemetry.EvFillDone:
			k := fillKey{e.Thread, e.Arg0, e.Arg2, e.Cycle - e.Arg1}
			bad = e.Arg1 == 0 || e.Arg1 > e.Cycle || open[k] == 0
			open[k]--
			seen["fill_done"]++
		default:
			continue
		}
		if bad || e.Thread < 0 || int(e.Thread) >= threads {
			t.Fatalf("event does not fit the schema: %+v", e)
		}
	}
	for _, kind := range []string{"rf_miss/0", "rf_miss/1", "victim/0", "victim/1", "fill", "spill", "fill_done"} {
		if seen[kind] == 0 {
			t.Errorf("trace has no %s event; the layout check is vacuous for it", kind)
		}
	}
}

// TestTraceAndMetricsDeterminism is the telemetry determinism contract:
// the same seed and schedule must produce a byte-identical JSONL event
// trace and metrics snapshot on every run, and the per-job snapshots a
// parallel sweep merges must be byte-identical to the serial sweep's.
func TestTraceAndMetricsDeterminism(t *testing.T) {
	tr1, m1 := traceRun(t, 7)
	tr2, m2 := traceRun(t, 7)
	if !bytes.Equal(tr1, tr2) {
		t.Error("same-seed runs produced different JSONL traces")
	}
	if !bytes.Equal(m1, m2) {
		t.Error("same-seed runs produced different metrics snapshots")
	}
	if len(tr1) == 0 || len(m1) == 0 {
		t.Fatal("trace or metrics output empty")
	}

	trOther, _ := traceRun(t, 8)
	if bytes.Equal(tr1, trOther) {
		t.Error("different seeds produced identical traces (tracer not capturing run behaviour?)")
	}

	// Serial vs parallel sweep: the merged aggregate and every per-job
	// snapshot must match byte for byte.
	w, _ := workloads.ByName("gather")
	var cfgs []sim.Config
	for i := 0; i < 6; i++ {
		cfgs = append(cfgs, sim.Config{
			Kind: sim.ViReC, ThreadsPerCore: 4,
			Workload: w, Iters: 24, Seed: uint64(100 + i),
			ContextPct: 60, Policy: vrmu.LRC,
		})
	}
	serialRes, serialAgg, err := sweep.SimsMerged(sweep.Serial, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	parRes, parAgg, err := sweep.SimsMerged(sweep.New(4), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	sj, err := serialAgg.MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	pj, err := parAgg.MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj, pj) {
		t.Errorf("parallel aggregate snapshot differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", sj, pj)
	}
	for i := range serialRes {
		a, err := serialRes[i].Metrics.MarshalIndentJSON()
		if err != nil {
			t.Fatal(err)
		}
		b, err := parRes[i].Metrics.MarshalIndentJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("job %d snapshot differs between serial and parallel", i)
		}
	}

	// Reconciliation: registry counters alias the Stats fields, so the
	// snapshot must agree exactly with the values report tables print.
	snap := serialRes[0].Metrics
	if got, want := snap.Counter("core0/ctx_switches"), serialRes[0].CoreStats[0].ContextSwitches; got != want {
		t.Errorf("ctx_switches: snapshot %d != CoreStats %d", got, want)
	}
	if got, want := snap.Counter("rf0/vrmu/misses"), serialRes[0].TagStats[0].Misses; got != want {
		t.Errorf("rf misses: snapshot %d != TagStats %d", got, want)
	}
}

// TestParallelDefaultEngine checks the Parallel knob's mapping: 0 uses
// all CPUs, 1 is serial, N is N workers — all of which must produce the
// same report.
func TestParallelDefaultEngine(t *testing.T) {
	base, err := Run("fig11", Options{Quick: true, Iters: 16, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 16} {
		rep, err := Run("fig11", Options{Quick: true, Iters: 16, Parallel: workers})
		if err != nil {
			t.Fatalf("Parallel=%d: %v", workers, err)
		}
		if rep.String() != base.String() {
			t.Errorf("Parallel=%d report differs from serial", workers)
		}
	}
}
