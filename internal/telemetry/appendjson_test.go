package telemetry_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"github.com/virec/virec/internal/harden"
	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/telemetry"
	"github.com/virec/virec/internal/vrmu"
	"github.com/virec/virec/internal/workloads"
)

// raceEnabled is set when the race detector is on (race_test.go). Its
// sync.Pool drops a quarter of what it is given, so AppendJSON's scratch
// is sometimes built anew under it.
var raceEnabled bool

// mirror is Snapshot's JSON form as plain structs with no methods, so
// json.Marshal of it is encoding/json's reflective encoding whatever
// methods Snapshot gains.
type mirror struct {
	Cycle      uint64                `json:"cycle"`
	Counters   map[string]uint64     `json:"counters"`
	Gauges     map[string]float64    `json:"gauges"`
	Histograms map[string]histMirror `json:"histograms"`
}

type histMirror struct {
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"`
	Count  uint64   `json:"count"`
	Sum    uint64   `json:"sum"`
	Min    uint64   `json:"min"`
	Max    uint64   `json:"max"`
}

// reference is what AppendJSON must write: json.Marshal of r's snapshot at
// cycle, through mirror.
func reference(r *telemetry.Registry, cycle uint64) ([]byte, error) {
	s := r.Snapshot()
	m := mirror{Cycle: cycle, Counters: s.Counters, Gauges: s.Gauges,
		Histograms: make(map[string]histMirror, len(s.Histograms))}
	for _, name := range slices.Sorted(maps.Keys(s.Histograms)) {
		m.Histograms[name] = histMirror(s.Histograms[name])
	}
	return json.Marshal(m)
}

// checkAppendJSON compares AppendJSON, appending to a non-empty buffer,
// with the reference byte for byte, or their errors by text.
func checkAppendJSON(t *testing.T, r *telemetry.Registry, cycle uint64) {
	t.Helper()
	want, wantErr := reference(r, cycle)
	prefix := []byte("prefix")
	got, err := r.AppendJSON(prefix, cycle)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("error %v, want %v", err, wantErr)
	}
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("AppendJSON did not keep dst: %.40q", got)
	}
	if err != nil {
		if len(got) != len(prefix) {
			t.Fatalf("AppendJSON failed but returned %d bytes past dst", len(got)-len(prefix))
		}
		return
	}
	if got = got[len(prefix):]; !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(i-60, 0)
		t.Fatalf("bytes differ at %d of %d (want %d):\n got …%s\nwant …%s",
			i, len(got), len(want), got[lo:min(i+60, len(got))], want[lo:min(i+60, len(want))])
	}
}

// simMatrix returns one small system of every core kind, on one and two
// cores, with faults on, on DRAM and on a fixed-latency memory, and one
// ViReC system under every policy.
func simMatrix() map[string]sim.Config {
	gather, _ := workloads.ByName("gather")
	spmv, _ := workloads.ByName("spmv")
	base := sim.Config{Workload: gather, ThreadsPerCore: 2, Iters: 16, ContextPct: 60, Policy: vrmu.LRC}
	cfgs := map[string]sim.Config{}
	for _, kind := range []sim.CoreKind{sim.Banked, sim.ViReC, sim.Software, sim.PrefetchFull, sim.PrefetchExact} {
		for _, cores := range []int{1, 2} {
			cfg := base
			cfg.Kind, cfg.Cores = kind, cores
			cfgs[fmt.Sprintf("%s/%dcore", kind, cores)] = cfg
			cfg.Harden = harden.Config{FaultSeed: 11, Plan: harden.DefaultPlan()}
			cfgs[fmt.Sprintf("%s/%dcore/faults", kind, cores)] = cfg
			cfg.FixedMemLatency = 100
			cfgs[fmt.Sprintf("%s/%dcore/faults/fixed100", kind, cores)] = cfg
		}
	}
	for _, pol := range append(vrmu.AllPolicies(), vrmu.Belady, vrmu.LRCH) {
		cfg := base
		cfg.Kind, cfg.Policy, cfg.Workload = sim.ViReC, pol, spmv
		cfgs["virec/"+pol.String()] = cfg
	}
	return cfgs
}

// TestAppendJSONMatchesEncodingJSON: AppendJSON writes exactly the bytes
// encoding/json gives the registry's snapshot, for the registries of real
// systems and for hand-built edge cases, and panics as Snapshot does on a
// repeated name.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	cfgs := simMatrix()
	for _, name := range slices.Sorted(maps.Keys(cfgs)) {
		t.Run(name, func(t *testing.T) {
			s, err := sim.New(cfgs[name])
			if err != nil {
				t.Fatal(err)
			}
			defer s.Release()
			checkAppendJSON(t, s.Registry, 0) // before the run: no histogram observed
			if err := s.Exec(); err != nil {
				t.Fatal(err)
			}
			checkAppendJSON(t, s.Registry, s.Cycles())
		})
	}

	hand := []struct {
		name string
		reg  func(r *telemetry.Registry)
	}{
		{"empty", func(*telemetry.Registry) {}},
		{"histograms", func(r *telemetry.Registry) {
			r.Histogram("never", []uint64{1, 4, 16})
			h := r.Histogram("seen", telemetry.Pow2Buckets(2, 4))
			for _, v := range []uint64{0, 3, 3, 9, 100} {
				h.Observe(v)
			}
			r.Histogram("one", []uint64{5}).Observe(5)
		}},
		{"gauges", func(r *telemetry.Registry) {
			for i, v := range []float64{0, math.Copysign(0, -1), 1e-7, 1e21, 123.456,
				1e-6, 1e20, -2.5e-9, 5e-324, math.MaxFloat64, 1.0 / 3, 100} {
				r.Gauge(fmt.Sprintf("g%02d", i), func() float64 { return v })
			}
		}},
		{"nan", func(r *telemetry.Registry) {
			r.Gauge("a", func() float64 { return 1 })
			r.Gauge("b", func() float64 { return math.NaN() })
		}},
		{"inf", func(r *telemetry.Registry) {
			r.Gauge("b", func() float64 { return math.Inf(-1) })
			r.Gauge("a", func() float64 { return math.Inf(1) })
		}},
		{"escaped names", func(r *telemetry.Registry) {
			for i, name := range []string{"a<b", "a&b", `a"b`, `a\b`, "a b", "a\xffb",
				"a\nb", "a>b", "é", " ", "a\x7fb"} {
				c := uint64(i)
				r.Counter(name, &c)
				r.Gauge("g/"+name, func() float64 { return float64(i) })
				r.Histogram("h/"+name, []uint64{1}).Observe(c)
			}
		}},
		{"bytewise order", func(r *telemetry.Registry) {
			var st taggedStats
			st.Hits, st.Misses = 3, 4
			var a, b, c uint64 = 1, 2, 5
			r.Counter("b0", &a)
			r.Stats("b", &st) // b/hits and b/misses sort before b0
			r.Counter("B", &b)
			r.Counter("b/zz", &c)
			r.Gauge("b.", func() float64 { return 1 })
			r.Gauge("b", func() float64 { return 2 })
		}},
	}
	for _, tc := range hand {
		t.Run(tc.name, func(t *testing.T) {
			r := telemetry.NewRegistry()
			defer r.Release()
			tc.reg(r)
			checkAppendJSON(t, r, 42)
		})
	}

	t.Run("gauge calls", func(t *testing.T) {
		r := telemetry.NewRegistry()
		defer r.Release()
		var calls []string
		for _, name := range []string{"z", "a", "m"} {
			r.Gauge(name, func() float64 { calls = append(calls, name); return 0 })
		}
		if _, err := r.AppendJSON(nil, 0); err != nil {
			t.Fatal(err)
		}
		if want := []string{"z", "a", "m"}; !slices.Equal(calls, want) {
			t.Errorf("gauges called %v, want each once in registration order %v", calls, want)
		}
	})

	repeats := []struct {
		name string
		reg  func(r *telemetry.Registry)
	}{
		{"counter/counter", func(r *telemetry.Registry) {
			var a, b uint64
			r.Counter("x", &a)
			r.Counter("x", &b)
		}},
		{"stats/counter", func(r *telemetry.Registry) {
			var a uint64
			r.Counter("s/hits", &a)
			r.Stats("s", &taggedStats{})
		}},
		{"gauge/gauge", func(r *telemetry.Registry) {
			r.Gauge("x", func() float64 { return 0 })
			r.Gauge("x", func() float64 { return 1 })
		}},
		{"histogram/histogram", func(r *telemetry.Registry) {
			r.Histogram("x", []uint64{1})
			r.Histogram("x", []uint64{2})
		}},
		{"counter/gauge", func(r *telemetry.Registry) {
			var a uint64
			r.Counter("x", &a)
			r.Gauge("x", func() float64 { return 0 })
		}},
		{"gauge/counter", func(r *telemetry.Registry) {
			var a uint64
			r.Gauge("x", func() float64 { return 0 })
			r.Counter("x", &a)
		}},
		{"histogram/counter", func(r *telemetry.Registry) {
			var a uint64
			r.Histogram("x", []uint64{1})
			r.Counter("x", &a)
		}},
		{"gauge/histogram", func(r *telemetry.Registry) {
			r.Gauge("x", func() float64 { return 0 })
			r.Histogram("x", []uint64{1})
		}},
		{"several", func(r *telemetry.Registry) {
			var a, b, c uint64
			r.Gauge("y", func() float64 { return 0 })
			r.Counter("z", &a)
			r.Histogram("y", []uint64{1})
			r.Counter("x", &b)
			r.Counter("x", &c)
			r.Gauge("z", func() float64 { return 0 })
		}},
	}
	for _, tc := range repeats {
		t.Run("repeat/"+tc.name, func(t *testing.T) {
			r := telemetry.NewRegistry()
			tc.reg(r)
			want := panicOf(func() { r.Snapshot() })
			got := panicOf(func() { r.AppendJSON(nil, 0) })
			if want == nil || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("AppendJSON panicked with %v, Snapshot with %v", got, want)
			}
		})
	}
}

// taggedStats is a Stats struct of two counters.
type taggedStats struct {
	Hits   uint64 `metric:"hits"`
	Misses uint64 `metric:"misses"`
}

func panicOf(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// TestAppendJSONAllocs: after a warm-up, writing a finished system's
// metrics into a buffer with room for them allocates nothing. The system
// is a one-core ViReC system with faults on, so every structure kind
// registers; the entry lists come from a pooled scratch and no snapshot is
// built.
func TestAppendJSONAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops what it is given at random")
	}
	gather, _ := workloads.ByName("gather")
	s, err := sim.New(sim.Config{Kind: sim.ViReC, Workload: gather, ThreadsPerCore: 4, Iters: 16,
		ContextPct: 80, Policy: vrmu.LRC, Harden: harden.Config{FaultSeed: 3, Plan: harden.DefaultPlan()}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	if err := s.Exec(); err != nil {
		t.Fatal(err)
	}
	buf, err := s.Registry.AppendJSON(nil, s.Cycles())
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if buf, err = s.Registry.AppendJSON(buf[:0], s.Cycles()); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendJSON into a %d-byte buffer: %v allocs, want 0", cap(buf), n)
	}
}
