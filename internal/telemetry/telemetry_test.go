package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCounterAndGaugeSnapshot(t *testing.T) {
	r := NewRegistry()
	var hits uint64
	r.Counter("core0/hits", &hits)
	r.Gauge("core0/occupancy", func() float64 { return 0.5 })

	hits = 7
	s := r.Snapshot()
	if got := s.Counter("core0/hits"); got != 7 {
		t.Fatalf("counter = %d, want 7", got)
	}
	if got := s.Gauges["core0/occupancy"]; got != 0.5 {
		t.Fatalf("gauge = %v, want 0.5", got)
	}
	// Snapshot is a copy: later increments must not leak in.
	hits = 100
	if got := s.Counter("core0/hits"); got != 7 {
		t.Fatalf("snapshot mutated after the fact: %d", got)
	}
}

// A name registered twice panics in Snapshot, whatever the two kinds; an
// empty name or a nil pointer panics at registration.
func TestRegistryCollisionPanics(t *testing.T) {
	cases := []struct {
		name, want string
		reg        func(r *Registry)
	}{
		{"counter/counter", `"x" registered twice`, func(r *Registry) {
			var a, b uint64
			r.Counter("x", &a)
			r.Counter("x", &b)
		}},
		{"counter/gauge", `"x" registered twice`, func(r *Registry) {
			var a uint64
			r.Counter("x", &a)
			r.Gauge("x", func() float64 { return 0 })
		}},
		{"gauge/counter", `"x" registered twice`, func(r *Registry) {
			var a uint64
			r.Gauge("x", func() float64 { return 0 })
			r.Counter("x", &a)
		}},
		{"histogram/counter", `"x" registered twice`, func(r *Registry) {
			var a uint64
			r.Histogram("x", []uint64{1, 2})
			r.Counter("x", &a)
		}},
		{"histogram/gauge", `"x" registered twice`, func(r *Registry) {
			r.Histogram("x", []uint64{1, 2})
			r.Gauge("x", func() float64 { return 0 })
		}},
		{"empty name", "empty metric name", func(r *Registry) {
			var a uint64
			r.Counter("", &a)
		}},
		{"nil counter", "nil pointer", func(r *Registry) {
			r.Counter("x", nil)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q, want one containing %q", msg, tc.want)
				}
			}()
			r := NewRegistry()
			tc.reg(r)
			r.Snapshot()
		})
	}
}

// taggedStats mixes tagged counters with fields Registry.Stats skips.
type taggedStats struct {
	Hits      uint64 `metric:"hits"`
	Misses    uint64 `metric:"misses"`
	PerThread []uint64
	MaxQueue  int
}

// untaggedStats keeps a counter Registry.Stats cannot name.
type untaggedStats struct {
	Hits    uint64 `metric:"hits"`
	Refills uint64
}

func TestRegistryStats(t *testing.T) {
	t.Run("tagged fields alias", func(t *testing.T) {
		r := NewRegistry()
		var st taggedStats
		r.Stats("c0", &st)
		st.Hits, st.Misses = 3, 4
		s := r.Snapshot()
		if s.Counter("c0/hits") != 3 || s.Counter("c0/misses") != 4 {
			t.Fatalf("counters = %v, want c0/hits=3 c0/misses=4", s.Counters)
		}
	})
	t.Run("other types skipped", func(t *testing.T) {
		r := NewRegistry()
		st := taggedStats{PerThread: []uint64{1}, MaxQueue: 2}
		r.Stats("c0", &st)
		s := r.Snapshot()
		if len(s.Counters) != 2 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
			t.Fatalf("snapshot = %+v, want only the two tagged counters", s)
		}
	})
	t.Run("untagged counter panics", func(t *testing.T) {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "telemetry.untaggedStats.Refills") {
				t.Fatalf("panic %q does not name the type and field", msg)
			}
		}()
		NewRegistry().Stats("c0", &untaggedStats{})
	})
	t.Run("repeated name panics", func(t *testing.T) {
		r := NewRegistry()
		var other uint64
		r.Counter("c0/misses", &other)
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, `"c0/misses" registered twice`) {
				t.Fatalf("panic %q, want a collision on c0/misses", msg)
			}
		}()
		r.Stats("c0", &taggedStats{})
		r.Snapshot()
	})
}

// statsOfWidth returns a struct type of n uint64 fields tagged c0..c<n-1>.
func statsOfWidth(n int) reflect.Type {
	fields := make([]reflect.StructField, n)
	for i := range fields {
		fields[i] = reflect.StructField{
			Name: fmt.Sprintf("C%d", i),
			Type: reflect.TypeFor[uint64](),
			Tag:  reflect.StructTag(fmt.Sprintf(`metric:"c%d"`, i)),
		}
	}
	return reflect.StructOf(fields)
}

var registrySink *Registry

// TestRegistrationCostPerStructure: once a Stats type's names are cached,
// registering a structure costs the same whether it holds 2 counters or
// 40, and a snapshot's allocation count does not grow with the counters
// either (only its maps' sizes do).
func TestRegistrationCostPerStructure(t *testing.T) {
	prefixes := []string{"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7"}
	measure := func(width int) (register, snapshot float64) {
		typ := statsOfWidth(width)
		structs := make([]any, len(prefixes))
		for i := range structs {
			structs[i] = reflect.New(typ).Interface()
		}
		build := func() {
			r := NewRegistry()
			for i, p := range prefixes {
				r.Stats(p, structs[i])
			}
			registrySink = r
		}
		build() // names built and cached here
		r := registrySink
		if got := len(r.Snapshot().Counters); got != width*len(prefixes) {
			t.Fatalf("width %d: %d counters, want %d", width, got, width*len(prefixes))
		}
		return testing.AllocsPerRun(100, build), testing.AllocsPerRun(100, func() { r.Snapshot() })
	}
	reg2, snap2 := measure(2)
	reg40, snap40 := measure(40)
	if reg40 != reg2 {
		t.Errorf("registering 8 structs: %v allocs with 40 counters each, %v with 2; want the same", reg40, reg2)
	}
	if snap40 > snap2 {
		t.Errorf("Snapshot: %v allocs with 320 counters, %v with 16; want no more", snap40, snap2)
	}
}

// raceStats is registered from several goroutines at once.
type raceStats struct {
	A uint64 `metric:"a"`
	B uint64 `metric:"b"`
}

// raceRuns numbers TestStatsFieldsConcurrent's runs, so that every run
// (-count=N) builds its cache entries afresh.
var raceRuns atomic.Int32

// TestStatsFieldsConcurrent registers one Stats type under shared prefixes
// from several goroutines, as sweep workers building systems do; run it
// under -race.
func TestStatsFieldsConcurrent(t *testing.T) {
	run := raceRuns.Add(1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p := fmt.Sprintf("race%d.%d", run, i%5)
				st := raceStats{A: uint64(g), B: uint64(i)}
				r := NewRegistry()
				r.Stats(p, &st)
				s := r.Snapshot()
				if len(s.Counters) != 2 || s.Counter(p+"/a") != uint64(g) || s.Counter(p+"/b") != uint64(i) {
					t.Errorf("goroutine %d: counters %v", g, s.Counters)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestHistogramEdgeCases(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []uint64{10, 20, 40})

	// Zero observations: everything empty, Mean well-defined.
	s0 := r.Snapshot().Histograms["lat"]
	if s0.Count != 0 || s0.Sum != 0 || s0.Min != 0 || s0.Max != 0 {
		t.Fatalf("empty histogram snapshot not zeroed: %+v", s0)
	}
	if s0.Mean() != 0 {
		t.Fatalf("empty Mean = %v, want 0", s0.Mean())
	}

	h.Observe(0)   // below first bound -> bucket 0
	h.Observe(10)  // at bound, inclusive -> bucket 0
	h.Observe(11)  // -> bucket 1
	h.Observe(40)  // at last bound -> bucket 2
	h.Observe(999) // above last bound -> overflow bucket 3

	s := r.Snapshot().Histograms["lat"]
	want := []uint64{2, 1, 1, 1}
	if len(s.Counts) != len(s.Bounds)+1 {
		t.Fatalf("counts len %d, want bounds+1 = %d", len(s.Counts), len(s.Bounds)+1)
	}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("counts = %v, want %v", s.Counts, want)
		}
	}
	if s.Count != 5 || s.Sum != 1060 || s.Min != 0 || s.Max != 999 {
		t.Fatalf("summary wrong: %+v", s)
	}
	// The earlier snapshot is a copy: later observations must not leak in.
	for _, c := range s0.Counts {
		if c != 0 {
			t.Fatalf("empty snapshot's counts changed after the fact: %v", s0.Counts)
		}
	}

	// Nil handle is a no-op, not a crash.
	var nh *Histogram
	nh.Observe(5)
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	for _, bounds := range [][]uint64{nil, {}, {5, 5}, {5, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bounds %v should have panicked", bounds)
				}
			}()
			NewRegistry().Histogram("h", bounds)
		}()
	}
}

// TestHistSnapshotValidate checks the rules virec-telemetry-check
// -metrics applies to every histogram of a recorded snapshot.
func TestHistSnapshotValidate(t *testing.T) {
	ok := HistSnapshot{Bounds: []uint64{10}, Counts: []uint64{1, 0}, Count: 1, Sum: 5, Min: 5, Max: 5}
	if err := ok.Validate(); err != nil {
		t.Fatalf("well-formed histogram rejected: %v", err)
	}
	for _, tc := range []struct {
		name, want string
		h          HistSnapshot
	}{
		{"bounds not ascending", "not ascending",
			HistSnapshot{Bounds: []uint64{10, 10}, Counts: []uint64{0, 0, 0}}},
		{"min above max", "min 7 > max 5",
			HistSnapshot{Bounds: []uint64{10}, Counts: []uint64{1, 0}, Count: 1, Sum: 5, Min: 7, Max: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.h.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestHistogramSharesBounds: a histogram keeps the bounds it is given, so
// registering one on bounds built once allocates only its handle and its
// counts.
func TestHistogramSharesBounds(t *testing.T) {
	bounds := Pow2Buckets(4, 10)
	r := NewRegistry()
	if h := r.Histogram("h", bounds); &h.bounds[0] != &bounds[0] {
		t.Fatal("Histogram copied its bounds")
	}
	if n := testing.AllocsPerRun(100, func() {
		r.metrics = r.metrics[:0]
		r.Histogram("h", bounds)
	}); n != 2 {
		t.Errorf("registering a histogram: %v allocs, want 2 (the handle and its counts)", n)
	}
}

func TestBucketHelpers(t *testing.T) {
	lin := LinearBuckets(0, 2, 4)
	for i, w := range []uint64{0, 2, 4, 6} {
		if lin[i] != w {
			t.Fatalf("LinearBuckets = %v", lin)
		}
	}
	p2 := Pow2Buckets(4, 4)
	for i, w := range []uint64{4, 8, 16, 32} {
		if p2[i] != w {
			t.Fatalf("Pow2Buckets = %v", p2)
		}
	}
}

func TestSnapshotMerge(t *testing.T) {
	mk := func(hits uint64, obs ...uint64) *Snapshot {
		r := NewRegistry()
		c := hits
		r.Counter("hits", &c)
		r.Gauge("g", func() float64 { return 1 })
		h := r.Histogram("lat", []uint64{10, 20})
		for _, v := range obs {
			h.Observe(v)
		}
		return r.Snapshot()
	}
	a := mk(3, 5, 15)
	b := mk(4, 25, 2)
	a.Merge(b)
	if a.Counter("hits") != 7 {
		t.Fatalf("merged counter = %d", a.Counter("hits"))
	}
	if a.Gauges["g"] != 2 {
		t.Fatalf("merged gauge = %v", a.Gauges["g"])
	}
	h := a.Histograms["lat"]
	if h.Count != 4 || h.Min != 2 || h.Max != 25 || h.Sum != 47 {
		t.Fatalf("merged histogram = %+v", h)
	}
	wantCounts := []uint64{2, 1, 1}
	for i, w := range wantCounts {
		if h.Counts[i] != w {
			t.Fatalf("merged counts = %v, want %v", h.Counts, wantCounts)
		}
	}
	// Merge into an empty snapshot works too.
	var empty Snapshot
	empty.Merge(b)
	if empty.Counter("hits") != 4 || empty.Histograms["lat"].Count != 2 {
		t.Fatalf("merge into empty failed: %+v", empty)
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	mk := func() []byte {
		r := NewRegistry()
		var a, b uint64 = 1, 2
		r.Counter("z/last", &a)
		r.Counter("a/first", &b)
		r.Gauge("m/gauge", func() float64 { return 3.5 })
		r.Histogram("h/lat", []uint64{1, 2}).Observe(1)
		out, err := r.Snapshot().MarshalIndentJSON()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if !bytes.Equal(mk(), mk()) {
		t.Fatal("snapshot JSON not byte-deterministic")
	}
}

func TestTracerRingMode(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(uint64(i), EvStage, 0, int32(i), 0, 0, 0)
	}
	if tr.Total() != 10 {
		t.Fatalf("Total = %d, want 10", tr.Total())
	}
	last := tr.LastN(3)
	if len(last) != 3 {
		t.Fatalf("LastN(3) returned %d events", len(last))
	}
	for i, want := range []uint64{7, 8, 9} {
		if last[i].Cycle != want {
			t.Fatalf("LastN = %+v", last)
		}
	}
	// Asking for more than held returns only what the ring holds.
	if got := len(tr.LastN(100)); got != 4 {
		t.Fatalf("LastN(100) = %d events, want 4", got)
	}
	if tr.TailString(2) == "" {
		t.Fatal("TailString empty")
	}
}

func TestTracerStreamingSink(t *testing.T) {
	tr := NewTracer(4)
	var got []Event
	tr.SetSink(func(evs []Event) {
		got = append(got, evs...)
	})
	for i := 0; i < 10; i++ {
		tr.Emit(uint64(i), EvFill, 1, 2, uint64(i), 0, 0)
	}
	tr.Flush()
	if len(got) != 10 {
		t.Fatalf("sink received %d events, want 10", len(got))
	}
	for i, e := range got {
		if e.Cycle != uint64(i) || e.Arg0 != uint64(i) {
			t.Fatalf("event %d out of order: %+v", i, e)
		}
	}
	// Flush with nothing buffered is a no-op.
	tr.Flush()
	if len(got) != 10 {
		t.Fatal("empty Flush re-delivered events")
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(1, EvStage, 0, 0, 0, 0, 0)
	tr.Flush()
	if tr.Total() != 0 || tr.LastN(5) != nil || tr.TailString(5) != "" {
		t.Fatal("nil tracer should be inert")
	}
}

func TestWriteEventsJSONL(t *testing.T) {
	evs := []Event{
		{Cycle: 1, Kind: EvSwitch, Core: 0, Thread: 2, Arg0: ^uint64(0), Arg1: SwitchLoadMiss},
		{Cycle: 5, Kind: EvPin, Core: 1, Thread: NoThread, Arg0: 0x100040},
	}
	var buf bytes.Buffer
	if err := WriteEventsJSONL(&buf, evs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %q not valid JSON: %v", line, err)
		}
		for _, k := range []string{"cycle", "kind", "core", "thread", "arg0", "arg1", "arg2"} {
			if _, ok := m[k]; !ok {
				t.Fatalf("line %q missing field %q", line, k)
			}
		}
	}
	// Byte-determinism of the writer itself.
	var buf2 bytes.Buffer
	WriteEventsJSONL(&buf2, evs)
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("JSONL output not deterministic")
	}
}

func TestChromeWriterValidJSON(t *testing.T) {
	var buf bytes.Buffer
	cw := NewChromeWriter(&buf)
	prev := ^uint64(0) // no previous thread
	evs := []Event{
		{Cycle: 0, Kind: EvSwitch, Core: 0, Thread: 0, Arg0: prev, Arg1: SwitchStart},
		{Cycle: 1, Kind: EvStage, Core: 0, Thread: 0, Arg0: StageDecode, Arg1: 0x40, Arg2: 1},
		{Cycle: 2, Kind: EvStage, Core: 0, Thread: 0, Arg0: StageExecute, Arg1: 0x40, Arg2: 1},
		{Cycle: 3, Kind: EvRFMiss, Core: 0, Thread: 0, Arg0: 7},
		{Cycle: 4, Kind: EvFill, Core: 0, Thread: 0, Arg0: 0x100000},
		{Cycle: 9, Kind: EvFillDone, Core: 0, Thread: 0, Arg0: 0x100000, Arg1: 5},
		{Cycle: 10, Kind: EvPin, Core: 0, Thread: NoThread, Arg0: 0x100040},
		{Cycle: 12, Kind: EvSwitch, Core: 0, Thread: 1, Arg0: 0, Arg1: SwitchLoadMiss},
		{Cycle: 13, Kind: EvLoadMiss, Core: 0, Thread: 1, Arg0: 0x2000},
		{Cycle: 14, Kind: EvUnpin, Core: 0, Thread: NoThread, Arg0: 0x100040},
	}
	if err := cw.Write(evs); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(20); err != nil {
		t.Fatal(err)
	}

	var arr []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &arr); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v\n%s", err, buf.String())
	}
	if len(arr) == 0 {
		t.Fatal("chrome trace empty")
	}
	var spans, instants, metas int
	for _, ev := range arr {
		ph, _ := ev["ph"].(string)
		switch ph {
		case "X":
			spans++
		case "i":
			instants++
		case "M":
			metas++
		default:
			t.Fatalf("unexpected ph %q in %v", ph, ev)
		}
		for _, k := range []string{"pid", "tid"} {
			if _, ok := ev[k]; !ok {
				t.Fatalf("event missing %q: %v", k, ev)
			}
		}
	}
	// Thread 0 ran cycles 0-12 (closed by the switch), thread 1 ran
	// 12-20 (closed by Close): two run spans.
	if spans != 2 {
		t.Fatalf("got %d run spans, want 2", spans)
	}
	if instants == 0 || metas == 0 {
		t.Fatalf("instants=%d metas=%d, want both > 0", instants, metas)
	}
}

// The emit paths must be allocation-free: nil tracer, live ring tracer,
// streaming tracer mid-batch, and histogram observation.
func TestEmitPathsZeroAlloc(t *testing.T) {
	var nilTr *Tracer
	if n := testing.AllocsPerRun(100, func() {
		nilTr.Emit(1, EvStage, 0, 0, 0, 0, 0)
	}); n != 0 {
		t.Fatalf("nil tracer Emit allocates %.1f/op", n)
	}

	tr := NewTracer(1024)
	if n := testing.AllocsPerRun(100, func() {
		tr.Emit(1, EvStage, 0, 0, 1, 2, 3)
	}); n != 0 {
		t.Fatalf("ring tracer Emit allocates %.1f/op", n)
	}

	h := NewRegistry().Histogram("h", Pow2Buckets(4, 10))
	if n := testing.AllocsPerRun(100, func() {
		h.Observe(37)
	}); n != 0 {
		t.Fatalf("Histogram.Observe allocates %.1f/op", n)
	}
}
