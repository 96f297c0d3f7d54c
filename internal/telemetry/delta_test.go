package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// deltaFixture builds a registry with one of each metric kind and
// returns the mutators.
func deltaFixture() (r *Registry, c1, c2 *uint64, g *float64, h *Histogram) {
	r = NewRegistry()
	c1 = new(uint64)
	c2 = new(uint64)
	g = new(float64)
	r.Counter("core0/insts", c1)
	r.Counter("core0/switches", c2)
	r.Gauge("core0/util", func() float64 { return *g })
	h = r.Histogram("dram/latency", []uint64{10, 100})
	return
}

// sample snapshots r at cycle and returns the delta from prev together
// with the new snapshot, as the farm's hub does on each tick.
func sample(r *Registry, prev *Snapshot, seq, cycle uint64) (*Delta, *Snapshot) {
	cur := r.Snapshot()
	cur.Cycle = cycle
	return DeltaFrom(prev, cur, seq), cur
}

func TestDeltaHeadRestatesEverything(t *testing.T) {
	r, c1, _, _, _ := deltaFixture()
	*c1 = 5
	d, snap := sample(r, nil, 0, 42)
	if !d.Reset {
		t.Fatal("head delta without Reset")
	}
	if d.Seq != 0 || d.Cycle != 42 {
		t.Fatalf("head seq/cycle = %d/%d, want 0/42", d.Seq, d.Cycle)
	}
	// Every metric appears in the head, including zero-valued ones.
	if len(d.Counters) != 2 || len(d.Gauges) != 1 || len(d.Histograms) != 1 {
		t.Fatalf("head cardinality: %d counters, %d gauges, %d hists",
			len(d.Counters), len(d.Gauges), len(d.Histograms))
	}
	if snap.Counter("core0/insts") != 5 {
		t.Fatalf("returned snapshot out of sync: %d", snap.Counter("core0/insts"))
	}
}

func TestDeltaCarriesOnlyChanges(t *testing.T) {
	r, c1, c2, _, h := deltaFixture()
	*c1, *c2 = 5, 3
	_, prev := sample(r, nil, 0, 10)
	*c1 = 9
	h.Observe(50)
	d, _ := sample(r, prev, 1, 20)
	if d.Reset {
		t.Fatal("non-head delta marked Reset")
	}
	if len(d.Counters) != 1 || d.Counters["core0/insts"] != 9 {
		t.Fatalf("changed counters = %v, want only core0/insts=9", d.Counters)
	}
	if len(d.Gauges) != 0 {
		t.Fatalf("unchanged gauge leaked into delta: %v", d.Gauges)
	}
	if len(d.Histograms) != 1 {
		t.Fatalf("changed histogram missing: %v", d.Histograms)
	}
}

func TestDeltaFoldReplaysToFinalSnapshot(t *testing.T) {
	r, c1, c2, g, h := deltaFixture()
	var fold Fold
	var prev *Snapshot
	for step := uint64(0); step < 5; step++ {
		*c1 += 7
		if step%2 == 0 {
			*c2++
			h.Observe(step * 60)
		}
		*g = float64(step)
		var d *Delta
		d, prev = sample(r, prev, step, (step+1)*100)
		if err := fold.Apply(d); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	final := r.Snapshot()
	final.Cycle = 500
	got, err := json.Marshal(fold.Snap)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(final)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fold != final snapshot:\nfold:  %s\nfinal: %s", got, want)
	}
}

func TestDeltaFoldRejections(t *testing.T) {
	head := &Delta{Seq: 0, Reset: true, Counters: map[string]uint64{"a/x": 5}}

	t.Run("missing head", func(t *testing.T) {
		var f Fold
		if err := f.Apply(&Delta{Seq: 0, Counters: map[string]uint64{"a/x": 1}}); err == nil {
			t.Fatal("accepted a stream without a head")
		}
	})
	t.Run("sequence gap", func(t *testing.T) {
		var f Fold
		if err := f.Apply(head); err != nil {
			t.Fatal(err)
		}
		err := f.Apply(&Delta{Seq: 2, Counters: map[string]uint64{"a/x": 6}})
		if err == nil || !strings.Contains(err.Error(), "gap") {
			t.Fatalf("gap not rejected: %v", err)
		}
	})
	t.Run("counter regression", func(t *testing.T) {
		var f Fold
		if err := f.Apply(head); err != nil {
			t.Fatal(err)
		}
		err := f.Apply(&Delta{Seq: 1, Counters: map[string]uint64{"a/x": 4}})
		if err == nil || !strings.Contains(err.Error(), "regressed") {
			t.Fatalf("regression not rejected: %v", err)
		}
	})
	t.Run("unknown label", func(t *testing.T) {
		var f Fold
		if err := f.Apply(head); err != nil {
			t.Fatal(err)
		}
		err := f.Apply(&Delta{Seq: 1, Counters: map[string]uint64{"a/y": 1}})
		if err == nil || !strings.Contains(err.Error(), "unknown") {
			t.Fatalf("unknown label not rejected: %v", err)
		}
	})
	t.Run("histogram bounds not ascending", func(t *testing.T) {
		var f Fold
		bad := &Delta{Seq: 0, Reset: true, Histograms: map[string]HistSnapshot{
			"a/h": {Bounds: []uint64{10, 10}, Counts: []uint64{0, 0, 0}},
		}}
		err := f.Apply(bad)
		if err == nil || !strings.Contains(err.Error(), "not ascending") {
			t.Fatalf("unordered bounds not rejected: %v", err)
		}
	})
	t.Run("histogram min above max", func(t *testing.T) {
		var f Fold
		bad := &Delta{Seq: 0, Reset: true, Histograms: map[string]HistSnapshot{
			"a/h": {Bounds: []uint64{10}, Counts: []uint64{1, 0}, Count: 1, Sum: 5, Min: 7, Max: 5},
		}}
		err := f.Apply(bad)
		if err == nil || !strings.Contains(err.Error(), "min 7 > max 5") {
			t.Fatalf("min > max not rejected: %v", err)
		}
	})
	t.Run("mid-stream head resets", func(t *testing.T) {
		var f Fold
		if err := f.Apply(head); err != nil {
			t.Fatal(err)
		}
		fresh := &Delta{Seq: 9, Reset: true, Counters: map[string]uint64{"b/z": 2}}
		if err := f.Apply(fresh); err != nil {
			t.Fatalf("mid-stream head rejected: %v", err)
		}
		if _, ok := f.Snap.Counters["a/x"]; ok {
			t.Fatal("mid-stream head did not reset prior state")
		}
		if err := f.Apply(&Delta{Seq: 10, Counters: map[string]uint64{"b/z": 3}}); err != nil {
			t.Fatalf("continuation after mid-stream head: %v", err)
		}
	})
}

// TestDeltaBytesDeterministic: the same mutation sequence marshals to the
// same bytes, and differently-ordered map construction cannot leak in
// (encoding/json sorts map keys).
func TestDeltaBytesDeterministic(t *testing.T) {
	render := func() []byte {
		r, c1, c2, g, _ := deltaFixture()
		var out bytes.Buffer
		enc := json.NewEncoder(&out)
		var prev *Snapshot
		for step := uint64(0); step < 4; step++ {
			*c1 += 3
			*c2 += step
			*g = 1.5 * float64(step)
			var d *Delta
			d, prev = sample(r, prev, step, step*10)
			if err := enc.Encode(d); err != nil {
				t.Fatal(err)
			}
		}
		return out.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical delta streams marshaled differently:\n%s\nvs\n%s", a, b)
	}
}
