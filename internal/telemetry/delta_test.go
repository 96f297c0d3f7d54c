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

func TestDeltaHeadRestatesEverything(t *testing.T) {
	r, c1, _, _, _ := deltaFixture()
	*c1 = 5
	d, snap := r.DeltaSince(nil, 0, 42)
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
	_, prev := r.DeltaSince(nil, 0, 10)
	*c1 = 9
	h.Observe(50)
	d, _ := r.DeltaSince(prev, 1, 20)
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
		d, prev = r.DeltaSince(prev, step, (step+1)*100)
		if err := fold.Apply(d); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	final := r.Snapshot()
	final.Cycle = 500
	if ok, msg := fold.Equal(final); !ok {
		t.Fatalf("fold != final snapshot: %s", msg)
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
			d, prev = r.DeltaSince(prev, step, step*10)
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
