package telemetry

import (
	"fmt"
	"math"
)

// Delta is one increment of a sequence-numbered metrics stream: the
// metrics whose values changed between two snapshots of the same
// registry, carried as absolute values (fold = overwrite), so a
// contiguous run of deltas replays into exactly the snapshot the emitter
// held at the last delta.
//
// Stream protocol:
//
//   - A stream starts with a head delta (Reset true): a complete
//     restatement of every metric, including zero-valued ones, relative
//     to nothing. Everything after the head may only reference labels the
//     head introduced — a consumer that sees an unknown label knows it
//     missed the head, not that a metric appeared mid-run.
//   - Seq increases by exactly 1 per delta within a stream; the head
//     carries the stream's base sequence number (0 for a fresh stream,
//     or the broadcaster's current sequence when a reconnecting consumer
//     is handed a fresh head mid-stream). A gap means lost deltas: the
//     consumer must discard its fold and wait for (or request) a head.
//   - Counters are monotone. A counter moving backwards inside one stream
//     is a corruption signal and folding rejects it.
//
// JSON field order is fixed by the struct and map keys are sorted by
// encoding/json, so identical delta sequences marshal to identical bytes.
type Delta struct {
	Seq   uint64 `json:"seq"`
	Cycle uint64 `json:"cycle"`
	// Reset marks a stream head: a complete restatement of the registry.
	Reset bool `json:"reset,omitempty"`

	Counters   map[string]uint64       `json:"counters,omitempty"`
	Gauges     map[string]float64      `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Empty reports whether the delta carries no metric changes: the sample
// advanced but nothing counted, so the farm's hub sends nothing and does
// not consume a sequence number.
func (d *Delta) Empty() bool {
	return !d.Reset && len(d.Counters) == 0 && len(d.Gauges) == 0 && len(d.Histograms) == 0
}

// DeltaFrom computes the delta between two snapshots of the same
// registry. A nil prev produces a stream head (Reset, all metrics).
func DeltaFrom(prev, cur *Snapshot, seq uint64) *Delta {
	d := &Delta{Seq: seq, Cycle: cur.Cycle}
	if prev == nil {
		d.Reset = true
	}
	for name, v := range cur.Counters {
		if prev != nil {
			if pv, ok := prev.Counters[name]; ok && pv == v {
				continue
			}
		}
		if d.Counters == nil {
			d.Counters = make(map[string]uint64)
		}
		d.Counters[name] = v
	}
	for name, v := range cur.Gauges {
		if prev != nil {
			if pv, ok := prev.Gauges[name]; ok && pv == v {
				continue
			}
		}
		if d.Gauges == nil {
			d.Gauges = make(map[string]float64)
		}
		d.Gauges[name] = v
	}
	for _, name := range sortedKeys(cur.Histograms) {
		h := cur.Histograms[name]
		if prev != nil {
			if ph, ok := prev.Histograms[name]; ok && histEqual(ph, h) {
				continue
			}
		}
		if d.Histograms == nil {
			d.Histograms = make(map[string]HistSnapshot)
		}
		d.Histograms[name] = HistSnapshot{
			Bounds: append([]uint64(nil), h.Bounds...),
			Counts: append([]uint64(nil), h.Counts...),
			Count:  h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max,
		}
	}
	return d
}

// histEqual compares two histogram snapshots for exact equality.
func histEqual(a, b HistSnapshot) bool {
	if a.Count != b.Count || a.Sum != b.Sum || a.Min != b.Min || a.Max != b.Max {
		return false
	}
	if len(a.Counts) != len(b.Counts) {
		return false
	}
	for i := range a.Counts {
		if a.Counts[i] != b.Counts[i] {
			return false
		}
	}
	return true
}

// Fold accumulates a stream of deltas into the snapshot the emitter held
// at the last applied delta. The zero value starts empty and expects a
// head delta first.
type Fold struct {
	// Snap is the folded state so far. Valid (and non-nil) once a head
	// delta has been applied.
	Snap *Snapshot

	started bool
	nextSeq uint64
}

// Apply folds one delta, enforcing the stream protocol: a head first,
// contiguous sequence numbers, no unknown labels after the head, no
// counter regressions, well-formed histograms. The first violation is
// returned and leaves the fold unchanged enough to report but no longer
// trustworthy.
func (f *Fold) Apply(d *Delta) error {
	if d == nil {
		return fmt.Errorf("telemetry: nil delta")
	}
	if !f.started {
		if !d.Reset {
			return fmt.Errorf("telemetry: delta seq %d arrived before a stream head (reset)", d.Seq)
		}
	} else if d.Reset {
		// A mid-stream head restates everything; adopt it wholesale.
		f.Snap = nil
	} else {
		if d.Seq != f.nextSeq {
			return fmt.Errorf("telemetry: delta sequence gap: got seq %d, want %d", d.Seq, f.nextSeq)
		}
		if d.Cycle < f.Snap.Cycle {
			return fmt.Errorf("telemetry: delta seq %d cycle %d moves backwards from %d", d.Seq, d.Cycle, f.Snap.Cycle)
		}
	}
	if f.Snap == nil {
		f.Snap = &Snapshot{
			Counters:   make(map[string]uint64),
			Gauges:     make(map[string]float64),
			Histograms: make(map[string]HistSnapshot),
		}
	}
	head := d.Reset
	for _, name := range sortedKeys(d.Counters) {
		v := d.Counters[name]
		old, known := f.Snap.Counters[name]
		if !head && !known {
			return fmt.Errorf("telemetry: delta seq %d introduces unknown counter %q", d.Seq, name)
		}
		if known && v < old {
			return fmt.Errorf("telemetry: counter %q regressed from %d to %d at seq %d", name, old, v, d.Seq)
		}
		f.Snap.Counters[name] = v
	}
	for _, name := range sortedKeys(d.Gauges) {
		v := d.Gauges[name]
		if _, known := f.Snap.Gauges[name]; !head && !known {
			return fmt.Errorf("telemetry: delta seq %d introduces unknown gauge %q", d.Seq, name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("telemetry: gauge %q is %v at seq %d", name, v, d.Seq)
		}
		f.Snap.Gauges[name] = v
	}
	for _, name := range sortedKeys(d.Histograms) {
		h := d.Histograms[name]
		old, known := f.Snap.Histograms[name]
		if !head && !known {
			return fmt.Errorf("telemetry: delta seq %d introduces unknown histogram %q", d.Seq, name)
		}
		if err := h.Validate(); err != nil {
			return fmt.Errorf("telemetry: histogram %q at seq %d: %w", name, d.Seq, err)
		}
		if known && h.Count < old.Count {
			return fmt.Errorf("telemetry: histogram %q count regressed from %d to %d at seq %d",
				name, old.Count, h.Count, d.Seq)
		}
		f.Snap.Histograms[name] = HistSnapshot{
			Bounds: append([]uint64(nil), h.Bounds...),
			Counts: append([]uint64(nil), h.Counts...),
			Count:  h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max,
		}
	}
	if d.Cycle > f.Snap.Cycle {
		f.Snap.Cycle = d.Cycle
	}
	f.started = true
	f.nextSeq = d.Seq + 1
	return nil
}
