// Package telemetry is the simulator's unified observability layer: a
// metrics registry that every simulated structure (pipeline, VRMU,
// register file, caches, crossbar, DRAM, fault injector) registers its
// counters, gauges and histograms into under one label-addressed
// namespace, and a cycle-level event tracer with ring-buffered,
// zero-alloc-when-disabled emit paths whose output renders as Chrome
// trace_event JSON (chrome://tracing, Perfetto) or as JSONL for
// scripting.
//
// Design constraints, in order:
//
//   - The simulator's hot paths must not slow down. Counters stay plain
//     uint64 fields on each structure's Stats struct; the registry holds
//     *pointers* to them, so the per-event cost of a counter is exactly
//     what it was before the registry existed. Histogram observation is a
//     bounded linear scan over a small fixed bucket array, no allocation.
//     Trace emission behind a nil *Tracer is a load and a branch.
//   - One run, one namespace. Metric names are slash-separated labels
//     ("core0/ctx_switches", "vrmu0/misses", "dram/row_hits"); a name
//     collision panics at registration time so a wiring bug cannot
//     silently corrupt another structure's series.
//   - Snapshots are deterministic. Snapshot JSON sorts keys (Go's
//     encoding/json orders map keys), so the same run always produces the
//     same bytes — the property the sweep engine's byte-identity contract
//     extends to telemetry.
package telemetry

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
)

// Registry is one simulation's metric namespace. It is not safe for
// concurrent use; the sweep engine gives every job its own system and
// therefore its own registry.
type Registry struct {
	counters map[string]*uint64
	gauges   map[string]func() float64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*uint64),
		gauges:   make(map[string]func() float64),
		hists:    make(map[string]*Histogram),
	}
}

// claim panics if name is already registered under any metric kind: a
// collision means two structures were wired with the same prefix, and
// letting the second silently shadow the first would corrupt the series.
func (r *Registry) claim(name string) {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	_, c := r.counters[name]
	_, g := r.gauges[name]
	_, h := r.hists[name]
	if c || g || h {
		panic(fmt.Sprintf("telemetry: metric %q registered twice", name))
	}
}

// Counter registers a monotonically increasing value by pointer. The
// owner keeps incrementing its own field; the registry reads it only at
// snapshot time, so registration adds zero cost to the hot path.
func (r *Registry) Counter(name string, p *uint64) {
	if p == nil {
		panic(fmt.Sprintf("telemetry: counter %q registered with a nil pointer", name))
	}
	r.claim(name)
	r.counters[name] = p
}

// Stats registers every uint64 field of the struct stats points to as the
// counter prefix+"/"+tag, where tag is the field's `metric:"…"` struct
// tag. Each counter is a pointer alias through Counter, so a repeated
// name panics as it would there. A uint64 field without a tag panics,
// naming the type and field, so no counter can drop out of the
// namespace. Fields of other types (per-thread slices, values behind a
// gauge) are skipped.
func (r *Registry) Stats(prefix string, stats any) {
	v := reflect.ValueOf(stats).Elem()
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Type != reflect.TypeFor[uint64]() {
			continue
		}
		tag := f.Tag.Get("metric")
		if tag == "" {
			panic(fmt.Sprintf("telemetry: counter field %s.%s has no metric tag", t, f.Name))
		}
		r.Counter(prefix+"/"+tag, v.Field(i).Addr().Interface().(*uint64))
	}
}

// Gauge registers an instantaneous value computed at snapshot time.
func (r *Registry) Gauge(name string, fn func() float64) {
	if fn == nil {
		panic(fmt.Sprintf("telemetry: gauge %q registered with a nil func", name))
	}
	r.claim(name)
	r.gauges[name] = fn
}

// Histogram registers a fixed-bucket histogram and returns the handle the
// owner observes into. bounds are inclusive upper bounds in ascending
// order; one overflow bucket beyond the last bound is added implicitly.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	r.claim(name)
	h := newHistogram(bounds)
	r.hists[name] = h
	return h
}

// Snapshot materializes every registered metric into a serializable,
// self-contained value. Metrics are read in sorted label order, so the
// sequence of counter loads and gauge calls — not just the marshaled
// bytes — is identical across runs.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for _, name := range sortedKeys(r.counters) {
		s.Counters[name] = *r.counters[name]
	}
	for _, name := range sortedKeys(r.gauges) {
		s.Gauges[name] = r.gauges[name]()
	}
	for _, name := range sortedKeys(r.hists) {
		s.Histograms[name] = r.hists[name].snapshot()
	}
	return s
}

// sortedKeys returns a map's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Histogram is a fixed-bucket histogram of uint64 samples. Observe is
// nil-safe: a structure that was never wired into a registry holds a nil
// handle and pays one branch per event.
type Histogram struct {
	bounds []uint64 // inclusive upper bounds, ascending
	counts []uint64 // len(bounds)+1; the last is the overflow bucket
	count  uint64
	sum    uint64
	min    uint64
	max    uint64
}

func newHistogram(bounds []uint64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not ascending: %v", bounds))
		}
	}
	cp := make([]uint64, len(bounds))
	copy(cp, bounds)
	return &Histogram{bounds: cp, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one sample. Values at or below the first bound land in
// the first bucket; values above the last bound land in the overflow
// bucket. Never allocates.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// snapshot copies the histogram state.
func (h *Histogram) snapshot() HistSnapshot {
	out := HistSnapshot{
		Bounds: append([]uint64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Count:  h.count,
		Sum:    h.sum,
	}
	if h.count > 0 {
		out.Min, out.Max = h.min, h.max
	}
	return out
}

// LinearBuckets returns n ascending bounds start, start+width, ...
func LinearBuckets(start, width uint64, n int) []uint64 {
	if n <= 0 || width == 0 {
		panic("telemetry: LinearBuckets needs n > 0 and width > 0")
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = start + uint64(i)*width
	}
	return out
}

// Pow2Buckets returns n ascending bounds start, 2*start, 4*start, ...
func Pow2Buckets(start uint64, n int) []uint64 {
	if n <= 0 || start == 0 {
		panic("telemetry: Pow2Buckets needs n > 0 and start > 0")
	}
	out := make([]uint64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= 2
	}
	return out
}

// HistSnapshot is a serialized histogram: Counts[i] holds samples with
// value <= Bounds[i] (and > Bounds[i-1]); the final count is the overflow
// bucket for samples above the last bound.
type HistSnapshot struct {
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"`
	Count  uint64   `json:"count"`
	Sum    uint64   `json:"sum"`
	Min    uint64   `json:"min"`
	Max    uint64   `json:"max"`
}

// Validate checks the histogram is well formed: one count per bound plus
// the overflow bucket, bounds strictly ascending, bucket counts summing
// to Count, and Min <= Max once anything was observed.
func (h *HistSnapshot) Validate() error {
	if len(h.Counts) != len(h.Bounds)+1 {
		return fmt.Errorf("%d counts for %d bounds, want len(bounds)+1", len(h.Counts), len(h.Bounds))
	}
	for i := 1; i < len(h.Bounds); i++ {
		if h.Bounds[i] <= h.Bounds[i-1] {
			return fmt.Errorf("bounds not ascending at %d", i)
		}
	}
	var sum uint64
	for _, c := range h.Counts {
		sum += c
	}
	if sum != h.Count {
		return fmt.Errorf("bucket sum %d != count %d", sum, h.Count)
	}
	if h.Count > 0 && h.Min > h.Max {
		return fmt.Errorf("min %d > max %d", h.Min, h.Max)
	}
	return nil
}

// Mean returns the average observed value (0 when empty).
func (h *HistSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Snapshot is a point-in-time copy of a registry, serializable as JSON
// with deterministic (sorted-key) output.
type Snapshot struct {
	// Cycle is the simulation cycle the snapshot was taken at (set by the
	// simulation loop; 0 for snapshots taken outside a run).
	Cycle      uint64                  `json:"cycle"`
	Counters   map[string]uint64       `json:"counters"`
	Gauges     map[string]float64      `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Counter returns a counter's value (0 when absent).
func (s *Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Merge accumulates another snapshot into s: counters, gauges and
// histogram buckets add element-wise (per-job snapshots from a sweep
// aggregate into run totals; averaged quantities should be recomputed
// from the merged counters). Histograms under the same name must share
// bucket bounds — they do by construction, since every job registers the
// same structures. The higher Cycle wins.
func (s *Snapshot) Merge(other *Snapshot) {
	if other == nil {
		return
	}
	if other.Cycle > s.Cycle {
		s.Cycle = other.Cycle
	}
	if s.Counters == nil {
		s.Counters = make(map[string]uint64)
	}
	for name, v := range other.Counters {
		s.Counters[name] += v
	}
	if s.Gauges == nil {
		s.Gauges = make(map[string]float64)
	}
	for name, v := range other.Gauges {
		s.Gauges[name] += v
	}
	if s.Histograms == nil {
		s.Histograms = make(map[string]HistSnapshot)
	}
	for name, oh := range other.Histograms {
		h, ok := s.Histograms[name]
		if !ok {
			s.Histograms[name] = HistSnapshot{
				Bounds: append([]uint64(nil), oh.Bounds...),
				Counts: append([]uint64(nil), oh.Counts...),
				Count:  oh.Count, Sum: oh.Sum, Min: oh.Min, Max: oh.Max,
			}
			continue
		}
		if len(h.Bounds) != len(oh.Bounds) {
			panic(fmt.Sprintf("telemetry: merging histogram %q with mismatched bounds", name))
		}
		for i := range oh.Counts {
			h.Counts[i] += oh.Counts[i]
		}
		if h.Count == 0 || (oh.Count > 0 && oh.Min < h.Min) {
			h.Min = oh.Min
		}
		if oh.Max > h.Max {
			h.Max = oh.Max
		}
		h.Count += oh.Count
		h.Sum += oh.Sum
		s.Histograms[name] = h
	}
}

// MarshalIndentJSON renders the snapshot as indented JSON with sorted
// keys (deterministic bytes for identical runs).
func (s *Snapshot) MarshalIndentJSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
