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
//     uint64 fields on each structure's Stats struct; the registry keeps
//     one entry per registered structure and reads the fields only when
//     it takes a snapshot, so the per-event cost of a counter is exactly
//     what it was before the registry existed. Histogram observation is a
//     bounded linear scan over a small fixed bucket array, no allocation.
//     Trace emission behind a nil *Tracer is a load and a branch.
//   - Registration is cheap too: every simulation registers its whole
//     namespace, so a Stats struct costs one entry however many counters
//     it holds, each (type, prefix) pair's metric names are built once
//     per process, and Name joins every other name once per process.
//   - One run, one namespace. Metric names are slash-separated labels
//     ("core0/ctx_switches", "vrmu0/misses", "dram/row_hits"); a name
//     registered twice panics when the registry is snapshotted, so a
//     wiring bug cannot silently merge two structures' series.
//   - Snapshots are deterministic. Snapshot JSON sorts keys (Go's
//     encoding/json orders map keys), so the same run always produces the
//     same bytes — the property the sweep engine's byte-identity contract
//     extends to telemetry. AppendJSON writes those same bytes straight
//     from the registry, without the maps.
package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// Registry is one simulation's metric namespace: an ordered list of
// registrations, one per counter, gauge or histogram and one per Stats
// struct. It is not safe for concurrent use; the sweep engine gives every
// job its own system and therefore its own registry.
type Registry struct {
	metrics []metric
	// Names registered of each kind, so Snapshot sizes its maps exactly.
	counters, gauges, hists int
	// histograms holds every histogram the registry ever handed out: the
	// first hists are this run's, the rest wait to be reused.
	histograms []*Histogram
}

// metric is one registration: a named counter, gauge or histogram, or a
// Stats struct, whose counters are named by its cached fields.
type metric struct {
	name string // the metric's name; a Stats struct's prefix
	val  any    // *uint64, func() float64, *Histogram, or a Stats struct pointer
}

// statsFields is one Stats type's tagged uint64 fields under one prefix:
// each field's index and its prefix+"/"+tag name.
type statsFields struct {
	index []int
	names []string
}

type fieldsKey struct {
	t      reflect.Type
	prefix string
}

// fieldCache holds the statsFields of every (type, prefix) registered so
// far in the process. Sweep workers build systems concurrently, hence the
// lock. It only grows, by one entry per structure prefix a run wires.
var fieldCache = struct {
	sync.Mutex
	m map[fieldsKey]*statsFields
}{m: make(map[fieldsKey]*statsFields)}

// fieldsOf returns t's cached fields under prefix, building them on first
// use. A uint64 field without a metric tag panics, naming the type and
// field, so no counter can drop out of the namespace.
func fieldsOf(t reflect.Type, prefix string) *statsFields {
	fieldCache.Lock()
	defer fieldCache.Unlock()
	key := fieldsKey{t, prefix}
	if fs := fieldCache.m[key]; fs != nil {
		return fs
	}
	fs := &statsFields{}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Type != reflect.TypeFor[uint64]() {
			continue
		}
		tag := f.Tag.Get("metric")
		if tag == "" {
			panic(fmt.Sprintf("telemetry: counter field %s.%s has no metric tag", t, f.Name))
		}
		fs.index = append(fs.index, i)
		fs.names = append(fs.names, prefix+"/"+tag)
	}
	fieldCache.m[key] = fs
	return fs
}

// names holds every name Name has joined in the process, under its two
// parts. Like fieldCache it only grows, by the names of the structure
// prefixes the runs wire.
var names = struct {
	sync.Mutex
	m map[[2]string]string
}{m: make(map[[2]string]string)}

// Name returns prefix+leaf, joined once per process. Structures name
// their metrics with it (Name(prefix, "/occupancy")) and systems their
// per-core prefixes (Name("core", "0")), so a simulation registers its
// namespace without building a string.
func Name(prefix, leaf string) string {
	names.Lock()
	defer names.Unlock()
	key := [2]string{prefix, leaf}
	name, ok := names.m[key]
	if !ok {
		name = prefix + leaf
		names.m[key] = name
	}
	return name
}

// registryPool holds released registries.
var registryPool sync.Pool

// NewRegistry returns an empty registry with room for a one-core
// system's registrations (25 with a ViReC provider), so most simulations
// never grow the list. It rebuilds a released registry when there is one,
// keeping its list's storage and its histograms for reuse.
func NewRegistry() *Registry {
	r, _ := registryPool.Get().(*Registry)
	if r == nil {
		r = &Registry{metrics: make([]metric, 0, 32)}
	}
	clear(r.metrics)
	*r = Registry{metrics: r.metrics[:0], histograms: r.histograms}
	return r
}

// Release hands the registry and its histograms to the next NewRegistry,
// once no owner observes into them; snapshots already taken keep their
// values.
func (r *Registry) Release() { registryPool.Put(r) }

// add appends one named registration. A repeated name is caught by
// Snapshot, which sees every name at once.
func (r *Registry) add(name string, val any) {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	r.metrics = append(r.metrics, metric{name: name, val: val})
}

// Counter registers a monotonically increasing value by pointer. The
// owner keeps incrementing its own field; the registry reads it only at
// snapshot time, so registration adds zero cost to the hot path.
func (r *Registry) Counter(name string, p *uint64) {
	if p == nil {
		panic(fmt.Sprintf("telemetry: counter %q registered with a nil pointer", name))
	}
	r.add(name, p)
	r.counters++
}

// Stats registers every uint64 field of the struct stats points to as the
// counter prefix+"/"+tag, where tag is the field's `metric:"…"` struct
// tag. It appends one entry however many fields the struct has, and reads
// the fields at snapshot time as Counter does. A uint64 field without a
// tag panics, naming the type and field. Fields of other types
// (per-thread slices, values behind a gauge) are skipped.
func (r *Registry) Stats(prefix string, stats any) {
	fs := fieldsOf(reflect.ValueOf(stats).Elem().Type(), prefix)
	r.metrics = append(r.metrics, metric{name: prefix, val: stats})
	r.counters += len(fs.names)
}

// Gauge registers an instantaneous value computed at snapshot time.
func (r *Registry) Gauge(name string, fn func() float64) {
	if fn == nil {
		panic(fmt.Sprintf("telemetry: gauge %q registered with a nil func", name))
	}
	r.add(name, fn)
	r.gauges++
}

// Histogram registers a fixed-bucket histogram and returns the handle the
// owner observes into. bounds are inclusive upper bounds in ascending
// order; one overflow bucket beyond the last bound is added implicitly.
// The histogram keeps bounds, not a copy, and shares them with its
// snapshots, so they must not change after registration. Owners that
// register one layout in every simulation build it once, as a package
// variable.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	if r.hists == len(r.histograms) {
		r.histograms = append(r.histograms, new(Histogram))
	}
	h := r.histograms[r.hists].reset(bounds)
	r.add(name, h)
	r.hists++
	return h
}

// Snapshot materializes every registered metric into a serializable value
// that later counting does not change (histogram bounds, which never
// change, are shared). Its maps are sized exactly and filled in
// registration order, so the sequence of counter loads and gauge calls —
// not just the marshaled bytes — is identical across runs. A name
// registered twice, under any pair of kinds, panics: a collision means
// two structures were wired with the same prefix, and letting one shadow
// the other would corrupt the series.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   make(map[string]uint64, r.counters),
		Gauges:     make(map[string]float64, r.gauges),
		Histograms: make(map[string]HistSnapshot, r.hists),
	}
	for _, m := range r.metrics {
		switch v := m.val.(type) {
		case *uint64:
			put(s.Counters, m.name, *v)
		case func() float64:
			put(s.Gauges, m.name, v())
		case *Histogram:
			put(s.Histograms, m.name, v.snapshot())
		default:
			sv := reflect.ValueOf(v).Elem()
			fs := fieldsOf(sv.Type(), m.name)
			for i, f := range fs.index {
				put(s.Counters, fs.names[i], sv.Field(f).Uint())
			}
		}
	}
	// A name shared across kinds sits in two maps. Gauges and histograms
	// are few, so look each up in the other kinds' maps.
	for _, m := range r.metrics {
		switch m.val.(type) {
		case func() float64:
			_, c := s.Counters[m.name]
			_, h := s.Histograms[m.name]
			if c || h {
				panicRepeated(m.name)
			}
		case *Histogram:
			if _, c := s.Counters[m.name]; c {
				panicRepeated(m.name)
			}
		}
	}
	return s
}

// put stores v under name, which must not be in m yet.
func put[V any](m map[string]V, name string, v V) {
	n := len(m)
	m[name] = v
	if len(m) == n {
		panicRepeated(name)
	}
}

func panicRepeated(name string) {
	panic(fmt.Sprintf("telemetry: metric %q registered twice", name))
}

// entry is one metric AppendJSON writes: its name and its value.
type entry[V any] struct {
	name string
	v    V
}

// jsonScratch holds AppendJSON's entry lists, one per kind, between calls.
type jsonScratch struct {
	counters []entry[uint64]
	gauges   []entry[float64]
	hists    []entry[*Histogram]
}

var jsonScratchPool = sync.Pool{New: func() any { return new(jsonScratch) }}

// AppendJSON appends to dst the bytes json.Marshal gives for the
// registry's Snapshot with Cycle set to cycle, and returns the extended
// buffer. It builds no snapshot: it reads every counter, calls every gauge
// once in registration order, as Snapshot does, and writes each kind's
// names in bytewise order from lists it keeps in a pooled scratch. So into
// a buffer with room for the document it allocates nothing. A repeated
// name panics with Snapshot's message. A NaN or infinite gauge returns
// encoding/json's error, and dst as it was given.
func (r *Registry) AppendJSON(dst []byte, cycle uint64) ([]byte, error) {
	sc := jsonScratchPool.Get().(*jsonScratch)
	defer jsonScratchPool.Put(sc)
	sc.counters, sc.gauges, sc.hists = sc.counters[:0], sc.gauges[:0], sc.hists[:0]
	for _, m := range r.metrics {
		switch v := m.val.(type) {
		case *uint64:
			sc.counters = append(sc.counters, entry[uint64]{m.name, *v})
		case func() float64:
			sc.gauges = append(sc.gauges, entry[float64]{m.name, v()})
		case *Histogram:
			sc.hists = append(sc.hists, entry[*Histogram]{m.name, v})
		default:
			sv := reflect.ValueOf(v).Elem()
			fs := fieldsOf(sv.Type(), m.name)
			for i, f := range fs.index {
				sc.counters = append(sc.counters, entry[uint64]{fs.names[i], sv.Field(f).Uint()})
			}
		}
	}
	c, g, h := sortByName(sc.counters), sortByName(sc.gauges), sortByName(sc.hists)
	if c || g || h || overlap(sc.gauges, sc.counters) || overlap(sc.gauges, sc.hists) ||
		overlap(sc.hists, sc.counters) {
		r.Snapshot() // panics, naming the repeat as every snapshot does
	}

	out := append(dst, `{"cycle":`...)
	out = strconv.AppendUint(out, cycle, 10)
	out = append(out, `,"counters":{`...)
	for i, e := range sc.counters {
		out = appendKey(out, i, e.name)
		out = strconv.AppendUint(out, e.v, 10)
	}
	out = append(out, `},"gauges":{`...)
	for i, e := range sc.gauges {
		out = appendKey(out, i, e.name)
		var err error
		if out, err = appendFloat(out, e.v); err != nil {
			return dst, err
		}
	}
	out = append(out, `},"histograms":{`...)
	for i, e := range sc.hists {
		out = appendKey(out, i, e.name)
		out = e.v.appendJSON(out)
	}
	return append(out, "}}"...), nil
}

// sortByName sorts es bytewise by name, the order encoding/json writes a
// map's keys in, and reports whether a name repeats.
func sortByName[V any](es []entry[V]) (repeats bool) {
	slices.SortFunc(es, func(a, b entry[V]) int { return strings.Compare(a.name, b.name) })
	for i := 1; i < len(es); i++ {
		if es[i].name == es[i-1].name {
			return true
		}
	}
	return false
}

// overlap reports whether two lists sorted by sortByName share a name.
func overlap[A, B any](a []entry[A], b []entry[B]) bool {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch c := strings.Compare(a[i].name, b[j].name); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			return true
		}
	}
	return false
}

// appendKey appends the i-th name of a JSON object, with the comma before
// it and the colon after it. A name of printable ASCII that encoding/json
// leaves as it is, as every structure's name is, is copied; any other
// name is quoted by encoding/json itself.
func appendKey(dst []byte, i int, name string) []byte {
	if i > 0 {
		dst = append(dst, ',')
	}
	for j := 0; j < len(name); j++ {
		if c := name[j]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' ||
			c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(name)
			return append(append(dst, q...), ':')
		}
	}
	dst = append(dst, '"')
	dst = append(dst, name...)
	return append(dst, '"', ':')
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// form that reads back as f, in exponent form below 1e-6 or from 1e21 on,
// with no leading zero in a negative exponent. A NaN or an infinity gets
// the error json.Marshal gives it.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
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

// reset empties h for bounds, keeping its count array if it is large
// enough, and returns h.
func (h *Histogram) reset(bounds []uint64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not ascending: %v", bounds))
		}
	}
	counts := h.counts
	if cap(counts) < len(bounds)+1 {
		counts = make([]uint64, len(bounds)+1)
	}
	counts = counts[:len(bounds)+1]
	clear(counts)
	*h = Histogram{bounds: bounds, counts: counts}
	return h
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

// snapshot copies the histogram state. The bounds are shared, not
// copied: nothing changes them after registration.
func (h *Histogram) snapshot() HistSnapshot {
	out := HistSnapshot{
		Bounds: h.bounds,
		Counts: append([]uint64(nil), h.counts...),
		Count:  h.count,
		Sum:    h.sum,
	}
	if h.count > 0 {
		out.Min, out.Max = h.min, h.max
	}
	return out
}

// appendJSON appends the JSON encoding/json gives h's snapshot: the
// bounds h shares, its counts, and a min and max of 0 while it is empty.
func (h *Histogram) appendJSON(dst []byte) []byte {
	lo, hi := h.min, h.max
	if h.count == 0 {
		lo, hi = 0, 0
	}
	dst = appendUints(append(dst, `{"bounds":`...), h.bounds)
	dst = appendUints(append(dst, `,"counts":`...), h.counts)
	dst = strconv.AppendUint(append(dst, `,"count":`...), h.count, 10)
	dst = strconv.AppendUint(append(dst, `,"sum":`...), h.sum, 10)
	dst = strconv.AppendUint(append(dst, `,"min":`...), lo, 10)
	dst = strconv.AppendUint(append(dst, `,"max":`...), hi, 10)
	return append(dst, '}')
}

// appendUints appends vs as a JSON array.
func appendUints(dst []byte, vs []uint64) []byte {
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, v, 10)
	}
	return append(dst, ']')
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
// bucket for samples above the last bound. In a Registry's snapshot,
// Bounds is shared with the live histogram and must not be modified.
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
