package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// childEnv marks a process as a measurement child: the parent re-executes
// its own binary with this variable set, once per workload and run.
const childEnv = "VIREC_BENCH_CHILD"

// workers is the number of goroutines doing simulation work in a child:
// sweep workers, farm workers and GOMAXPROCS all use it.
const workers = 2

// childOut is what a child reports to its parent, as JSON on stdout.
type childOut struct {
	Workload   string             `json:"workload"`
	SetupS     float64            `json:"setup_s"`
	Passes     []passOut          `json:"passes"`
	Ops        int                `json:"ops"`
	Failed     int                `json:"failed"`
	Unverified int                `json:"unverified"`
	Failures   []string           `json:"failures,omitempty"`
	Layer      map[string]float64 `json:"layer,omitempty"` // traced runs only
	Profiles   []string           `json:"profiles,omitempty"`
}

// passOut is one pass's measurements.
type passOut struct {
	// Values holds the pass's end-to-end values (wall_s, cpu_s, ...).
	Values map[string]float64 `json:"values"`
	// Lat holds per-op latencies in ms by class (op, roundtrip, cachehit).
	Lat map[string][]float64 `json:"lat,omitempty"`
	// Counters holds the pass's deterministic counts (sim.cycles, ...).
	Counters map[string]float64 `json:"counters"`
}

func newPassOut() passOut {
	return passOut{Values: map[string]float64{}, Lat: map[string][]float64{}, Counters: map[string]float64{}}
}

// workload is one benchmark workload as a child runs it.
type workload interface {
	// setup prepares everything the first timed op needs; its cost is
	// part of setup_s.
	setup(r *runner) error
	// pass runs pass i. It wraps exactly its measured section in
	// r.timed, records each op with r.op, and returns the pass's values.
	// An error is a harness failure, not a failed op.
	pass(r *runner, i int) (passOut, error)
	// close releases what setup and the passes acquired.
	close() error
}

// window is the host cost of one timed section.
type window struct {
	wall, cpu          float64 // seconds
	peakRSS            float64 // MiB
	allocs, allocBytes float64
	gcCycles           float64
	gcCPU, totalCPU    float64 // runtime/metrics CPU estimates, seconds
}

// runner is a child's measurement state.
type runner struct {
	opt    options
	t0     time.Time // when the parent started this process
	tr     *tracer   // nil in untraced runs
	out    childOut
	win    window // the current pass's timed section
	nTimed int
}

// maxFailures bounds the failure messages a child reports.
const maxFailures = 20

// op records one op's outcome.
func (r *runner) op(err error) {
	r.out.Ops++
	if err == nil {
		return
	}
	r.out.Failed++
	if len(r.out.Failures) < maxFailures {
		r.out.Failures = append(r.out.Failures, err.Error())
	}
}

// opUnverified records an op whose output had nothing to check against.
func (r *runner) opUnverified() {
	r.out.Ops++
	r.out.Unverified++
}

// timed runs fn as the pass's measured section: it takes setup_s at the
// first call, profiles the section in traced runs, and records its wall
// time, CPU time and allocation counts. fn receives the pass span.
func (r *runner) timed(fn func(pass int64)) window {
	if r.nTimed == 0 {
		r.out.SetupS = time.Since(r.t0).Seconds()
	}
	r.nTimed++
	var w window
	var prof *os.File
	var profPath string
	if r.tr != nil {
		profPath = filepath.Join(r.opt.out, fmt.Sprintf("%s.pass%d.pprof", r.opt.workloads[0], r.nTimed-1))
		f, err := os.Create(profPath)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fatalf("cpu profile: %v", err)
		}
		prof = f
	}
	// Every pass starts from a collected heap returned to the kernel, so
	// its peak does not depend on what earlier passes left mapped.
	debug.FreeOSMemory()
	resetPeakRSS()
	m0 := readRuntime()
	c0 := cpuTime()
	start := time.Now()
	span, end := r.tr.begin("pass", 0)
	fn(span)
	end()
	w.wall = time.Since(start).Seconds()
	w.cpu = cpuTime() - c0
	w.peakRSS = peakRSSMB()
	m1 := readRuntime()
	if prof != nil {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			fatalf("cpu profile: %v", err)
		}
		r.out.Profiles = append(r.out.Profiles, profPath)
	}
	w.allocs = m1.allocs - m0.allocs
	w.allocBytes = m1.allocBytes - m0.allocBytes
	w.gcCycles = m1.gcCycles - m0.gcCycles
	w.gcCPU = m1.gcCPU - m0.gcCPU
	w.totalCPU = m1.totalCPU - m0.totalCPU
	r.win = w
	return w
}

// runtimeSample is a reading of the runtime/metrics the harness reports.
type runtimeSample struct {
	allocs, allocBytes, gcCycles, gcCPU, totalCPU float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocs: v(0), allocBytes: v(1), gcCycles: v(2), gcCPU: v(3), totalCPU: v(4)}
}

// cpuTime returns the process's user+system CPU seconds so far.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatalf("getrusage: %v", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS restarts the kernel's peak-resident-set count (VmHWM) from
// the current resident set, so each pass reports its own peak. Where the
// kernel refuses, the peak stays the process's peak so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// calibrate times a fixed SHA-256 loop. It shows how fast the host runs
// right now; nothing is normalised by it.
func calibrate() float64 {
	buf := make([]byte, 1<<20)
	start := time.Now()
	for i := 0; i < 64; i++ {
		sum := sha256.Sum256(buf)
		buf[0] = sum[0]
	}
	return time.Since(start).Seconds()
}

// newWorkload returns the named workload.
func newWorkload(name string) (workload, error) {
	switch name {
	case "regen":
		return &regen{}, nil
	case "stall":
		return &stall{}, nil
	case "difftest":
		return &difftestLoad{}, nil
	case "farm":
		return &farmLoad{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// runChild runs one workload in this process and returns its report.
func runChild(opt options) (*childOut, error) {
	runtime.GOMAXPROCS(workers)
	name := opt.workloads[0]
	r := &runner{opt: opt, t0: time.Unix(0, opt.t0), out: childOut{Workload: name}}
	if opt.t0 == 0 {
		r.t0 = time.Now()
	}
	var calib float64
	if opt.trace {
		r.tr = newTracer()
		calib = calibrate()
	}
	w, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	if err := w.setup(r); err != nil {
		_ = w.close() // the setup error is the one to report
		return nil, fmt.Errorf("%s: setup: %w", name, err)
	}
	if opt.setupOnly {
		r.out.SetupS = time.Since(r.t0).Seconds()
		return &r.out, w.close()
	}
	passes := opt.passes
	if passes == 0 && opt.seconds == 0 {
		passes = defaultPasses[name]
	}
	var measured float64
	for i := 0; ; i++ {
		if passes > 0 && i == passes {
			break
		}
		if passes == 0 && i > 0 && measured >= float64(opt.seconds) {
			break
		}
		po, err := w.pass(r, i)
		if err != nil {
			_ = w.close() // the pass error is the one to report
			return nil, fmt.Errorf("%s: pass %d: %w", name, i, err)
		}
		po.Values["wall_s"] = r.win.wall
		po.Values["cpu_s"] = r.win.cpu
		po.Values["peak_rss_mb"] = r.win.peakRSS
		po.Values["alloc_mb"] = r.win.allocBytes / (1 << 20)
		addRuntimeCounters(po, r.win)
		r.out.Passes = append(r.out.Passes, po)
		measured += r.win.wall
	}
	if err := w.close(); err != nil {
		return nil, fmt.Errorf("%s: close: %w", name, err)
	}
	if r.tr != nil {
		r.out.Layer = r.tr.layerMetrics(len(r.out.Passes))
		r.out.Layer["host.calib_s"] = calib
		for k, v := range runProbes() {
			r.out.Layer[k] = v
		}
		if lw, ok := w.(interface{ layer() map[string]float64 }); ok {
			for k, v := range lw.layer() {
				r.out.Layer[k] = v
			}
		}
		if err := r.tr.write(filepath.Join(opt.out, name+".spans.json")); err != nil {
			return nil, err
		}
	}
	return &r.out, nil
}

// addRuntimeCounters derives the Go runtime counts of a pass from its
// timed window and its simulated cycles.
func addRuntimeCounters(po passOut, w window) {
	if cyc := po.Counters["sim.cycles"]; cyc > 0 {
		po.Counters["go.allocs_per_kcycle"] = w.allocs / (cyc / 1e3)
		po.Counters["go.alloc_mb_per_mcycle"] = w.allocBytes / (1 << 20) / (cyc / 1e6)
	}
	po.Counters["go.gc_cycles"] = w.gcCycles
	if w.totalCPU > 0 {
		po.Counters["go.gc_cpu_frac"] = w.gcCPU / w.totalCPU
	}
}

// span is one timed call the benchmark made into a layer.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the child exits. A nil tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func noop() {}

// begin opens a span under parent and returns its id and the function
// that closes it.
func (t *tracer) begin(name string, parent int64) (int64, func()) {
	if t == nil {
		return 0, noop
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	start := time.Since(t.base).Nanoseconds()
	return id, func() {
		end := time.Since(t.base).Nanoseconds()
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
		t.mu.Unlock()
	}
}

// summedSpans are reported as total seconds per pass; medianSpans as the
// median duration in ms.
var (
	summedSpans = []string{"sim_new", "sim_run", "precode", "interp_run", "generate", "check"}
	medianSpans = []string{"submit", "wait", "inline_exec"}
)

// layerMetrics aggregates the spans into their span.* metrics.
func (t *tracer) layerMetrics(passes int) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := map[string]float64{}
	durs := map[string][]float64{}
	for _, s := range t.spans {
		d := float64(s.End - s.Start)
		total[s.Name] += d / 1e9
		durs[s.Name] = append(durs[s.Name], d/1e6)
	}
	out := map[string]float64{}
	per := float64(max(passes, 1))
	for name, v := range total {
		if rest, ok := strings.CutPrefix(name, "exp."); ok {
			out["span.exp."+rest+"_s"] = v / per
		}
	}
	for _, n := range summedSpans {
		out["span."+n+"_s"] = total[n] / per
	}
	for _, n := range medianSpans {
		out["span."+n+"_ms_p50"] = median(durs[n])
	}
	return out
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
