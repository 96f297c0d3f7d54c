package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/virec/virec/internal/farm"
	"github.com/virec/virec/internal/workloads"
)

// TestMain lets the test binary serve as its own measurement child, as
// the real binary does.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		childMain(os.Args[1:])
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T, root string) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

func testRoot(t *testing.T) string {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestBenchmarkFileMatchesHarness keeps BENCHMARK.json and the harness's
// metric table in step: same workloads, same gated end-to-end metrics with
// the same units, directions and bounds, same per-layer metrics.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	b := loadBenchmarkFile(t, testRoot(t))
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads %v, harness runs %v", names, workloadNames)
	}
	var gated []metricDef
	for _, m := range endToEnd {
		if m.Gated {
			gated = append(gated, m)
		}
	}
	if len(b.EndToEnd) != len(gated) {
		t.Fatalf("%d end_to_end metrics, harness gates %d", len(b.EndToEnd), len(gated))
	}
	for i, m := range gated {
		e := b.EndToEnd[i]
		if e.Name != m.Name || e.Unit != m.Unit || e.Better != m.Better || e.Bound != m.Bound {
			t.Errorf("end_to_end[%d] = %+v, harness has %s %s %s %v", i, e, m.Name, m.Unit, m.Better, m.Bound)
		}
	}
	layers := perLayer()
	if len(b.PerLayer) != len(layers) {
		t.Fatalf("%d per_layer metrics, harness reports %d", len(b.PerLayer), len(layers))
	}
	for i, m := range layers {
		if e := b.PerLayer[i]; e.Name != m.Name || e.Unit != m.Unit || e.Better != m.Better {
			t.Errorf("per_layer[%d] = %+v, harness has %s %s %s", i, e, m.Name, m.Unit, m.Better)
		}
	}
}

// TestQuickSmoke runs every workload at quick sizes, traced, then again
// untraced, and checks the reports against BENCHMARK.json.
func TestQuickSmoke(t *testing.T) {
	root := testRoot(t)
	b := loadBenchmarkFile(t, root)
	opt, err := parseFlags([]string{"-quick", "-trace", "1", "-root", root, "-out", t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := run(opt, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	opt.trace, opt.out = false, t.TempDir()
	plain, err := run(opt, io.Discard)
	if err != nil {
		t.Fatal(err)
	}

	var wantE2E, wantLayer []string
	for _, m := range b.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
	}
	for _, m := range b.PerLayer {
		wantLayer = append(wantLayer, m.Name)
	}
	for i, rep := range traced.Workloads {
		w := rep.Workload
		if got := summaryNames(t, rep, false); !slices.Equal(got, slices.Sorted(slices.Values(wantE2E))) {
			t.Errorf("%s: end-to-end summary metrics %v, BENCHMARK.json declares %v", w, got, wantE2E)
		}
		if got := summaryNames(t, rep, true); !slices.Equal(got, slices.Sorted(slices.Values(wantLayer))) {
			t.Errorf("%s: per-layer summary metrics %v, BENCHMARK.json declares %v", w, got, wantLayer)
		}
		for _, m := range endToEnd {
			if _, ok := rep.Metrics[m.Name]; ok != m.reports(w) {
				t.Errorf("%s: reports %s = %v, want %v", w, m.Name, ok, m.reports(w))
			}
		}
		if rep.Failed+rep.TracedFailed != 0 || rep.Metrics["fail_frac"].Median != 0 {
			t.Errorf("%s: %d+%d failed ops: %v", w, rep.Failed, rep.TracedFailed, rep.Failures)
		}
		// Runtime counts (go.*) repeat only nearly; every other count
		// must repeat exactly between runs.
		other := plain.Workloads[i]
		for name, v := range rep.Counters {
			m, ok := findMetric(name)
			if !ok || !m.Exact || strings.HasPrefix(name, "go.") {
				continue
			}
			if other.Counters[name] != v {
				t.Errorf("%s: %s = %v in one run, %v in the next", w, name, v, other.Counters[name])
			}
		}
	}
}

func summaryNames(t *testing.T, rep *workloadReport, traced bool) []string {
	t.Helper()
	data, err := json.Marshal(summaryLine(rep, traced))
	if err != nil {
		t.Fatal(err)
	}
	var s struct {
		Metrics map[string]summaryMetric `json:"metrics"`
	}
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return sortedKeys(s.Metrics)
}

// TestConfigsWithinGoldenLimits keeps every configured sim within the
// Iters at which its kernel's golden model verifies.
func TestConfigsWithinGoldenLimits(t *testing.T) {
	check := func(kernel string, iters int) {
		if _, ok := workloads.ByName(kernel); !ok {
			t.Errorf("unknown kernel %q", kernel)
		}
		limit, ok := goldenItersLimit[kernel]
		switch {
		case !ok:
			t.Errorf("%s: no golden Iters limit recorded", kernel)
		case limit > 0 && iters > limit:
			t.Errorf("%s at %d iters: its golden model only holds up to %d", kernel, iters, limit)
		}
	}
	for _, sz := range []sizes{fullSizes, quickSizes} {
		for _, c := range stallCases {
			check(c.kernel, sz.stallIters)
		}
		f := &farmLoad{iters: sz.farmIters}
		spec := f.simSpec(0).Sim
		check(spec.Workload, spec.Iters)
	}
}

// testRunner is a child's state for driving one workload in-process.
func testRunner(t *testing.T, args ...string) *runner {
	t.Helper()
	opt, err := parseFlags(append([]string{"-root", testRoot(t), "-out", t.TempDir()}, args...))
	if err != nil {
		t.Fatal(err)
	}
	return &runner{opt: opt, t0: time.Now()}
}

// TestRegenMismatchFails changes one digit of a committed section: that
// experiment must count as a failed op and raise fail_frac.
func TestRegenMismatchFails(t *testing.T) {
	root := testRoot(t)
	data, err := os.ReadFile(filepath.Join(root, "experiments_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	body := strings.Index(text, "== table1:")
	body += strings.IndexByte(text[body:], '\n') // past the header line
	digit := body + strings.IndexAny(text[body:], "0123456789")
	changed := []byte(text)
	changed[digit] = '0' + (changed[digit]-'0'+1)%10
	expected := filepath.Join(t.TempDir(), "experiments_output.txt")
	if err := os.WriteFile(expected, changed, 0o644); err != nil {
		t.Fatal(err)
	}

	r := testRunner(t, "-workload", "regen", "-expected", expected)
	w := &regen{}
	if err := w.setup(r); err != nil {
		t.Fatal(err)
	}
	w.names = []string{"fig14", "table1"} // the cheap ones; full scale
	po, err := w.pass(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.out.Passes = append(r.out.Passes, po)
	if r.out.Ops != 2 || r.out.Failed != 1 || !strings.Contains(r.out.Failures[0], "table1") {
		t.Fatalf("ops %d failed %d failures %q; want table1 alone to fail", r.out.Ops, r.out.Failed, r.out.Failures)
	}
	rep := summarizeRun("regen", &r.out, []float64{0}, 1)
	if got := rep.Metrics["fail_frac"].Median; got != 0.5 {
		t.Errorf("fail_frac = %v, want 0.5", got)
	}
}

// TestFarmResubmissionMustHitCache resubmits one changed spec: it runs
// again instead of coming from the cache, which must count as failed.
func TestFarmResubmissionMustHitCache(t *testing.T) {
	r := testRunner(t, "-workload", "farm", "-quick")
	w := &farmLoad{}
	if err := w.setup(r); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	specs := make([]*farm.Spec, w.n)
	for j := range specs {
		specs[j] = w.simSpec(j)
	}
	resubs := slices.Clone(specs)
	resubs[3] = w.simSpec(w.n + 1) // neither a pass spec nor the warm-up's
	po, err := w.run(r, 0, specs, resubs)
	if err != nil {
		t.Fatal(err)
	}
	r.out.Passes = append(r.out.Passes, po)
	if r.out.Ops != 2*w.n || r.out.Failed != 1 || !strings.Contains(r.out.Failures[0], "not served from the cache") {
		t.Fatalf("ops %d failed %d failures %q; want resubmission 3 alone to fail", r.out.Ops, r.out.Failed, r.out.Failures)
	}
	rep := summarizeRun("farm", &r.out, []float64{0}, 1)
	if got := rep.Metrics["fail_frac"].Median; got <= 0 {
		t.Errorf("fail_frac = %v, want > 0", got)
	}
}

// findMetric looks a metric up by name across both lists.
func findMetric(name string) (metricDef, bool) {
	for _, m := range endToEnd {
		if m.Name == name {
			return m, true
		}
	}
	for _, m := range perLayer() {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}
