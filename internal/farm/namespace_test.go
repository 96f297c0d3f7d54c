package farm

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/virec/virec/internal/harden"
	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/telemetry"
	"github.com/virec/virec/internal/vrmu"
	"github.com/virec/virec/internal/workloads"
)

// namespaceLines renders every metric a snapshot holds as one sorted
// "kind name" line.
func namespaceLines(s *telemetry.Snapshot) []string {
	var out []string
	for name := range s.Counters {
		out = append(out, "counter "+name)
	}
	for name := range s.Gauges {
		out = append(out, "gauge "+name)
	}
	for name := range s.Histograms {
		out = append(out, "histogram "+name)
	}
	sort.Strings(out)
	return out
}

// TestMetricNamespaceGolden pins the metric namespace of three
// registries: a 2-core ViReC LRC+H system with fault injection over
// DRAM (every simulated structure that registers metrics), a 1-core
// banked system over fixed-latency memory, and the farm's own registry.
// A renamed, dropped or added metric — including a RegisterMetrics that
// forgets to register a Stats struct — shows up as a reviewed diff
// against the golden file.
func TestMetricNamespaceGolden(t *testing.T) {
	gather, ok := workloads.ByName("gather")
	if !ok {
		t.Fatal("missing gather workload")
	}
	systems := []struct {
		name string
		cfg  sim.Config
	}{
		{"virec LRC+H, 2 cores, faults, DRAM", sim.Config{
			Kind: sim.ViReC, Cores: 2, ThreadsPerCore: 2,
			Workload: gather, Iters: 8,
			ContextPct: 60, Policy: vrmu.LRCH,
			Harden: harden.Config{FaultSeed: 7},
		}},
		{"banked, 1 core, fixed memory latency", sim.Config{
			Kind: sim.Banked, ThreadsPerCore: 2,
			Workload: gather, Iters: 8,
			FixedMemLatency: 100,
		}},
	}
	var b strings.Builder
	for _, sys := range systems {
		s, err := sim.New(sys.cfg)
		if err != nil {
			t.Fatalf("%s: %v", sys.name, err)
		}
		fmt.Fprintf(&b, "# %s\n", sys.name)
		for _, l := range namespaceLines(s.Registry.Snapshot()) {
			fmt.Fprintln(&b, l)
		}
		s.Release()
	}
	f, err := Open(Options{Dir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Kill()
	fmt.Fprintf(&b, "# farm\n")
	for _, l := range namespaceLines(f.MetricsSnapshot()) {
		fmt.Fprintln(&b, l)
	}
	got := b.String()

	golden := filepath.Join("testdata", "metric_namespace.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	if got != string(want) {
		t.Errorf("metric namespace drifted from %s:\n--- want ---\n%s--- got ---\n%s", golden, want, got)
	}
}
