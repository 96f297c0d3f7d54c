package sim

import (
	"testing"

	"github.com/virec/virec/internal/harden"
	"github.com/virec/virec/internal/telemetry"
	"github.com/virec/virec/internal/vrmu"
	"github.com/virec/virec/internal/workloads"
)

// raceEnabled is set when the race detector is on (race_test.go). Its
// sync.Pool drops a quarter of what it is given, so a registry is
// sometimes built anew under it.
var raceEnabled bool

// TestRegisteringNamesBuildsNoStrings: every metric name and per-core
// prefix comes from telemetry.Name, which joins each once per process. So
// after one warm-up, registering a one-core ViReC system's structures
// (fault injector included) into a fresh registry allocates nothing: the
// registry and its histograms come back from their pool, and no name is
// built again. Joined on every registration, the names and prefixes took
// 24 allocations.
func TestRegisteringNamesBuildsNoStrings(t *testing.T) {
	gather, ok := workloads.ByName("gather")
	if !ok {
		t.Fatal("missing gather workload")
	}
	s, err := New(Config{Kind: ViReC, ThreadsPerCore: 4, Workload: gather, Iters: 8,
		ContextPct: 60, Policy: vrmu.LRC, Harden: harden.Config{FaultSeed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	register := func() {
		r := telemetry.NewRegistry()
		s.registerMetrics(r)
		r.Release()
	}
	register()
	if n := testing.AllocsPerRun(100, register); n != 0 && !raceEnabled {
		t.Errorf("registering a one-core system's metrics made %v allocations after a warm-up", n)
	}
}
