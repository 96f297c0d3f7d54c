package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{1, 2}, 1.5},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{7, 1, 5, 3}, [3]float64{1.5, 4, 6.5}},
		{[]float64{2.5, 2.5, 2.5}, [3]float64{2.5, 2.5, 2.5}},
		{[]float64{9}, [3]float64{9, 9, 9}},
	} {
		got := quartiles(tc.xs)
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for _, tc := range []struct{ p, want float64 }{
		{0, 10}, {50, 30}, {75, 40}, {90, 46}, {100, 50},
	} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(p%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64 // 0: only the median may be reported
	}{
		{1, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		p, ok := tailPercentile(tc.n)
		if !ok {
			p = 0
		}
		if p != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, p, tc.want)
		}
	}
}

func TestBootstrapCI(t *testing.T) {
	xs := []float64{9.1, 9.7, 10.2, 10.0, 9.9, 10.4, 9.5, 10.1, 9.8, 12.0}
	lo, hi := bootstrapCI(xs, 7)
	lo2, hi2 := bootstrapCI(xs, 7)
	if lo != lo2 || hi != hi2 {
		t.Fatalf("same seed gave [%v, %v] then [%v, %v]", lo, hi, lo2, hi2)
	}
	if m := median(xs); !(lo <= m && m <= hi) || lo < 9.1 || hi > 12 {
		t.Errorf("interval [%v, %v] does not bracket the median %v within the data", lo, hi, m)
	}
	if lo, hi := bootstrapCI([]float64{4}, 1); lo != 4 || hi != 4 {
		t.Errorf("single sample interval = [%v, %v], want [4, 4]", lo, hi)
	}
}

func TestVerdict(t *testing.T) {
	wall, _ := findMetric("wall_s")
	rate, _ := findMetric("commits_per_s")
	setup, _ := findMetric("setup_s")
	fails, _ := findMetric("fail_frac")
	ten := func(base, step float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = base + step*float64(i%5)
		}
		return xs
	}
	for _, tc := range []struct {
		name           string
		m              metricDef
		parent, change []float64
		want           string
	}{
		{"faster", wall, ten(10, 0.05), ten(8, 0.05), improved},
		{"slower past bound", wall, ten(10, 0.05), ten(12, 0.05), regressed},
		{"slower within bound", wall, ten(10, 0.05), ten(11, 0.05), unchanged},
		{"noisy parent", wall, ten(10, 1), ten(11.5, 1), unresolved},
		{"noisy parent, every change run worse", wall, ten(10, 1), ten(20, 1), regressed},
		{"higher is better", rate, ten(100, 0.5), ten(80, 0.5), regressed},
		{"rate gain", rate, ten(100, 0.5), ten(120, 0.5), improved},
		{"setup under the 20 ms floor", setup, []float64{0.010, 0.011, 0.012}, []float64{0.020, 0.021, 0.022}, unchanged},
		{"setup past the floor", setup, []float64{0.100, 0.101, 0.102}, []float64{0.200, 0.201, 0.202}, regressed},
		{"any failure increase", fails, []float64{0}, []float64{0.01}, regressed},
	} {
		if got := verdict(tc.m, tc.parent, tc.change); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestPackageAndLayerOf(t *testing.T) {
	for _, tc := range []struct{ fn, pkg, layer string }{
		{"github.com/virec/virec/internal/cpu.(*Core).Tick", "github.com/virec/virec/internal/cpu", "cpu"},
		{"github.com/virec/virec/internal/cpu/regfile.(*ViReC).spill", "github.com/virec/virec/internal/cpu/regfile", "regfile"},
		{"github.com/virec/virec/internal/sweep.MapCtx[go.shape.43464344,go.shape.*uint8].func1", "github.com/virec/virec/internal/sweep", "sweep"},
		{"github.com/virec/virec/internal/mem.(*Memory).page", "github.com/virec/virec/internal/mem", "mem"},
		{"runtime.mallocgc", "runtime", "goruntime"},
		{"runtime.gcWriteBarrier2", "runtime", "goruntime"},
		{"internal/runtime/maps.(*Map).getWithKeySmall", "internal/runtime/maps", "goruntime"},
		{"runtime/pprof.(*profileBuilder).addCPUData", "runtime/pprof", "other"},
		{"crypto/sha256.blockAMD64", "crypto/sha256", "other"},
	} {
		pkg := packageOf(tc.fn)
		if pkg != tc.pkg || layerOf(pkg) != tc.layer {
			t.Errorf("%s: package %q layer %q, want %q %q", tc.fn, pkg, layerOf(pkg), tc.pkg, tc.layer)
		}
	}
}

func TestParseTraces(t *testing.T) {
	text := `File: virec-bench
Type: cpu
Duration: 3.64s, Total samples = 5.79s (159.00%)
-----------+-------------------------------------------------------
      10ms   runtime.mapaccess1_fast64
             github.com/virec/virec/internal/mem.(*Memory).page (inline)
             github.com/virec/virec/internal/sim.(*System).Run
-----------+-------------------------------------------------------
     1.20s   github.com/virec/virec/internal/cpu.(*Core).Tick
             main.main
-----------+-------------------------------------------------------
`
	stacks := parseTraces(text)
	if len(stacks) != 2 || stacks[0].secs != 0.010 || stacks[1].secs != 1.2 {
		t.Fatalf("stacks = %+v", stacks)
	}
	if got := stacks[0].frames[1]; got != "github.com/virec/virec/internal/mem.(*Memory).page" {
		t.Errorf("inline suffix kept: %q", got)
	}
	a := attribute(stacks)
	if a.self["goruntime"] != 0.010 || a.self["cpu"] != 1.2 || a.simRun != 0.010 {
		t.Errorf("attribution = %+v", a)
	}
}
