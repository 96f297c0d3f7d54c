// Command virec-bench is the simulator's benchmark harness. It times the
// four jobs the repository is used for — regenerating the paper's
// evaluation (regen), simulating stall-dominated systems (stall),
// differential verification (difftest) and farm submit→result round trips
// (farm) — checks every output, and reports each end-to-end metric with
// its median, quartiles, bootstrap interval and sample count. A traced
// rerun attributes host CPU time to the simulator's layers.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash cmd/virec-bench/run.sh                          # every workload
//	bash cmd/virec-bench/run.sh -workload stall -seed 7
//	bash cmd/virec-bench/run.sh -trace 1                 # plus per-layer metrics
//	bash cmd/virec-bench/run.sh -compare parent.json change.json
//
// Each workload runs in fresh child processes of this binary, one at a
// time. Results go to OUT/results.json; traced runs add OUT/<workload>.spans.json
// and the CPU profiles. With a single workload the last line of standard
// output is a JSON summary: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// options are the harness settings; the parent forwards them to children.
type options struct {
	root      string
	workloads []string
	seed      uint64
	seconds   int
	trace     bool
	quick     bool
	expected  string
	out       string
	compare   bool
	args      []string

	// Set by the parent on a child's command line.
	passes    int
	setupOnly bool
	t0        int64
}

func parseFlags(args []string) (options, error) {
	var opt options
	fs := flag.NewFlagSet("virec-bench", flag.ContinueOnError)
	list := strings.Join(workloadNames, ",")
	fs.Func("workload", "comma-separated workloads to run: "+list+" (default all)", func(s string) error {
		opt.workloads = strings.Split(s, ",")
		return nil
	})
	fs.Func("workloads", "same as -workload", func(s string) error {
		opt.workloads = strings.Split(s, ",")
		return nil
	})
	fs.Uint64Var(&opt.seed, "seed", 1, "input seed: stall's data seed, difftest's data seeds S..S+N-1, farm's job seeds")
	fs.IntVar(&opt.seconds, "seconds", 0, "measure each workload for at least this many seconds of passes (0: its fixed pass count)")
	trace := fs.Int("trace", 0, "1 reruns each workload traced and reports the per-layer metrics")
	fs.BoolVar(&opt.quick, "quick", false, "small inputs, for smoke tests")
	fs.StringVar(&opt.root, "root", "", "repository root (default: found from the working directory)")
	fs.StringVar(&opt.expected, "expected", "", "committed evaluation output regen checks against (default ROOT/experiments_output.txt)")
	fs.StringVar(&opt.out, "out", "", "output directory (default ROOT/.bench_build/out)")
	fs.BoolVar(&opt.compare, "compare", false, "compare two results.json files: -compare PARENT CHANGE")
	fs.IntVar(&opt.passes, "passes", 0, "run exactly this many passes (set by the parent for traced children)")
	fs.BoolVar(&opt.setupOnly, "setup-only", false, "set up, report setup_s and exit (set by the parent)")
	fs.Int64Var(&opt.t0, "t0", 0, "unix ns at which the parent started this child (set by the parent)")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	opt.args = fs.Args()
	if opt.compare {
		return opt, nil
	}
	if len(opt.args) > 0 {
		return opt, fmt.Errorf("unexpected arguments %q", opt.args)
	}
	if *trace != 0 && *trace != 1 {
		return opt, fmt.Errorf("-trace must be 0 or 1")
	}
	if opt.seconds < 0 {
		return opt, fmt.Errorf("-seconds must not be negative")
	}
	opt.trace = *trace == 1
	if opt.workloads == nil {
		opt.workloads = workloadNames
	}
	for _, w := range opt.workloads {
		if !slices.Contains(workloadNames, w) {
			return opt, fmt.Errorf("unknown workload %q (have %s)", w, list)
		}
	}
	var err error
	if opt.root == "" {
		if opt.root, err = findRoot(); err != nil {
			return opt, err
		}
	}
	if opt.expected == "" {
		opt.expected = filepath.Join(opt.root, "experiments_output.txt")
	}
	if opt.out == "" {
		opt.out = filepath.Join(opt.root, ".bench_build", "out")
	}
	return opt, nil
}

// childArgs renders opt as a child's command line.
func (o options) childArgs(workload string) []string {
	trace := "0"
	if o.trace {
		trace = "1"
	}
	return []string{
		"-workload", workload,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds),
		"-trace", trace,
		"-quick=" + strconv.FormatBool(o.quick),
		"-root", o.root,
		"-expected", o.expected,
		"-out", o.out,
		"-passes", strconv.Itoa(o.passes),
		"-setup-only=" + strconv.FormatBool(o.setupOnly),
		"-t0", strconv.FormatInt(o.t0, 10),
	}
}

// rootModule is the module the simulator's sources live in.
const rootModule = "module github.com/virec/virec\n"

// findRoot walks up from the working directory to the simulator's module.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), rootModule) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no github.com/virec/virec module above the working directory; pass -root")
		}
		dir = parent
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "virec-bench: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	if os.Getenv(childEnv) == "1" {
		childMain(os.Args[1:])
		return
	}
	opt, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "virec-bench:", err)
		os.Exit(2)
	}
	if opt.compare {
		if len(opt.args) != 2 {
			fatalf("-compare takes two results.json files: PARENT CHANGE")
		}
		if err := compareFiles(os.Stdout, opt.args[0], opt.args[1]); err != nil {
			fatalf("%v", err)
		}
		return
	}
	res, err := run(opt, os.Stdout)
	if err != nil {
		fatalf("%v", err)
	}
	if len(res.Workloads) == 1 {
		line, err := json.Marshal(summaryLine(res.Workloads[0], opt.trace))
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(line))
	}
}

// childMain runs one workload in this process and writes its report to
// standard output as JSON.
func childMain(args []string) {
	opt, err := parseFlags(args)
	if err != nil {
		fatalf("child: %v", err)
	}
	out, err := runChild(opt)
	if err != nil {
		fatalf("%v", err)
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fatalf("%v", err)
	}
}

// results is the document written to OUT/results.json.
type results struct {
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Quick     bool              `json:"quick"`
	Traced    bool              `json:"traced"`
	Host      map[string]string `json:"host"`
	Workloads []*workloadReport `json:"workloads"`
}

// workloadReport is one workload's measurements.
type workloadReport struct {
	Workload   string                   `json:"workload"`
	Passes     int                      `json:"passes"`
	Ops        int                      `json:"ops"`
	Failed     int                      `json:"failed"`
	Unverified int                      `json:"unverified"`
	Failures   []string                 `json:"failures,omitempty"`
	Metrics    map[string]metricReport  `json:"metrics"`
	Latency    map[string]latencyReport `json:"latency"`
	Counters   map[string]float64       `json:"counters"`
	Layers     map[string]float64       `json:"layers,omitempty"`
	Checks     []crossCheck             `json:"checks,omitempty"`
	// TracedOps and TracedFailed count the traced rerun's ops.
	TracedOps    int `json:"traced_ops,omitempty"`
	TracedFailed int `json:"traced_failed,omitempty"`
}

// metricReport is one end-to-end metric's samples and their summary.
type metricReport struct {
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Bound   float64   `json:"bound"`
	Floor   float64   `json:"floor,omitempty"`
	Samples []float64 `json:"samples"`
	summary
}

// latencyReport summarises pooled per-op latencies by the percentile
// rule: the median, and the highest percentile with ten samples beyond it.
type latencyReport struct {
	N          int     `json:"n"`
	MedianMS   float64 `json:"median_ms"`
	Percentile float64 `json:"percentile,omitempty"`
	ValueMS    float64 `json:"value_ms,omitempty"`
}

// crossCheck compares two measurements of the same time that must agree.
type crossCheck struct {
	Name      string  `json:"name"`
	Got       float64 `json:"got"`
	Want      float64 `json:"want"`
	Tolerance float64 `json:"tolerance"`
	OK        bool    `json:"ok"`
}

func newCheck(name string, got, want, tol float64) crossCheck {
	ok := want != 0 && math.Abs(got/want-1) <= tol
	return crossCheck{Name: name, Got: got, Want: want, Tolerance: tol, OK: ok}
}

// setupProbes is how many extra children only set up, so that setup_s is
// a median of several set-ups in every run.
func (o options) setupProbes() int {
	if o.quick {
		return 1
	}
	return 4
}

// run measures every selected workload and writes results.json.
func run(opt options, w io.Writer) (*results, error) {
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return nil, err
	}
	res := &results{Seed: opt.seed, Seconds: opt.seconds, Quick: opt.quick, Traced: opt.trace,
		Host: map[string]string{
			"cpus": strconv.Itoa(runtime.NumCPU()), "go": runtime.Version(),
			"os": runtime.GOOS, "arch": runtime.GOARCH,
		}}
	for _, name := range opt.workloads {
		rep, err := measure(opt, name)
		if err != nil {
			return nil, err
		}
		res.Workloads = append(res.Workloads, rep)
		printReport(w, rep, opt)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(opt.out, "results.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "results: %s\n", path)
	return res, nil
}

// spawn runs one child and decodes its report.
func spawn(opt options, workload string) (*childOut, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var stdout bytes.Buffer
	opt.t0 = time.Now().UnixNano()
	cmd := exec.Command(exe, opt.childArgs(workload)...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", workload, err)
	}
	var out childOut
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return nil, fmt.Errorf("%s child: bad report: %w", workload, err)
	}
	return &out, nil
}

// measure runs one workload: set-up probes, the untraced run that every
// end-to-end number comes from, and with -trace 1 the traced rerun.
func measure(opt options, name string) (*workloadReport, error) {
	var setups []float64
	probe := opt
	probe.setupOnly, probe.trace = true, false
	for range opt.setupProbes() {
		out, err := spawn(probe, name)
		if err != nil {
			return nil, err
		}
		setups = append(setups, out.SetupS)
	}
	plain := opt
	plain.trace = false
	u, err := spawn(plain, name)
	if err != nil {
		return nil, err
	}
	setups = append(setups, u.SetupS)
	rep := summarizeRun(name, u, setups, opt.seed)
	if !opt.trace {
		return rep, nil
	}
	traced := opt
	traced.passes = len(u.Passes)
	t, err := spawn(traced, name)
	if err != nil {
		return nil, err
	}
	if err := addLayers(rep, u, t); err != nil {
		return nil, err
	}
	return rep, nil
}

// summarizeRun turns the untraced child's report into end-to-end metrics.
func summarizeRun(name string, c *childOut, setups []float64, seed uint64) *workloadReport {
	rep := &workloadReport{
		Workload: name, Passes: len(c.Passes), Ops: c.Ops, Failed: c.Failed,
		Unverified: c.Unverified, Failures: c.Failures,
		Metrics: map[string]metricReport{}, Latency: map[string]latencyReport{},
		Counters: map[string]float64{},
	}
	for _, m := range endToEnd {
		if !m.reports(name) {
			continue
		}
		var xs []float64
		switch m.Name {
		case "setup_s":
			xs = setups
		case "fail_frac":
			xs = []float64{float64(c.Failed) / float64(max(c.Ops, 1))}
		default:
			for _, p := range c.Passes {
				xs = append(xs, p.Values[m.Name])
			}
		}
		rep.Metrics[m.Name] = metricReport{Unit: m.Unit, Better: m.Better, Bound: m.Bound,
			Floor: m.Floor, Samples: xs, summary: summarize(xs, seed)}
	}
	pooled := map[string][]float64{}
	for _, p := range c.Passes {
		for class, xs := range p.Lat {
			pooled[class] = append(pooled[class], xs...)
		}
	}
	for class, xs := range pooled {
		lr := latencyReport{N: len(xs), MedianMS: median(xs)}
		if p, ok := tailPercentile(len(xs)); ok {
			lr.Percentile, lr.ValueMS = p, percentile(xs, p)
		}
		rep.Latency[class] = lr
	}
	if len(c.Passes) > 0 {
		rep.Counters = c.Passes[0].Counters
	}
	return rep
}

// meanValue averages one per-pass value over a child's passes.
func meanValue(c *childOut, name string) float64 {
	var s float64
	for _, p := range c.Passes {
		s += p.Values[name]
	}
	return s / float64(max(len(c.Passes), 1))
}

// addLayers fills the per-layer metrics from the traced child t, the
// untraced child u and the traced run's CPU profiles.
func addLayers(rep *workloadReport, u, t *childOut) error {
	rep.TracedOps, rep.TracedFailed = t.Ops, t.Failed
	stacks, err := readProfiles(t.Profiles)
	if err != nil {
		return err
	}
	a := attribute(stacks)
	passes := float64(max(len(t.Passes), 1))
	l := map[string]float64{}
	for _, m := range perLayer() {
		l[m.Name] = 0
	}
	for k, v := range t.Layer {
		l[k] = v
	}
	for k, v := range rep.Counters {
		if _, ok := l[k]; ok {
			l[k] = v
		}
	}
	var hostSum float64
	for _, layer := range hostLayerOrder {
		l["host."+layer+"_s"] = a.self[layer] / passes
		hostSum += a.self[layer] / passes
	}
	uWall, uCPU := rep.Metrics["wall_s"].Median, rep.Metrics["cpu_s"].Median
	if uWall > 0 {
		l["sweep.parallel_eff"] = uCPU / (workers * uWall)
		l["trace.overhead_frac"] = meanValue(t, "wall_s")/meanValue(u, "wall_s") - 1
	}
	if ticks := l["sim.ticks"]; ticks > 0 {
		l["cost.ns_per_tick"] = l["span.sim_run_s"] * 1e9 / ticks
	}
	if insts := l["sim.insts"]; insts > 0 {
		l["cost.ns_per_inst"] = uCPU * 1e9 / insts
	}
	rep.Layers = l

	tCPU, tWall := meanValue(t, "cpu_s"), meanValue(t, "wall_s")
	rep.Checks = append(rep.Checks, newCheck("sum host.*_s vs traced cpu_s", hostSum, tCPU, 0.10))
	if rep.Workload == "regen" {
		var exp float64
		for k, v := range l {
			if strings.HasPrefix(k, "span.exp.") {
				exp += v
			}
		}
		rep.Checks = append(rep.Checks, newCheck("sum span.exp.*_s vs traced wall_s", exp, tWall, 0.05))
	}
	if l["span.sim_run_s"] > 0 {
		rep.Checks = append(rep.Checks, newCheck("span.sim_run_s vs profile cum (*sim.System).Run",
			l["span.sim_run_s"], a.simRun/passes, 0.10))
	}
	return nil
}

// summaryMetric is one metric in the summary line.
type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summaryLine is the one-line JSON summary of a single-workload run:
// the gated end-to-end metrics, or with -trace 1 the per-layer metrics.
func summaryLine(rep *workloadReport, traced bool) any {
	metrics := map[string]summaryMetric{}
	finite := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return v
	}
	if traced {
		for _, m := range perLayer() {
			metrics[m.Name] = summaryMetric{finite(rep.Layers[m.Name]), m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			if m.Gated {
				metrics[m.Name] = summaryMetric{finite(rep.Metrics[m.Name].Median), m.Unit}
			}
		}
	}
	failed := rep.Failed + rep.TracedFailed
	return struct {
		Correct   bool                     `json:"correct"`
		Attempted int                      `json:"attempted"`
		Failed    int                      `json:"failed"`
		Metrics   map[string]summaryMetric `json:"metrics"`
	}{failed == 0, rep.Ops + rep.TracedOps, failed, metrics}
}
