package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// printReport writes one workload's human-readable report.
func printReport(w io.Writer, rep *workloadReport, opt options) {
	fmt.Fprintf(w, "== %s: seed %d, %d passes, %d ops, %d failed, %d unverified ==\n",
		rep.Workload, opt.seed, rep.Passes, rep.Ops, rep.Failed, rep.Unverified)
	fmt.Fprintf(w, "%-18s %-10s %12s %12s %12s %4s  %s\n", "metric", "unit", "median", "q1", "q3", "n", "95% CI of median")
	for _, m := range endToEnd {
		r, ok := rep.Metrics[m.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-18s %-10s %12.4f %12.4f %12.4f %4d  [%.4f, %.4f]\n",
			m.Name, m.Unit, r.Median, r.Q1, r.Q3, r.N, r.CI95[0], r.CI95[1])
	}
	for _, class := range sortedKeys(rep.Latency) {
		l := rep.Latency[class]
		tail := "no percentile above the median has 10 samples beyond it"
		if l.Percentile > 0 {
			tail = fmt.Sprintf("p%g %.3f ms", l.Percentile, l.ValueMS)
		}
		fmt.Fprintf(w, "latency %-10s n=%d  median %.3f ms  %s\n", class, l.N, l.MedianMS, tail)
	}
	if len(rep.Layers) > 0 {
		fmt.Fprintf(w, "per-layer (traced run; counts from the untraced run)\n")
		for _, m := range perLayer() {
			fmt.Fprintf(w, "  %-28s %-10s %.6g\n", m.Name, m.Unit, rep.Layers[m.Name])
		}
	}
	for _, c := range rep.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "OUTSIDE TOLERANCE"
		}
		fmt.Fprintf(w, "check %-48s %.4f vs %.4f (±%.0f%%) %s\n", c.Name, c.Got, c.Want, c.Tolerance*100, verdict)
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	fmt.Fprintln(w)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// loadResults reads a results.json file.
func loadResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints, per workload and end-to-end metric, both sides'
// medians and quartiles with a verdict, then the exact counts' diffs.
func compareFiles(w io.Writer, parentPath, changePath string) error {
	parent, err := loadResults(parentPath)
	if err != nil {
		return err
	}
	change, err := loadResults(changePath)
	if err != nil {
		return err
	}
	byName := map[string]*workloadReport{}
	for _, r := range change.Workloads {
		byName[r.Workload] = r
	}
	for _, p := range parent.Workloads {
		c, ok := byName[p.Workload]
		if !ok {
			fmt.Fprintf(w, "== %s: missing from %s ==\n\n", p.Workload, changePath)
			continue
		}
		fmt.Fprintf(w, "== %s ==\n", p.Workload)
		fmt.Fprintf(w, "%-18s %-10s %26s %26s  %s\n", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "verdict")
		for _, m := range endToEnd {
			pm, ok1 := p.Metrics[m.Name]
			cm, ok2 := c.Metrics[m.Name]
			if !ok1 || !ok2 {
				continue
			}
			fmt.Fprintf(w, "%-18s %-10s %26s %26s  %s\n", m.Name, m.Unit,
				fmt.Sprintf("%.4g [%.4g, %.4g]", pm.Median, pm.Q1, pm.Q3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", cm.Median, cm.Q1, cm.Q3),
				verdict(m, pm.Samples, cm.Samples))
		}
		for _, m := range perLayer() {
			pv, ok1 := p.Counters[m.Name]
			cv, ok2 := c.Counters[m.Name]
			if !m.Exact || !ok1 || !ok2 {
				continue
			}
			diff := "identical"
			if pv != cv {
				diff = fmt.Sprintf("%+.6g", cv-pv)
			}
			fmt.Fprintf(w, "count %-26s %.10g -> %.10g  %s\n", m.Name, pv, cv, diff)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Verdicts.
const (
	improved   = "improved"
	regressed  = "regressed"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// verdict judges a change's samples against the parent's under m's bound.
// A gain needs the change to win at least nine tenths of the index-paired
// samples and the medians to differ by more than the parent's
// interquartile distance. A regression is a median worse by more than the
// bound (and the floor). When the parent's own spread exceeds the bound,
// the metric is unresolved unless every change sample beats, or loses to,
// every parent sample.
func verdict(m metricDef, parent, change []float64) string {
	if len(parent) == 0 || len(change) == 0 {
		return unresolved
	}
	better := func(c, p float64) bool {
		if m.Better == "higher" {
			return c > p
		}
		return c < p
	}
	pm, cm := median(parent), median(change)
	q := quartiles(parent)
	iqr := q[2] - q[0]
	pairs := min(len(parent), len(change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	allBetter, allWorse := true, true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
			allWorse = allWorse && better(p, c)
		}
	}
	worse := cm - pm // how much worse the change reads, in the metric's unit
	if m.Better == "higher" {
		worse = -worse
	}
	limit := math.Max(m.Bound*math.Abs(pm), m.Floor)
	spreadWide := math.Abs(pm) > 0 && iqr/math.Abs(pm) > m.Bound
	switch {
	case better(cm, pm) && wins*10 >= 9*pairs && math.Abs(cm-pm) > iqr:
		return improved
	case worse > limit && (!spreadWide || allWorse):
		return regressed
	case spreadWide && !allBetter && !allWorse:
		return unresolved
	}
	return unchanged
}
