// Command virec-telemetry-check validates the machine-readable telemetry
// artifacts virec-sim and virec-experiments emit, so CI can gate on their
// structure without external JSON tooling:
//
//   - -chrome FILE: a Chrome trace_event JSON array. Every element must be
//     an object with name/ph/pid/tid, instants and metadata carry a ts or
//     args, and "X" complete events carry ts+dur.
//   - -jsonl FILE: an event-per-line trace. Every line must decode with
//     cycle/kind/core/thread fields, and cycles must be non-decreasing up
//     to one cycle of component clock skew (the dcache stamps Access-path
//     pin events with its own clock, which trails the cores by a cycle).
//   - -metrics FILE: one or more registry snapshots (a single JSON
//     document, JSONL, or the data lines of a recorded virec-farm
//     /api/v1/metrics/stream). Every histogram must pass
//     telemetry.HistSnapshot.Validate: len(counts) == len(bounds)+1,
//     ascending bounds, sum(counts) == count and min <= max. Counters
//     are monotone: a counter lower than in the previous document is
//     rejected.
//
// Any violation prints a diagnostic and exits non-zero. Multiple flags
// may be combined; each file is validated independently.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"

	"github.com/virec/virec/internal/telemetry"
)

func main() {
	var (
		chrome  = flag.String("chrome", "", "validate a Chrome trace_event JSON file")
		jsonl   = flag.String("jsonl", "", "validate a JSONL event trace file")
		metrics = flag.String("metrics", "", "validate a metrics snapshot file (JSON or JSONL)")
	)
	flag.Parse()
	if *chrome == "" && *jsonl == "" && *metrics == "" {
		fmt.Fprintln(os.Stderr, "virec-telemetry-check: nothing to check; pass -chrome, -jsonl and/or -metrics")
		os.Exit(2)
	}

	ok := true
	if *chrome != "" {
		ok = report("chrome", *chrome, checkChrome(*chrome)) && ok
	}
	if *jsonl != "" {
		ok = report("jsonl", *jsonl, checkJSONL(*jsonl)) && ok
	}
	if *metrics != "" {
		ok = report("metrics", *metrics, checkMetrics(*metrics)) && ok
	}
	if !ok {
		os.Exit(1)
	}
}

func report(kind, path string, err error) bool {
	if err != nil {
		fmt.Fprintf(os.Stderr, "virec-telemetry-check: %s %s: %v\n", kind, path, err)
		return false
	}
	fmt.Printf("virec-telemetry-check: %s %s: ok\n", kind, path)
	return true
}

// chromeEvent is the subset of the trace_event format the simulator emits.
type chromeEvent struct {
	Name string          `json:"name"`
	Ph   string          `json:"ph"`
	Pid  *int            `json:"pid"`
	Tid  *int            `json:"tid"`
	Ts   *float64        `json:"ts"`
	Dur  *float64        `json:"dur"`
	Args json.RawMessage `json:"args"`
}

func checkChrome(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var evs []chromeEvent
	if err := json.Unmarshal(data, &evs); err != nil {
		return fmt.Errorf("not a JSON array of events: %w", err)
	}
	if len(evs) == 0 {
		return fmt.Errorf("empty trace")
	}
	spans, instants, metas := 0, 0, 0
	for i, e := range evs {
		if e.Name == "" || e.Ph == "" || e.Pid == nil || e.Tid == nil {
			return fmt.Errorf("event %d: missing name/ph/pid/tid: %+v", i, e)
		}
		switch e.Ph {
		case "X":
			if e.Ts == nil || e.Dur == nil {
				return fmt.Errorf("event %d: complete event without ts+dur", i)
			}
			spans++
		case "i":
			if e.Ts == nil {
				return fmt.Errorf("event %d: instant without ts", i)
			}
			instants++
		case "M":
			if len(e.Args) == 0 {
				return fmt.Errorf("event %d: metadata without args", i)
			}
			metas++
		default:
			return fmt.Errorf("event %d: unexpected phase %q", i, e.Ph)
		}
	}
	fmt.Printf("  %d events: %d spans, %d instants, %d metadata\n", len(evs), spans, instants, metas)
	return nil
}

// jsonlEvent mirrors the fixed field set telemetry.WriteEventsJSONL emits.
type jsonlEvent struct {
	Cycle  *uint64 `json:"cycle"`
	Kind   *string `json:"kind"`
	Core   *int32  `json:"core"`
	Thread *int32  `json:"thread"`
}

func checkJSONL(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var n int
	var lastCycle uint64
	for sc.Scan() {
		n++
		var e jsonlEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return fmt.Errorf("line %d: %w", n, err)
		}
		if e.Cycle == nil || e.Kind == nil || e.Core == nil || e.Thread == nil {
			return fmt.Errorf("line %d: missing cycle/kind/core/thread", n)
		}
		if *e.Cycle+1 < lastCycle {
			return fmt.Errorf("line %d: cycle %d after %d (beyond one cycle of clock skew)", n, *e.Cycle, lastCycle)
		}
		if *e.Cycle > lastCycle {
			lastCycle = *e.Cycle
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("empty trace")
	}
	fmt.Printf("  %d events, last cycle %d\n", n, lastCycle)
	return nil
}

func checkMetrics(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	// A snapshot file is either one (possibly indented) JSON document or a
	// stream of compact documents (JSONL); a streaming decoder reads both.
	dec := json.NewDecoder(f)
	var docs int
	var prev map[string]uint64
	for dec.More() {
		var s telemetry.Snapshot
		if err := dec.Decode(&s); err != nil {
			return fmt.Errorf("snapshot %d: %w", docs+1, err)
		}
		docs++
		if len(s.Counters) == 0 {
			return fmt.Errorf("snapshot %d: no counters", docs)
		}
		// Walk names in sorted order so the first error reported does not
		// depend on map iteration order.
		for _, name := range slices.Sorted(maps.Keys(s.Counters)) {
			if old, ok := prev[name]; ok && s.Counters[name] < old {
				return fmt.Errorf("snapshot %d: counter %s fell from %d to %d", docs, name, old, s.Counters[name])
			}
		}
		for _, name := range slices.Sorted(maps.Keys(s.Histograms)) {
			h := s.Histograms[name]
			if err := h.Validate(); err != nil {
				return fmt.Errorf("snapshot %d: histogram %s: %w", docs, name, err)
			}
		}
		prev = s.Counters
	}
	if docs == 0 {
		return fmt.Errorf("no snapshots")
	}
	fmt.Printf("  %d snapshot(s)\n", docs)
	return nil
}
