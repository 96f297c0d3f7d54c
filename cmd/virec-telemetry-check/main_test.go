package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestChecks runs each validator on one well-formed artifact and on
// malformed ones, which must fail with the named defect.
func TestChecks(t *testing.T) {
	for _, tc := range []struct {
		name    string
		check   func(path string) error
		fixture string
		want    string // "" = must pass, else a substring of the error
	}{
		{"chrome ok", checkChrome, `[
			{"name":"thread_name","ph":"M","pid":0,"tid":100,"args":{"name":"t0"}},
			{"name":"run","ph":"X","pid":0,"tid":100,"ts":0,"dur":12},
			{"name":"switch","ph":"i","pid":0,"tid":1,"ts":12}]`, ""},
		{"chrome span without dur", checkChrome,
			`[{"name":"run","ph":"X","pid":0,"tid":100,"ts":0}]`, "complete event without ts+dur"},

		{"jsonl ok", checkJSONL,
			`{"cycle":5,"kind":"switch","core":0,"thread":1}
{"cycle":4,"kind":"pin","core":0,"thread":1}
{"cycle":9,"kind":"fill","core":0,"thread":2}
`, ""},
		{"jsonl cycle goes back", checkJSONL,
			`{"cycle":9,"kind":"switch","core":0,"thread":1}
{"cycle":7,"kind":"pin","core":0,"thread":1}
`, "beyond one cycle of clock skew"},

		{"metrics ok", checkMetrics,
			`{"cycle":0,"counters":{"farm/completed":1,"farm/submitted":2},"gauges":{"farm/running":1},"histograms":{}}
{"cycle":0,"counters":{"farm/completed":2,"farm/submitted":2},"gauges":{"farm/running":0},"histograms":{"lat":{"bounds":[10],"counts":[1,0],"count":1,"sum":4,"min":4,"max":4}}}
`, ""},
		{"metrics counter falls", checkMetrics,
			`{"counters":{"farm/completed":3,"farm/submitted":3}}
{"counters":{"farm/completed":2,"farm/submitted":1}}
`, "snapshot 2: counter farm/completed fell from 3 to 2"},
		{"metrics bad histogram", checkMetrics,
			`{"counters":{"c":1},"histograms":{"lat":{"bounds":[10],"counts":[1,1],"count":3}}}`,
			"histogram lat: bucket sum 2 != count 3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "artifact")
			if err := os.WriteFile(path, []byte(tc.fixture), 0o644); err != nil {
				t.Fatal(err)
			}
			err := tc.check(path)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected a well-formed artifact: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}
