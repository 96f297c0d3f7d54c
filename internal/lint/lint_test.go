package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// want is one expectation parsed from a testdata source comment of the
// form `// want "substring"`: the analyzer must report a diagnostic on
// that line whose message contains the substring.
type want struct {
	file   string // base name
	line   int
	substr string
	hit    bool
}

var wantRE = regexp.MustCompile(`// want "([^"]+)"`)

func parseWants(t *testing.T, dir string) []*want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if m := wantRE.FindStringSubmatch(line); m != nil {
				wants = append(wants, &want{file: e.Name(), line: i + 1, substr: m[1]})
			}
		}
	}
	return wants
}

// TestAnalyzers checks each analyzer against its seeded-bad testdata
// package: every `// want` line must produce a matching diagnostic, and
// no diagnostic may appear without a matching `// want`.
func TestAnalyzers(t *testing.T) {
	cases := []struct {
		dir      string
		analyzer *Analyzer
	}{
		{"det", Determinism},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", tc.dir)
			fset, pkgs, err := Load(dir, ".")
			if err != nil {
				t.Fatal(err)
			}
			diags := Run(fset, pkgs, []*Analyzer{tc.analyzer})
			wants := parseWants(t, dir)
			if len(wants) == 0 {
				t.Fatalf("no // want expectations found in %s", dir)
			}
			for _, d := range diags {
				matched := false
				for _, w := range wants {
					if !w.hit && w.file == filepath.Base(d.Pos.Filename) &&
						w.line == d.Pos.Line && strings.Contains(d.Message, w.substr) {
						w.hit = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range wants {
				if !w.hit {
					t.Errorf("%s:%d: expected diagnostic containing %q, got none", w.file, w.line, w.substr)
				}
			}
		})
	}
}

// TestTreeIsClean runs the full suite over the entire module and demands
// zero findings — the acceptance bar cmd/virec-lint enforces in CI.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	fset, pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(fset, pkgs, All())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
