package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

func TestNamesComplete(t *testing.T) {
	want := []string{"ablations", "extensions", "fig1", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig2", "fig9", "headline", "hints", "mix", "table1"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", Options{}); err == nil {
		t.Error("unknown experiment must error")
	}
}

func TestAllExperimentsQuick(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			rep, err := Run(name, Options{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Name != name || len(rep.Tables) == 0 {
				t.Errorf("report incomplete: %+v", rep)
			}
			for _, tb := range rep.Tables {
				if tb.Len() == 0 {
					t.Error("empty table in report")
				}
			}
			out := rep.String()
			if !strings.Contains(out, name) {
				t.Error("String() missing name")
			}
			if Title(name) == "" {
				t.Error("missing title")
			}
		})
	}
}

// extractCol pulls a numeric column from a rendered report table by
// re-running; instead we verify shapes through dedicated experiments
// below using the raw runs (kept quick).

func TestFig1Shape(t *testing.T) {
	rep, err := Run("fig1", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// The OoO note must report a speedup over InO at a large area cost.
	found := false
	for _, n := range rep.Notes {
		if strings.Contains(n, "OoO achieves") {
			found = true
		}
	}
	if !found {
		t.Errorf("fig1 notes missing OoO summary: %v", rep.Notes)
	}
}

func TestFig12Shape(t *testing.T) {
	rep, err := Run("fig12", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 2 {
		t.Fatalf("fig12 wants per-workload + mean tables, got %d", len(rep.Tables))
	}
	for _, n := range rep.Notes {
		if !strings.Contains(n, "LRC") {
			t.Errorf("fig12 note missing LRC: %q", n)
		}
	}
}

func TestTable1Static(t *testing.T) {
	rep, err := Run("table1", Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, want := range []string{"2 GHz", "8 KB", "DDR5", "LRC", "ping-pong"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 missing %q", want)
		}
	}
}

func TestReportCSVAndJSON(t *testing.T) {
	rep, err := Run("table1", Options{})
	if err != nil {
		t.Fatal(err)
	}
	csv := rep.CSV()
	if !strings.Contains(csv, "# table1 table 0") || !strings.Contains(csv, "parameter,") {
		t.Errorf("CSV malformed:\n%s", csv)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Name   string `json:"name"`
		Tables []struct {
			Header []string   `json:"header"`
			Rows   [][]string `json:"rows"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(out, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Name != "table1" || len(decoded.Tables) == 0 || len(decoded.Tables[0].Rows) == 0 {
		t.Errorf("JSON incomplete: %+v", decoded)
	}
}

// TestRenderFormats pins the bytes virec-experiments prints for each
// format, and that any other format is an error before anything runs.
func TestRenderFormats(t *testing.T) {
	rep, err := Run("table1", Options{})
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for format, want := range map[string]string{
		"":     rep.String() + "\n",
		"text": rep.String() + "\n",
		"csv":  rep.CSV(),
		"json": string(js) + "\n",
	} {
		if err := CheckFormat(format); err != nil {
			t.Errorf("CheckFormat(%q) = %v", format, err)
		}
		got, err := rep.Render(format)
		if err != nil || string(got) != want {
			t.Errorf("Render(%q) = %.80q, %v; want %.80q", format, got, err, want)
		}
	}
	for _, format := range []string{"xml", "TEXT", "csv "} {
		if err := CheckFormat(format); err == nil || !strings.Contains(err.Error(), "unknown format") {
			t.Errorf("CheckFormat(%q) = %v, want an unknown-format error", format, err)
		}
		if out, err := rep.Render(format); err == nil {
			t.Errorf("Render(%q) = %.80q, want an error", format, out)
		}
	}
}

// TestParseTextRoundTrip: the committed output parses into one report per
// experiment, cells with spaces intact, and rendering the reports again
// reproduces the file byte for byte.
func TestParseTextRoundTrip(t *testing.T) {
	data, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	reps, err := ParseText(string(data))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	names := make([]string, len(reps))
	for i, rep := range reps {
		out, err := rep.Render("text")
		if err != nil {
			t.Fatal(err)
		}
		b.Write(out)
		names[i] = rep.Name
	}
	if b.String() != string(data) {
		t.Fatal("rendering the parsed reports does not reproduce experiments_output.txt")
	}
	if fmt.Sprint(names) != fmt.Sprint(Names()) {
		t.Errorf("parsed reports %v, want one per experiment %v", names, Names())
	}
	if got := reps[0].Tables[0].Rows()[0][0]; got != "full virec (60% ctx)" {
		t.Errorf("first ablation row is %q, want %q", got, "full virec (60% ctx)")
	}
	// Malformed text is an error; the empty text and a report with
	// neither tables nor notes are well formed.
	for _, bad := range []string{
		"no header\n",
		"== fig1: title ==",
		"== fig1: title ==\n",
		"== fig1: title ==\n\nconfig  perf\n",
		"== fig1: title ==\n\nconfig  perf\n------ ----\n\n",
		"== fig1: title ==\n\nnote: a\n",
		"== fig1: title ==\n\nnote: a\nnot a note\n\n",
	} {
		if _, err := ParseText(bad); err == nil {
			t.Errorf("ParseText(%q) accepted malformed text", bad)
		}
	}
	for _, good := range []string{"", "== fig1: title ==\n\n"} {
		reps, err := ParseText(good)
		var b strings.Builder
		for _, rep := range reps {
			out, _ := rep.Render("text")
			b.Write(out)
		}
		if err != nil || b.String() != good {
			t.Errorf("ParseText(%q) = %d reports rendering %q, %v", good, len(reps), b.String(), err)
		}
	}
}
