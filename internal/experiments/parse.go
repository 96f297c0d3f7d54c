package experiments

import (
	"fmt"
	"strings"

	"github.com/virec/virec/internal/stats"
)

// ParseText reads the text format back into reports: the concatenation
// of Render("text") over any number of reports, as `virec-experiments
// -exp all` prints it and experiments_output.txt holds it. Rendering the
// result again reproduces the input byte for byte. Each table's column
// spans come from its dash row, since stats.Table.String pads every cell
// to them and a cell may itself contain spaces.
func ParseText(text string) ([]*Report, error) {
	lines := strings.Split(text, "\n")
	if lines[len(lines)-1] != "" {
		return nil, fmt.Errorf("experiments: text does not end in a newline")
	}
	lines = lines[:len(lines)-1]
	i := 0
	fail := func(format string, args ...any) ([]*Report, error) {
		return nil, fmt.Errorf("experiments: line %d: %s", i+1, fmt.Sprintf(format, args...))
	}
	var reps []*Report
	for i < len(lines) {
		head, ok := strings.CutPrefix(lines[i], "== ")
		head, ok2 := strings.CutSuffix(head, " ==")
		name, title, ok3 := strings.Cut(head, ": ")
		if !ok || !ok2 || !ok3 {
			return fail("want a report header \"== name: title ==\", got %q", lines[i])
		}
		rep := &Report{Name: name, Title: title}
		reps = append(reps, rep)
		i++
		// Each table and the notes follow a blank line; a blank line
		// before the next header or the end closes the report.
		for {
			if i == len(lines) || lines[i] != "" {
				return fail("want a blank line")
			}
			i++
			if i == len(lines) || strings.HasPrefix(lines[i], "== ") {
				break
			}
			if strings.HasPrefix(lines[i], "note: ") {
				for ; i < len(lines) && lines[i] != ""; i++ {
					note, ok := strings.CutPrefix(lines[i], "note: ")
					if !ok {
						return fail("want a note, got %q", lines[i])
					}
					rep.Notes = append(rep.Notes, note)
				}
				if i == len(lines) {
					return fail("want a blank line after the notes")
				}
				i++
				break
			}
			if i+1 == len(lines) {
				return fail("table header without a dash row")
			}
			spans, ok := dashSpans(lines[i+1])
			if !ok {
				i++
				return fail("want a dash row, got %q", lines[i])
			}
			tb := stats.NewTable(cells(lines[i], spans)...)
			for i += 2; i < len(lines) && lines[i] != ""; i++ {
				row := cells(lines[i], spans)
				vals := make([]any, len(row))
				for j, c := range row {
					vals[j] = c
				}
				tb.AddRow(vals...)
			}
			rep.Tables = append(rep.Tables, tb)
		}
	}
	return reps, nil
}

// dashSpans returns the [start, end) offsets of the dash runs of a
// table's dash row, which are two spaces apart.
func dashSpans(line string) ([][2]int, bool) {
	var spans [][2]int
	start := 0
	for _, run := range strings.Split(line, "  ") {
		if run == "" || strings.Trim(run, "-") != "" {
			return nil, false
		}
		spans = append(spans, [2]int{start, start + len(run)})
		start += len(run) + 2
	}
	return spans, true
}

// cells cuts a header or row line into its cells at the column spans,
// dropping the padding after each. Spans count runes, as the padding does.
func cells(line string, spans [][2]int) []string {
	r := []rune(line)
	out := make([]string, len(spans))
	for j, s := range spans {
		lo, hi := min(s[0], len(r)), min(s[1], len(r))
		out[j] = strings.TrimRight(string(r[lo:hi]), " ")
	}
	return out
}
