package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestQuietCleanSweepPrintsSummary runs the command with -q over two
// seeds and one scenario. A clean sweep prints the summary line and
// nothing else: the seed count, the commits compared and 0 divergences.
func TestQuietCleanSweepPrintsSummary(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-q", "-n", "2", "-parallel", "1", "-scenarios", "virec/Belady/t4/ctx50", "-out", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != exitClean {
		t.Fatalf("exit %d, want %d; stderr:\n%s", code, exitClean, stderr.String())
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "difftest: 2 seeds, ") || !strings.Contains(out, " 0 divergences, 0 harness crashes\n") {
		t.Errorf("stdout = %q, want the summary of 2 seeds with 0 divergences", out)
	}
	if strings.Count(out, "\n") != 1 || strings.Contains(out, " 0 commits compared") {
		t.Errorf("stdout = %q, want one summary line with commits compared", out)
	}
}

// TestBadArgumentsAreUsageErrors: a bad flag or flag value exits 1.
func TestBadArgumentsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-bogus"},
		{"-n", "2", "-skipahead", "sometimes"},
		{"-n", "2", "-scenarios", "virec/t4"},
		{},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != exitUsage {
			t.Errorf("%q: exit %d, want %d", args, code, exitUsage)
		}
		if stderr.Len() == 0 {
			t.Errorf("%q: no message on stderr", args)
		}
	}
}
