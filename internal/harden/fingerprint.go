// Crash fingerprinting: a stable, short identity for a panic that lets
// infrastructure above the simulator (the simulation farm's job
// failures, CI triage) distinguish "the same deterministic bug again"
// from "a different failure", without diffing multi-kilobyte stack dumps.
// The fingerprint is the panic message plus the innermost non-runtime
// frame — both reproduce exactly for a deterministic crash, while
// addresses, goroutine ids and the surrounding frames (which vary with
// the caller) are excluded.
package harden

import (
	"bytes"
	"fmt"
	"path"
	"strings"
)

// CrashSite extracts the innermost application frame from a
// runtime/debug.Stack dump: the function that panicked, with its file
// and line, rendered as "pkg.Func (file.go:123)". Frames belonging to
// the runtime (panic plumbing, signal handlers) and to debug.Stack
// itself are skipped, as is the recovery wrapper that captured the
// stack. The empty string is returned when no frame qualifies.
func CrashSite(stack []byte) string {
	lines := strings.Split(string(bytes.TrimSpace(stack)), "\n")
	// A debug.Stack dump alternates "pkg.Func(args)" function lines with
	// "\tfile.go:123 +0xNN" location lines after the goroutine header.
	// Everything from the recovery site down to runtime.gopanic is
	// capture machinery; the first frame past gopanic is the panic site
	// (skipping runtime helpers like panicmem/sigpanic). When no gopanic
	// frame is present (a stack captured directly, not via recover), the
	// first non-runtime frame wins.
	type frame struct{ fn, loc string }
	var frames []frame
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if strings.HasPrefix(line, "goroutine ") || strings.HasPrefix(line, "\t") {
			continue
		}
		f := frame{fn: strings.TrimSpace(line)}
		if i+1 < len(lines) && strings.HasPrefix(lines[i+1], "\t") {
			f.loc = strings.TrimSpace(lines[i+1])
		}
		frames = append(frames, f)
	}
	start := 0
	for i, f := range frames {
		if strings.HasPrefix(f.fn, "panic(") || strings.HasPrefix(f.fn, "runtime.gopanic") {
			start = i + 1
		}
	}
	for _, f := range frames[start:] {
		if isRuntimeFrame(f.fn) {
			continue
		}
		return fmt.Sprintf("%s (%s)", trimCallArgs(f.fn), trimLocation(f.loc))
	}
	return ""
}

// isRuntimeFrame reports whether a function line belongs to the runtime
// or the stack-capture machinery rather than application code.
func isRuntimeFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") ||
		strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "panic(")
}

// trimCallArgs strips the argument list from a stack-trace function
// line: "pkg.(*T).Method(0xc000.., 0x1)" -> "pkg.(*T).Method".
func trimCallArgs(fn string) string {
	if i := strings.IndexByte(fn, '('); i > 0 {
		// Keep a receiver's parenthesised type: find the last '(' that
		// starts the argument list, i.e. the one following the final dot.
		if j := strings.LastIndexByte(fn, '.'); j >= 0 {
			if k := strings.IndexByte(fn[j:], '('); k >= 0 {
				return fn[:j+k]
			}
		}
		return fn[:i]
	}
	return fn
}

// trimLocation reduces "\t/path/to/file.go:123 +0x1b" to "file.go:123".
func trimLocation(loc string) string {
	if loc == "" {
		return "?"
	}
	if i := strings.IndexByte(loc, ' '); i > 0 {
		loc = loc[:i]
	}
	return path.Base(loc)
}

// Fingerprint composes the stable crash identity: the panic message and
// the crash site. Two runs of the same deterministic bug produce equal
// fingerprints; unrelated failures differ in message, site, or both.
func Fingerprint(panicValue any, stack []byte) string {
	site := CrashSite(stack)
	if site == "" {
		return fmt.Sprintf("%v", panicValue)
	}
	return fmt.Sprintf("%v @ %s", panicValue, site)
}
