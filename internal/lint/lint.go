// Package lint is the simulator's static-analysis suite: a custom
// analyzer that mechanically enforces an invariant established by hand,
// byte-identical serial/parallel experiment output (determinism).
// Allocation-free tick paths are not checked here: runtime allocation
// gates measure them, through the interface and func-value calls a static
// walk cannot follow (DESIGN.md §10).
//
// The suite is built on the standard library's go/parser + go/types only.
// The usual foundation for custom vet passes, golang.org/x/tools/go/analysis,
// is deliberately not used: the repository vendors no third-party modules,
// and the loader in load.go (go list -export + the gc importer) provides
// the same type information from the toolchain's own export data. The
// Analyzer/Pass shapes below mirror go/analysis closely enough that
// porting to the upstream framework later is mechanical.
//
// Analyzers communicate findings as Diagnostics; cmd/virec-lint renders
// them like vet ("file:line:col: message [analyzer]") and exits non-zero
// when any are reported.
//
// # Directives
//
// Source comments steer the analyzer:
//
//	//virec:nondet-ok    on (or immediately above) a map-range statement:
//	                     the iteration's effects are order-independent in a
//	                     way the analyzer cannot prove.
//	//virec:wallclock-ok on (or immediately above) a time.Now, Since or
//	                     Until call: the reading never reaches simulation
//	                     state or result bytes.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one analysis pass.
type Analyzer struct {
	Name string
	Doc  string
	// Run inspects the whole loaded program (every target package) and
	// reports findings through pass.Report.
	Run func(pass *Pass)
}

// Pass carries the loaded program into an analyzer run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*Package

	diags *[]Diagnostic
}

// Report records one finding.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one rendered finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// All returns the suite in a fixed order.
func All() []*Analyzer {
	return []*Analyzer{Determinism}
}

// Run executes the given analyzers over the loaded packages and returns
// every diagnostic sorted by position then analyzer name.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Fset: fset, Pkgs: pkgs, diags: &diags}
		a.Run(pass)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// ---- directive comments ----

// directives holds, per file, the lines carrying each //virec: directive.
// A directive suppresses findings on the statement that starts on the same
// line or on the line directly below the comment.
type directives struct {
	fset  *token.FileSet
	lines map[string]map[int]string // filename -> line -> directive name
}

// newDirectives scans every comment in the package set once.
func newDirectives(fset *token.FileSet, pkgs []*Package) *directives {
	d := &directives{fset: fset, lines: make(map[string]map[int]string)}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					name, ok := parseDirective(c.Text)
					if !ok {
						continue
					}
					pos := fset.Position(c.Pos())
					m := d.lines[pos.Filename]
					if m == nil {
						m = make(map[int]string)
						d.lines[pos.Filename] = m
					}
					m[pos.Line] = name
				}
			}
		}
	}
	return d
}

// parseDirective extracts the name of a //virec:NAME comment ("" when the
// comment is not a virec directive). Anything after the name (a reason)
// is ignored.
func parseDirective(text string) (string, bool) {
	const prefix = "//virec:"
	if !strings.HasPrefix(text, prefix) {
		return "", false
	}
	rest := strings.TrimPrefix(text, prefix)
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	if rest == "" {
		return "", false
	}
	return rest, true
}

// has reports whether pos's line, or the line above it, carries the named
// directive.
func (d *directives) has(pos token.Pos, name string) bool {
	p := d.fset.Position(pos)
	m := d.lines[p.Filename]
	if m == nil {
		return false
	}
	return m[p.Line] == name || m[p.Line-1] == name
}

// isBuiltinCall reports whether call invokes the named builtin (and not a
// shadowing declaration).
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}
