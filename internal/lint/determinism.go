package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Determinism enforces the byte-identity contract: the same configuration
// must produce the same bytes on every run, serial or parallel. Two rule
// families:
//
//  1. Unordered map iteration with order-sensitive effects. Ranging over a
//     map is fine when the loop's effects commute (writing another map,
//     counting); it is a silent nondeterminism bug when the body appends
//     to a slice that is never sorted, builds strings, accumulates
//     floating point, performs output (fmt/io/os/bufio, telemetry, stats
//     tables), or returns early — the first-match result then depends on
//     Go's randomized map order. Collecting keys into a slice that is
//     subsequently passed to sort/slices is recognized as the safe
//     extraction idiom.
//
//  2. Ambient entropy: time.Now/Since/Until and the globally-seeded
//     top-level math/rand functions. All simulator randomness must flow
//     from explicitly seeded generators (the harden package's injector
//     seeds, the workloads splitmix rng); package internal/harden itself
//     is exempt, as the designated owner of seed plumbing.
//
// A `//virec:nondet-ok` directive on (or above) a range statement
// suppresses rule 1 for that loop. A `//virec:wallclock-ok` directive on
// (or above) a clock call suppresses rule 2's time checks for code that
// legitimately observes wall-clock time without feeding it into
// simulation state, such as operational timestamps on farm lifecycle
// events. The directive is a claim the
// reviewer can grep for: the timestamp never reaches result bytes.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "flags unordered map iteration with order-sensitive effects and ambient time/rand entropy",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) {
	dirs := newDirectives(pass.Fset, pass.Pkgs)
	for _, pkg := range pass.Pkgs {
		exemptEntropy := strings.HasSuffix(pkg.PkgPath, "internal/harden")
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.RangeStmt:
					checkMapRange(pass, pkg, dirs, file, n)
				case *ast.SelectorExpr:
					if !exemptEntropy {
						checkEntropy(pass, pkg, dirs, n)
					}
				}
				return true
			})
		}
	}
}

// entropyAllowed lists math/rand names that construct explicitly-seeded
// generators rather than consuming the global source.
var entropyAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// checkEntropy flags references to time.Now-style clocks and top-level
// math/rand functions.
func checkEntropy(pass *Pass, pkg *Package, dirs *directives, sel *ast.SelectorExpr) {
	obj, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return
	}
	if sig, ok := obj.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods on rand.Rand etc. operate on a seeded instance
	}
	switch obj.Pkg().Path() {
	case "time":
		switch obj.Name() {
		case "Now", "Since", "Until":
			if dirs.has(sel.Pos(), "wallclock-ok") {
				return
			}
			pass.Report(sel.Pos(), "call to time.%s: simulation state must not depend on wall-clock time", obj.Name())
		}
	case "math/rand", "math/rand/v2":
		if !entropyAllowed[obj.Name()] {
			pass.Report(sel.Pos(), "call to global %s.%s: use an explicitly seeded generator (see internal/harden)",
				obj.Pkg().Name(), obj.Name())
		}
	}
}

// mapRangeEffect is one order-sensitive consequence of a map-range body.
type mapRangeEffect struct {
	pos token.Pos
	msg string
	// appendTo is set for slice-append effects; the loop is safe if this
	// variable is sorted after the loop.
	appendTo *types.Var
}

// checkMapRange analyzes one range statement over a map.
func checkMapRange(pass *Pass, pkg *Package, dirs *directives, file *ast.File, rng *ast.RangeStmt) {
	tv, ok := pkg.Info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if dirs.has(rng.Pos(), "nondet-ok") {
		return
	}
	effects := collectEffects(pkg, rng)
	for _, e := range effects {
		if e.appendTo != nil && sortedAfter(pkg, file, rng, e.appendTo) {
			continue // sorted-key extraction idiom
		}
		msg := e.msg
		if e.appendTo != nil {
			msg = "appends to " + e.appendTo.Name() + " which is never sorted afterwards"
		}
		pass.Report(e.pos, "iteration over unordered map is order-sensitive: %s", msg)
		return // one report per loop is enough
	}
}

// collectEffects walks a map-range body for order-sensitive operations.
func collectEffects(pkg *Package, rng *ast.RangeStmt) []mapRangeEffect {
	var effects []mapRangeEffect
	declaredOutside := func(id *ast.Ident) *types.Var {
		obj := pkg.Info.Uses[id]
		if obj == nil {
			obj = pkg.Info.Defs[id]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return nil
		}
		if v.Pos() >= rng.Pos() && v.Pos() < rng.End() {
			return nil // loop-local accumulation resets every iteration
		}
		return v
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			// Failure paths do not count as output: a panic's message may
			// be formatted however it likes.
			if isBuiltinCall(pkg.Info, n, "panic") {
				return false
			}
			if msg := orderSensitiveCall(pkg, n); msg != "" {
				effects = append(effects, mapRangeEffect{pos: n.Pos(), msg: msg})
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				v := declaredOutside(id)
				if v == nil {
					continue
				}
				switch {
				case n.Tok == token.ASSIGN && i < len(n.Rhs) && isAppendTo(pkg, n.Rhs[i], v):
					effects = append(effects, mapRangeEffect{pos: n.Pos(), appendTo: v})
				case n.Tok != token.ASSIGN && n.Tok != token.DEFINE && isString(v.Type()):
					effects = append(effects, mapRangeEffect{pos: n.Pos(),
						msg: "builds string " + v.Name() + " in map order"})
				case n.Tok != token.ASSIGN && n.Tok != token.DEFINE && isFloat(v.Type()):
					effects = append(effects, mapRangeEffect{pos: n.Pos(),
						msg: "accumulates float " + v.Name() + " (float addition is not associative)"})
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if !isTrivialResult(pkg, res) {
					effects = append(effects, mapRangeEffect{pos: n.Pos(),
						msg: "returns from inside the loop, so the result depends on which key is visited first"})
					break
				}
			}
		}
		return true
	}
	ast.Inspect(rng.Body, walk)
	return effects
}

// orderSensitiveCall reports why a call inside a map range is
// order-sensitive ("" when it is not). Output packages and the simulator's
// own accumulation APIs (telemetry, stats tables) qualify.
func orderSensitiveCall(pkg *Package, call *ast.CallExpr) string {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[fun.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	path := fn.Pkg().Path()
	switch {
	case path == "fmt" || path == "io" || path == "os" || path == "bufio":
		return "performs output via " + fn.Pkg().Name() + "." + fn.Name()
	case strings.HasSuffix(path, "internal/telemetry") || strings.HasSuffix(path, "internal/stats"):
		return "feeds " + fn.Pkg().Name() + "." + fn.Name() + " in map order"
	case path == "strings" || path == "bytes":
		if strings.HasPrefix(fn.Name(), "Write") {
			return "builds output via " + fn.Pkg().Name() + " buffer writes"
		}
	}
	return ""
}

// isAppendTo reports whether expr is append(v, ...).
func isAppendTo(pkg *Package, expr ast.Expr, v *types.Var) bool {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	if len(call.Args) == 0 {
		return false
	}
	base, ok := call.Args[0].(*ast.Ident)
	return ok && pkg.Info.Uses[base] == v
}

// sortedAfter reports whether v is passed to a sort/slices call in the
// statements following rng within the same function.
func sortedAfter(pkg *Package, file *ast.File, rng *ast.RangeStmt, v *types.Var) bool {
	fn := enclosingFunc(file, rng.Pos())
	if fn == nil {
		return false
	}
	sorted := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok || obj.Pkg() == nil {
			return true
		}
		if p := obj.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && pkg.Info.Uses[id] == v {
					sorted = true
				}
				return !sorted
			})
		}
		return !sorted
	})
	return sorted
}

// enclosingFunc finds the function declaration or literal containing pos.
func enclosingFunc(file *ast.File, pos token.Pos) ast.Node {
	var best ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			if n.Pos() <= pos && pos < n.End() {
				best = n // innermost wins: later, deeper matches overwrite
			}
		}
		return true
	})
	return best
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isTrivialResult reports whether a return value cannot leak iteration
// order: nil, true/false, or a plain literal.
func isTrivialResult(pkg *Package, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.BasicLit:
		return true
	case *ast.Ident:
		return e.Name == "nil" || e.Name == "true" || e.Name == "false"
	default:
		_ = pkg
		return false
	}
}
