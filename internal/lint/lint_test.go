package lint

import (
	"crypto/sha256"
	"fmt"
	"go/ast"
	"go/format"
	"go/types"
	"hash"
	"testing"
)

// mapOrderAllowed lists the functions whose map iteration has been
// reviewed and found order-free, with the reason and a hash of the
// reviewed loops. Every other visit of a map in map order fails
// TestTreeIsClean. So does an edit to a listed function's map loops
// (the hash no longer matches: review the loops again, then copy the new
// hash from the failure) and an entry that matches no site, so the list
// cannot outlive or drift from the code it excuses.
var mapOrderAllowed = []struct{ fn, hash, reason string }{
	{"telemetry.(*Snapshot).Merge", "32f1b699f5db", "keyed sums: each iteration adds into its own key of the receiver"},
	{"mem.(*Memory).Release", "c8a30f035eb4", "puts zeroed pages back in a pool, which hands out equal pages in any order"},
	{"farm.recoverState", "419ffa95599a", "per-job fix-up: each iteration rewrites only its own job's state"},
}

// TestTreeIsClean holds the module's non-test code to one determinism
// rule that the runtime walls (serial ≡ parallel, regeneration against
// experiments_output.txt, the farm's four-way identity) cannot hold on
// their own: Go visits a small map's first-inserted key first most of the
// time, so an order-sensitive loop over a 2-key map passes a byte-identity
// test in most runs. A map may be visited in map order only through
// slices.Sorted or slices.SortedFunc of maps.Keys, Values or All; a
// `range` over a map-typed value, or any other use of those iterators, is
// allowed only in the functions mapOrderAllowed names.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	fset, pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	reviewed := make(map[string]hash.Hash, len(mapOrderAllowed))
	for _, a := range mapOrderAllowed {
		reviewed[a.fn] = nil
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn := pkg.Name + " package-level declaration"
				if fd, ok := decl.(*ast.FuncDecl); ok {
					fn = funcName(pkg, fd)
				}
				for _, site := range mapOrderSites(pkg.Info, decl) {
					h, ok := reviewed[fn]
					if !ok {
						t.Errorf("%s: %s in %s visits a map in map order; sort its keys with slices.Sorted(maps.Keys(m))",
							fset.Position(site.Pos()), describe(site), fn)
						continue
					}
					if h == nil {
						h = sha256.New()
						reviewed[fn] = h
					}
					if err := format.Node(h, fset, site); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	for _, a := range mapOrderAllowed {
		h := reviewed[a.fn]
		if h == nil {
			t.Errorf("mapOrderAllowed entry %s (%s) matches no map iteration; delete it", a.fn, a.reason)
			continue
		}
		if got := fmt.Sprintf("%x", h.Sum(nil))[:12]; got != a.hash {
			t.Errorf("the map iteration in %s changed since it was reviewed (hash %s, entry %s): check that it is still order-free (%s), then update the entry",
				a.fn, got, a.hash, a.reason)
		}
	}
}

// mapOrderSites returns decl's range statements over map-typed values
// and its maps.Keys, Values and All calls not passed straight to
// slices.Sorted or slices.SortedFunc, in source order.
func mapOrderSites(info *types.Info, decl ast.Decl) []ast.Node {
	var sites []ast.Node
	sorted := make(map[ast.Expr]bool)
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if _, ok := info.TypeOf(n.X).Underlying().(*types.Map); ok {
				sites = append(sites, n)
			}
		case *ast.CallExpr:
			switch callee(info, n) {
			case "slices.Sorted", "slices.SortedFunc":
				sorted[n.Args[0]] = true
			case "maps.Keys", "maps.Values", "maps.All":
				if !sorted[n] {
					sites = append(sites, n)
				}
			}
		}
		return true
	})
	return sites
}

// callee names the package-level function a call invokes as
// "pkgpath.Name", or "" for builtins, methods and func values.
func callee(info *types.Info, call *ast.CallExpr) string {
	fun := ast.Unparen(call.Fun)
	switch inst := fun.(type) { // an explicit instantiation, maps.Keys[M, K, V]
	case *ast.IndexExpr:
		fun = inst.X
	case *ast.IndexListExpr:
		fun = inst.X
	}
	var id *ast.Ident
	switch fun := fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	}
	f, ok := info.Uses[id].(*types.Func)
	if !ok || f.Pkg() == nil || f.Type().(*types.Signature).Recv() != nil {
		return ""
	}
	return f.Pkg().Path() + "." + f.Name()
}

// funcName names a declared function as "pkg.Func" or "pkg.(*T).Method",
// the form mapOrderAllowed uses.
func funcName(pkg *Package, fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return pkg.Name + "." + fd.Name.Name
	}
	recv := types.TypeString(pkg.Info.TypeOf(fd.Recv.List[0].Type), func(*types.Package) string { return "" })
	if recv[0] == '*' {
		recv = "(" + recv + ")"
	}
	return pkg.Name + "." + recv + "." + fd.Name.Name
}

func describe(site ast.Node) string {
	if _, ok := site.(*ast.RangeStmt); ok {
		return "range over a map"
	}
	return "a maps iterator outside slices.Sorted"
}
