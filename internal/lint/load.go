// Package lint loads the module's packages with full type information
// for source checks that run as tests. Its one check, TestTreeIsClean,
// bans visiting a map in map order outside a reviewed allowlist
// (DESIGN.md §10); every other determinism property is held at run time
// by the byte-identity tests.
//
// The loader is built on the standard library only: the repository
// vendors no third-party modules, so golang.org/x/tools/go/packages is
// not used.
package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one fully type-checked target package.
type Package struct {
	PkgPath string
	Name    string
	Dir     string
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listPkg mirrors the fields of `go list -json` the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	GoFiles    []string
	ImportMap  map[string]string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// Load type-checks the packages matching patterns (resolved relative to
// dir, which must sit inside a module) and returns them with full type
// information. Only non-test Go files are analyzed — the invariants the
// suite enforces live in simulator code, and test binaries may be as
// impure as they like.
//
// The loader shells out to `go list -export -deps`, which compiles
// dependencies as needed and reports the build-cache location of each
// package's export data; a lookup-based gc importer then feeds that
// export data to go/types. Everything runs offline against the local
// toolchain — no network, no third-party loader.
func Load(dir string, patterns ...string) (*token.FileSet, []*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	targets, exports, err := goList(dir, patterns)
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	imp := newExportImporter(fset, exports)
	var pkgs []*Package
	for _, lp := range targets {
		p, err := typecheck(fset, imp, lp)
		if err != nil {
			return nil, nil, err
		}
		pkgs = append(pkgs, p)
	}
	return fset, pkgs, nil
}

// goList resolves patterns to target packages plus the export-data
// locations of every dependency.
func goList(dir string, patterns []string) ([]listPkg, map[string]string, error) {
	args := []string{
		"list", "-e", "-export", "-deps",
		"-json=Dir,ImportPath,Name,Export,GoFiles,ImportMap,DepOnly,Standard,Error",
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	exports := make(map[string]string)
	var targets []listPkg
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}
	return targets, exports, nil
}

// typecheck parses and type-checks one listed package.
func typecheck(fset *token.FileSet, imp types.Importer, lp listPkg) (*Package, error) {
	var files []*ast.File
	for _, gf := range lp.GoFiles {
		path := gf
		if !filepath.IsAbs(path) {
			path = filepath.Join(lp.Dir, gf)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", lp.ImportPath, err)
	}
	return &Package{
		PkgPath: lp.ImportPath,
		Name:    lp.Name,
		Dir:     lp.Dir,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}, nil
}

// newExportImporter returns a shared gc importer reading export data from
// the build-cache files go list reported. Sharing one importer across all
// target packages keeps types identical between packages.
func newExportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}
