package analyzerkit

// Type resolution for NeedTypes analyzers, stdlib-only. The loader
// type-checks imports from source: module-internal paths resolve under the
// repo root (located by walking up to go.mod), everything else under
// GOROOT/src. Imported packages are checked with IgnoreFuncBodies — only
// their API surface matters — and cached for the whole run.
//
// Loading is deliberately lenient: a dependency that fails to load becomes
// an empty placeholder package and the target package is still checked,
// with the first error recorded as Pass.TypesErr. Typed analyzers degrade
// on missing Info entries instead of crashing. Main parses every file of
// a directory whatever its build tags, so mutually exclusive files
// (race_on_test.go and race_off_test.go, say) redeclare a name; the rest
// of such a package is still typed.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// Loader resolves imports and type-checks target packages for one driver
// run. It implements types.Importer.
type Loader struct {
	fset *token.FileSet

	// Module root and path, build context for file selection.
	repoDir string
	modPath string
	ctx     build.Context

	cache    map[string]*types.Package
	visiting map[string]bool
}

// newSourceLoader builds a Loader that type-checks imports from source.
// startDir seeds the search for the enclosing module root.
func newSourceLoader(fset *token.FileSet, startDir string) *Loader {
	ctx := build.Default
	// Never select cgo-gated files: they reference C symbols that cannot
	// resolve without cgo preprocessing, and this repo uses none.
	ctx.CgoEnabled = false
	l := &Loader{
		fset:     fset,
		ctx:      ctx,
		cache:    map[string]*types.Package{},
		visiting: map[string]bool{},
	}
	l.repoDir, l.modPath = findModule(startDir)
	return l
}

// findModule walks up from dir to the nearest go.mod and returns the
// directory plus the declared module path ("", "" when none is found).
func findModule(dir string) (root, modPath string) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", ""
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest)
				}
			}
			return dir, ""
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", ""
		}
		dir = parent
	}
}

// Check type-checks one target package (the files of a driver pass) and
// returns the resolved package, the filled-in Info, and the first
// type-checking problem encountered (the package and Info are still
// usable when err != nil — checking is lenient).
func (l *Loader) Check(pkgPath string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var firstErr error
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	pkg, err := conf.Check(pkgPath, l.fset, files, info)
	if firstErr == nil {
		firstErr = err
	}
	return pkg, info, firstErr
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return l.importSource(path)
}

// importSource loads one dependency from source, caching the result. A
// package that cannot be loaded yields an empty placeholder so that
// checking of the importer still proceeds.
func (l *Loader) importSource(path string) (*types.Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if l.visiting[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	l.visiting[path] = true
	defer delete(l.visiting, path)

	pkg, err := l.checkSourceDir(path)
	if pkg == nil {
		pkg = types.NewPackage(path, guessPackageName(path))
		pkg.MarkComplete()
		_ = err // recorded implicitly: importers see an empty package
	}
	l.cache[path] = pkg
	return pkg, nil
}

// checkSourceDir parses and type-checks the package at the directory that
// import path resolves to, skipping function bodies.
func (l *Loader) checkSourceDir(path string) (*types.Package, error) {
	dir, err := l.dirFor(path)
	if err != nil {
		return nil, err
	}
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	conf := types.Config{
		Importer:         l,
		FakeImportC:      true,
		IgnoreFuncBodies: true,
		Error:            func(error) {}, // lenient: keep what resolved
	}
	pkg, err := conf.Check(path, l.fset, files, nil)
	if pkg == nil {
		return nil, err
	}
	return pkg, nil
}

// dirFor maps an import path to a source directory: module-internal paths
// under the repo root, everything else under GOROOT/src.
func (l *Loader) dirFor(path string) (string, error) {
	if l.modPath != "" {
		if path == l.modPath {
			return l.repoDir, nil
		}
		if rest, ok := strings.CutPrefix(path, l.modPath+"/"); ok {
			return filepath.Join(l.repoDir, filepath.FromSlash(rest)), nil
		}
	}
	goroot := l.ctx.GOROOT
	if goroot == "" {
		return "", fmt.Errorf("cannot resolve %q: GOROOT unknown", path)
	}
	return filepath.Join(goroot, "src", filepath.FromSlash(path)), nil
}

// guessPackageName picks a plausible name for a placeholder package.
func guessPackageName(path string) string {
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	// Versioned module paths like ".../v2" name the element before.
	return base
}
