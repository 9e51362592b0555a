package analyzerkit

// Main runs a set of analyzers over package directories named directly or
// through "./..." patterns, prints each finding as file:line:col with the
// path relative to the module root, and exits non-zero when any survives
// its //costar:allow annotations.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Main is the entry point for an analyzer bundle binary. It never returns:
// the process exits 0 on a clean run, 1 when the run itself fails, 2 on
// findings.
func Main(analyzers ...*Analyzer) {
	patterns := os.Args[1:]
	for _, a := range patterns {
		if strings.HasPrefix(a, "-") {
			fatal(fmt.Errorf("unknown flag %s (only package patterns are accepted)", a))
		}
	}
	if len(patterns) == 0 {
		fmt.Fprintf(os.Stderr, "usage: %s [package-dir | dir/...]...\n\nanalyzers:\n", filepath.Base(os.Args[0]))
		for _, an := range analyzers {
			doc := an.Doc
			if i := strings.IndexByte(doc, '\n'); i >= 0 {
				doc = doc[:i]
			}
			fmt.Fprintf(os.Stderr, "  %-20s %s\n", an.Name, doc)
		}
		os.Exit(1)
	}
	diags := run(patterns, analyzers)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
	os.Exit(0)
}

// run analyzes package directories named directly or via Go's "dir/..."
// wildcard, grouping each directory's files into one pass. Every .go file
// is parsed, whatever its build tags, so a pass sees the union of the
// files any build configuration compiles. One FileSet and one source
// Loader span the whole run so type-checked dependencies are shared across
// packages.
func run(patterns []string, analyzers []*Analyzer) []Diagnostic {
	dirs, err := expandPatterns(patterns)
	if err != nil {
		fatal(err)
	}
	fset := token.NewFileSet()
	var loader *Loader
	if len(dirs) > 0 {
		loader = newSourceLoader(fset, dirs[0])
	}
	var all []Diagnostic
	for _, dir := range dirs {
		pkgs := map[string][]*ast.File{}
		names, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			fatal(err)
		}
		sort.Strings(names)
		for _, name := range names {
			f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				fatal(err)
			}
			pkgs[f.Name.Name] = append(pkgs[f.Name.Name], f)
		}
		// A directory can hold both pkg and pkg_test ("external test")
		// packages; analyze each separately, like the build system does.
		pkgNames := make([]string, 0, len(pkgs))
		for name := range pkgs {
			pkgNames = append(pkgNames, name)
		}
		sort.Strings(pkgNames)
		for _, name := range pkgNames {
			diags, err := runPackage(fset, pkgs[name], dir, analyzers, loader)
			if err != nil {
				fatal(err)
			}
			all = append(all, diags...)
		}
	}
	return all
}

// runPackage applies every analyzer to one parsed package and returns the
// findings sorted by position. Type resolution is computed once, and only
// when some matching analyzer asks for it.
func runPackage(fset *token.FileSet, files []*ast.File, pkgPath string, analyzers []*Analyzer, loader *Loader) ([]Diagnostic, error) {
	if len(files) == 0 {
		return nil, nil
	}
	pkgName := files[0].Name.Name
	matched := func(an *Analyzer) bool {
		return an.Match == nil || an.Match(pkgName, filepath.ToSlash(pkgPath))
	}
	pass := &Pass{
		Fset:    fset,
		Files:   files,
		PkgName: pkgName,
		PkgPath: pkgPath,
	}
	for _, an := range analyzers {
		if an.NeedTypes && matched(an) {
			if loader == nil {
				pass.TypesErr = fmt.Errorf("no type information available")
				break
			}
			pass.Pkg, pass.Info, pass.TypesErr = loader.Check(pkgPath, files)
			break
		}
	}
	var diags []Diagnostic
	for _, an := range analyzers {
		if !matched(an) {
			continue
		}
		p := *pass
		p.Analyzer = an
		p.SetReport(func(d Diagnostic) { diags = append(diags, d) })
		if err := an.Run(&p); err != nil {
			return nil, fmt.Errorf("%s: %w", an.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags, nil
}

// expandPatterns resolves "dir/..." wildcards to every subdirectory
// containing Go files, skipping testdata, vendor, and hidden directories —
// the same pruning the go command applies to package patterns.
func expandPatterns(patterns []string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, p := range patterns {
		root, rec := strings.CutSuffix(p, "...")
		root = filepath.Clean(root)
		if root == "" {
			root = "."
		}
		if !rec {
			add(root)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			base := filepath.Base(path)
			if path != root && (base == "testdata" || base == "vendor" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return filepath.SkipDir
			}
			if m, _ := filepath.Glob(filepath.Join(path, "*.go")); len(m) > 0 {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// repoRoot anchors path relativization: diagnostics print module-relative
// paths whatever directory the tool runs from, so editor links and CI logs
// agree.
var repoRoot = func() string {
	root, _ := findModule(".")
	return root
}()

// relPosition rewrites an absolute filename to a module-relative one when
// the file lives under the repo; anything else is left alone.
func relPosition(p token.Position) token.Position {
	if p.Filename == "" || repoRoot == "" {
		return p
	}
	abs := p.Filename
	if !filepath.IsAbs(abs) {
		a, err := filepath.Abs(abs)
		if err != nil {
			return p
		}
		abs = a
	}
	if r, err := filepath.Rel(repoRoot, abs); err == nil && !strings.HasPrefix(r, "..") {
		p.Filename = filepath.ToSlash(r)
	}
	return p
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), err)
	os.Exit(1)
}
