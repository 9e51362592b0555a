package immutablecompiled

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"costar/tools/analyzers/analyzerkit"
)

// check parses the named sources as one package and runs the analyzer.
func check(t *testing.T, files map[string]string) []analyzerkit.Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	var parsed []*ast.File
	var diags []analyzerkit.Diagnostic
	for name, src := range files {
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		parsed = append(parsed, f)
	}
	pass := &analyzerkit.Pass{
		Analyzer: Analyzer,
		Fset:     fset,
		Files:    parsed,
		PkgName:  parsed[0].Name.Name,
		PkgPath:  "test",
	}
	pass.SetReport(func(d analyzerkit.Diagnostic) { diags = append(diags, d) })
	if err := Analyzer.Run(pass); err != nil {
		t.Fatal(err)
	}
	return diags
}

func TestFlagsTableWriteOutsideConstructor(t *testing.T) {
	diags := check(t, map[string]string{
		"mutate.go": `package grammar
func (c *Compiled) evil() {
	c.prodLhs = nil
	c.ntProds[0] = append(c.ntProds[0], 1)
	c.numDefined++
	delete(c.termIDs, "x")
}`,
	})
	if len(diags) != 4 {
		t.Fatalf("got %d diagnostics, want 4: %v", len(diags), diags)
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "immutable after construction") {
			t.Errorf("diagnostic lacks rationale: %s", d)
		}
	}
}

func TestAllowsConstructorFileAndReads(t *testing.T) {
	diags := check(t, map[string]string{
		"compile.go": `package grammar
func compile(c *Compiled) {
	c.prodLhs = append(c.prodLhs, 0) // constructor file: allowed
	c.numDefined = 3
}`,
		"reader.go": `package grammar
func (c *Compiled) Lhs(i int) int {
	x := c.prodLhs[i] // read: allowed anywhere
	return int(x)
}`,
	})
	if len(diags) != 0 {
		t.Fatalf("false positives: %v", diags)
	}
}

func TestAnalysisTablesProtected(t *testing.T) {
	diags := check(t, map[string]string{
		"other.go": `package analysis
func (a *Analysis) evil() {
	a.firstRow[0][0] = 1
	a.nullableID[0] = true
}
func (t *Targets) evil() {
	t.canFinish[0] = true
}`,
	})
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics, want 3: %v", len(diags), diags)
	}
}

func TestOtherPackagesIgnored(t *testing.T) {
	diags := check(t, map[string]string{
		"x.go": `package other
type thing struct{ prodLhs []int }
func (x *thing) set() { x.prodLhs = nil }`,
	})
	if len(diags) != 0 {
		t.Fatalf("analyzer leaked outside its packages: %v", diags)
	}
}

// TestFieldNamesAreUnambiguous pins the syntactic soundness assumption: in
// the real grammar and analysis packages, each protected field name is
// declared as a struct field exactly once, so a name match identifies the
// protected table.
func TestFieldNamesAreUnambiguous(t *testing.T) {
	for pkgDir, spec := range map[string]map[string]bool{
		"../../../internal/grammar":  protected["grammar"].fields,
		"../../../internal/analysis": protected["analysis"].fields,
	} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, pkgDir, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[string]int{}
		for _, pkg := range pkgs {
			if strings.HasSuffix(pkg.Name, "_test") {
				continue
			}
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					st, ok := n.(*ast.StructType)
					if !ok {
						return true
					}
					for _, fld := range st.Fields.List {
						for _, name := range fld.Names {
							if spec[name.Name] {
								counts[name.Name]++
							}
						}
					}
					return true
				})
			}
		}
		for name := range spec {
			if counts[name] != 1 {
				t.Errorf("%s: field %q declared %d times, want exactly 1 (name matching is no longer unambiguous)",
					pkgDir, name, counts[name])
			}
		}
	}
}
