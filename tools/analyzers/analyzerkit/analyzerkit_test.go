package analyzerkit

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func parseOne(t *testing.T, src string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "test.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f
}

func TestWritesCollectsMutationSites(t *testing.T) {
	_, f := parseOne(t, `package p
func g() {
	x.f = 1            // assign
	x.f, y.h = 1, 2    // multi-assign
	x.f += 1           // op-assign
	x.f++              // incdec
	delete(x.m, k)     // delete
	clear(x.m)         // clear
	z := 1             // define: not a write
	_ = z              // blank assign: counted, but has no selectors
}`)
	ws := Writes(f)
	if len(ws) != 8 {
		t.Fatalf("Writes found %d sites, want 8", len(ws))
	}
}

func TestSelectorsInReachesNestedTargets(t *testing.T) {
	_, f := parseOne(t, `package p
func g() {
	(*m.edges.Load())[k] = v
}`)
	ws := Writes(f)
	if len(ws) != 1 {
		t.Fatalf("Writes found %d sites, want 1", len(ws))
	}
	names := map[string]bool{}
	for _, sel := range SelectorsIn(ws[0].Target) {
		names[sel.Sel.Name] = true
	}
	if !names["edges"] || !names["Load"] {
		t.Fatalf("SelectorsIn missed nested selectors: %v", names)
	}
}

func TestRunPackageSortsDiagnostics(t *testing.T) {
	fset, f := parseOne(t, `package p
func a() {}
func b() {}`)
	an := &Analyzer{
		Name: "order",
		Run: func(pass *Pass) error {
			// Report in reverse position order; runPackage must sort.
			decls := pass.Files[0].Decls
			pass.Reportf(decls[1].Pos(), "second")
			pass.Reportf(decls[0].Pos(), "first")
			return nil
		},
	}
	diags, err := runPackage(fset, []*ast.File{f}, "p", []*Analyzer{an}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 || diags[0].Message != "first" || diags[1].Message != "second" {
		t.Fatalf("diagnostics not sorted by position: %v", diags)
	}
}
