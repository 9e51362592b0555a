package cowedges

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"costar/tools/analyzers/analyzerkit"
)

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

func TestFlagsNonNilCompareAndSwap(t *testing.T) {
	diags := check(t, map[string]string{
		// Swapping from a non-nil old value replaces a published edge,
		// even in cache.go itself.
		"cache.go": `package prediction
func (st *dfaState) evil(t int, old, next *dfaState) bool {
	return st.edges[t+1].CompareAndSwap(old, next)
}`,
	})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "only from nil") {
		t.Errorf("diagnostic lacks the from-nil rule: %s", diags[0])
	}
}

func TestFlagsStoreOutsideCacheFile(t *testing.T) {
	diags := check(t, map[string]string{
		"predict.go": `package prediction
func hijack(st *dfaState, t int, next *dfaState) {
	st.edges[t+1].Store(next)
}
func hijackStarts(g *cacheGen, nt int, st *dfaState) {
	g.starts[nt].Swap(st)
}`,
	})
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %v", len(diags), diags)
	}
}

func TestAllowsCompareAndSwapFromNil(t *testing.T) {
	diags := check(t, map[string]string{
		// The protocol: publish from nil, or adopt the racer's winner.
		"cache.go": `package prediction
func (st *dfaState) setEdge(t int, next *dfaState) *dfaState {
	if st.edges[t+1].CompareAndSwap(nil, next) {
		return next
	}
	return st.edges[t+1].Load()
}
func (g *cacheGen) setStart(nt int, st *dfaState) bool {
	return g.starts[nt].CompareAndSwap(nil, st)
}`,
	})
	if len(diags) != 0 {
		t.Fatalf("false positives on the compare-and-swap path: %v", diags)
	}
}

func TestLoadsAreAllowedEverywhere(t *testing.T) {
	diags := check(t, map[string]string{
		"predict.go": `package prediction
func (st *dfaState) step(t int) *dfaState {
	return st.edges[t+1].Load()
}`,
	})
	if len(diags) != 0 {
		t.Fatalf("reads were flagged: %v", diags)
	}
}

func TestOtherPackagesIgnored(t *testing.T) {
	diags := check(t, map[string]string{
		"x.go": `package other
type g struct{ edges map[int]int }
func (x *g) set() { x.edges[1] = 2 }`,
	})
	if len(diags) != 0 {
		t.Fatalf("analyzer leaked outside prediction: %v", diags)
	}
}
