// Package analyzerkit is a dependency-free miniature of the
// golang.org/x/tools/go/analysis framework: an Analyzer inspects the parsed
// files of one package through a Pass and reports positioned diagnostics.
// Main (driver.go) runs analyzers over package directories.
//
// Two tiers of analysis coexist. Syntactic analyzers inspect the parsed
// ASTs only — sound for invariants over unexported fields, which confines
// potential writes to their owning packages. Typed analyzers (NeedTypes)
// additionally receive go/types resolution (Pass.Pkg / Pass.Info) from the
// kit's Loader (types.go), which type-checks dependencies straight from
// source; on top of that, flow.go provides an
// intra-procedural taint/escape walker with per-package call summaries, and
// paths.go an every-path must-analysis — the machinery the contract
// checkers (scratchescape, windowalias, governortick, lockorder) build on.
package analyzerkit

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// Analyzer is one static check, mirroring the x/tools analysis.Analyzer
// shape so the checks could migrate to the real framework unchanged.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //costar:allow annotations.
	Name string
	// Doc is a one-paragraph description; Main's usage message shows its
	// first line.
	Doc string
	// Run inspects one package through pass and reports findings via
	// pass.Reportf. A returned error aborts the whole run (it means the
	// analyzer itself failed, not that the code has findings).
	Run func(pass *Pass) error
	// NeedTypes requests go/types resolution: the driver populates
	// Pass.Pkg and Pass.Info before Run. Type-checking is paid only for
	// packages some requesting analyzer Matches.
	NeedTypes bool
	// Match, when non-nil, gates the analyzer to packages it cares about
	// (by declared package name and import/directory path). A nil Match
	// runs everywhere. Matching cheaply up front keeps typed analysis off
	// the packages no typed analyzer cares about.
	Match func(pkgName, pkgPath string) bool
}

// Pass carries one package's parsed files to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed files, in driver order.
	Files []*ast.File
	// PkgName is the declared package name (the `package foo` clause).
	PkgName string
	// PkgPath is the package's directory path.
	PkgPath string

	// Pkg and Info carry go/types resolution for NeedTypes analyzers
	// (nil/empty otherwise, or when the driver could not type-check —
	// see TypesErr). Info has Types, Defs, Uses, and Selections filled.
	Pkg  *types.Package
	Info *types.Info
	// TypesErr records why type resolution is unavailable or partial.
	// Typed analyzers should degrade rather than crash: with a nil Info
	// they may fall back to syntactic matching or return nil.
	TypesErr error

	report func(Diagnostic)
	allows map[string]map[int]allow // filename → line → suppression
}

// Diagnostic is one finding, already resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Message  string
	Analyzer string
}

// String renders the diagnostic in the canonical file:line:col form that
// editors and `go vet` both understand.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// SetReport installs the diagnostic sink Reportf forwards to. The driver
// calls it when assembling a pass; analyzer tests call it to capture
// findings in memory.
func (p *Pass) SetReport(fn func(Diagnostic)) { p.report = fn }

// Reportf records a finding at pos — unless the finding's line (or the
// line above it) carries a justified suppression comment for this analyzer:
//
//	//costar:allow <analyzer>[,<analyzer>...] -- <why this is sound>
//
// The justification after " -- " is mandatory; an allow comment without one
// is itself reported, so every suppression in the tree documents its
// reasoning.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if a, ok := p.allowAt(position); ok {
		if a.reason == "" {
			p.report(Diagnostic{
				Pos:      relPosition(position),
				Message:  "costar:allow suppression without a justification (add ` -- <reason>`)",
				Analyzer: p.Analyzer.Name,
			})
		}
		return
	}
	p.report(Diagnostic{
		Pos:      relPosition(position),
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// allow is one parsed //costar:allow directive.
type allow struct {
	analyzers map[string]bool
	reason    string
}

// allowAt reports whether a suppression for the running analyzer covers the
// given position (same line or the line immediately above).
func (p *Pass) allowAt(position token.Position) (allow, bool) {
	if p.allows == nil {
		p.allows = map[string]map[int]allow{}
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					a, ok := parseAllow(c.Text)
					if !ok {
						continue
					}
					cp := p.Fset.Position(c.Pos())
					byLine := p.allows[cp.Filename]
					if byLine == nil {
						byLine = map[int]allow{}
						p.allows[cp.Filename] = byLine
					}
					byLine[cp.Line] = a
				}
			}
		}
	}
	byLine := p.allows[position.Filename]
	for _, line := range [2]int{position.Line, position.Line - 1} {
		if a, ok := byLine[line]; ok && a.analyzers[p.Analyzer.Name] {
			return a, true
		}
	}
	return allow{}, false
}

// parseAllow parses a `//costar:allow names -- reason` comment.
func parseAllow(text string) (allow, bool) {
	rest, ok := strings.CutPrefix(text, "//costar:allow")
	if !ok {
		return allow{}, false
	}
	rest = strings.TrimSpace(rest)
	names, reason, _ := strings.Cut(rest, " -- ")
	a := allow{analyzers: map[string]bool{}, reason: strings.TrimSpace(reason)}
	for _, n := range strings.Split(names, ",") {
		if n = strings.TrimSpace(n); n != "" {
			a.analyzers[n] = true
		}
	}
	return a, len(a.analyzers) > 0
}

// Filename returns the base name of the file containing pos — what
// constructor-file allowlists match against.
func (p *Pass) Filename(pos token.Pos) string {
	return filepath.Base(p.Fset.Position(pos).Filename)
}

// Write is one syntactic mutation site: the target of an assignment or
// IncDec statement, or the first argument of a delete() or clear() call.
type Write struct {
	// Target is the expression being written through.
	Target ast.Expr
	// Node is the statement or call performing the write, for positions.
	Node ast.Node
}

// Writes collects every syntactic mutation in f. Short variable
// declarations (`:=`) are excluded: their left-hand sides introduce new
// variables rather than writing through existing structure. The clear
// builtin counts like delete: it empties a map or zeroes a slice in place,
// so it writes through whatever shares it.
func Writes(f *ast.File) []Write {
	var out []Write
	ast.Inspect(f, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range s.Lhs {
				out = append(out, Write{Target: lhs, Node: s})
			}
		case *ast.IncDecStmt:
			out = append(out, Write{Target: s.X, Node: s})
		case *ast.CallExpr:
			if id, ok := s.Fun.(*ast.Ident); ok && (id.Name == "delete" || id.Name == "clear") && len(s.Args) > 0 {
				out = append(out, Write{Target: s.Args[0], Node: s})
			}
		}
		return true
	})
	return out
}

// SelectorsIn returns every SelectorExpr anywhere inside e — including
// inside index expressions, parens, stars, and call arguments — so a write
// target like (*m.edges.Load())[k] surfaces both `edges` and `Load`.
func SelectorsIn(e ast.Expr) []*ast.SelectorExpr {
	var out []*ast.SelectorExpr
	ast.Inspect(e, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			out = append(out, sel)
		}
		return true
	})
	return out
}

// ---------------------------------------------------------------------------
// Typed helpers shared by the contract analyzers
// ---------------------------------------------------------------------------

// Deref strips pointers off t.
func Deref(t types.Type) types.Type {
	for {
		p, ok := t.Underlying().(*types.Pointer)
		if !ok {
			return t
		}
		t = p.Elem()
	}
}

// ReceiverOf resolves the method called by a selector call expression and
// returns the receiver's named type name and package name ("" when the call
// target is not a resolvable method). Both value and pointer receivers
// resolve to the same name.
func ReceiverOf(info *types.Info, call *ast.CallExpr) (pkgName, typeName, method string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || info == nil {
		return "", "", ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", "", ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", "", ""
	}
	n, ok := Deref(sig.Recv().Type()).(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return "", "", ""
	}
	return n.Obj().Pkg().Name(), n.Obj().Name(), fn.Name()
}

// FieldOf resolves a selector expression to the named struct type declaring
// the selected field. It returns ("", "", "") when sel is not a field
// selection or the base type is unresolvable.
func FieldOf(info *types.Info, sel *ast.SelectorExpr) (pkgName, typeName, field string) {
	if info == nil {
		return "", "", ""
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return "", "", ""
	}
	// Resolve against the type that actually declares the field (walking
	// the embedding path), so promoted fields still name their owner.
	t := selection.Recv()
	for _, idx := range selection.Index() {
		s, ok := Deref(t).Underlying().(*types.Struct)
		if !ok || idx >= s.NumFields() {
			return "", "", ""
		}
		f := s.Field(idx)
		if f.Name() == sel.Sel.Name {
			n, ok := Deref(t).(*types.Named)
			if !ok || n.Obj().Pkg() == nil {
				return "", "", ""
			}
			return n.Obj().Pkg().Name(), n.Obj().Name(), f.Name()
		}
		t = f.Type()
	}
	return "", "", ""
}

// CalleeOf resolves the function or method invoked by call ("" when the
// callee is dynamic or unresolvable). Methods report their bare name;
// package functions likewise — pair with ReceiverOf to disambiguate.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	if info == nil {
		return nil
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
