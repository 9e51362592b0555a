// Package lockorder enforces the stats mutex contract and the leaf rule
// for the mutexes of the parser and prediction packages (DESIGN.md §5b):
//
//  1. In the parser package, the `stats` field is guarded by `statsMu`:
//     any function touching `.stats` must have acquired `.statsMu`
//     first (and not released it before the access).
//  2. The watched mutexes are leaves: no function may acquire one while
//     holding another (statsMu, the SLL cache's shard mutexes and its
//     frame table's mutex, in any pairing and either order), either
//     directly or by calling a function of the package that acquires one.
//     So the cache hash-conses frames before it takes a shard mutex, never
//     under it. A consistent never-nest rule cannot deadlock; any nesting
//     is a latent lock-inversion the moment a second nesting appears.
//
// The checks run over a linear in-source-order walk of each function body
// — the same soundness argument as cowedges: the fields involved (mu,
// statsMu, stats) are unexported, so every access site lives in the
// matched packages, and `defer mu.Unlock()` keeps the mutex held to
// function end. Calls are resolved with go/types: a function acquires a
// watched mutex when its body locks one or statically calls a function
// that does (calls through func values are not followed). Suppress a
// provably-safe site with `//costar:allow lockorder -- <why>`.
package lockorder

import (
	"go/ast"
	"go/types"
	"strings"

	"costar/tools/analyzers/analyzerkit"
)

// Analyzer is the exported instance for multichecker bundling.
var Analyzer = &analyzerkit.Analyzer{
	Name: "lockorder",
	Doc: "enforce the stats-mutex contract and the leaf-mutex rule\n\n" +
		"parser's stats field needs statsMu, and the watched mutexes (statsMu, the SLL\n" +
		"cache's shard and frame-table mu) are leaves — acquiring one while holding another,\n" +
		"directly or through a call, is a latent lock inversion.",
	Run:       run,
	NeedTypes: true,
	Match: func(pkgName, pkgPath string) bool {
		return pkgName == "prediction" || pkgName == "parser"
	},
}

func run(pass *analyzerkit.Pass) error {
	var decls []*ast.FuncDecl
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Filename(f.Pos()), "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
			}
		}
	}
	acq := acquirers(pass, decls)
	for _, fd := range decls {
		walkBody(pass, acq, fd.Body)
	}
	return nil
}

// acquirers maps every function of the package that acquires a watched
// mutex when called — its body locks one, or calls a function that does —
// to the first such mutex, for diagnostics. Closures inside a body run
// under their own discipline and do not count. Without type information
// (see Pass.TypesErr) calls cannot be resolved and the map is empty.
func acquirers(pass *analyzerkit.Pass, decls []*ast.FuncDecl) map[*types.Func]string {
	acq := map[*types.Func]string{}
	if pass.Info == nil {
		return acq
	}
	calls := map[*types.Func][]*types.Func{}
	var fns []*types.Func
	for _, fd := range decls {
		fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		fns = append(fns, fn)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Lock" {
					if path, ok := mutexPath(sel.X); ok {
						if _, seen := acq[fn]; !seen {
							acq[fn] = path
						}
					}
				}
				if callee := analyzerkit.CalleeOf(pass.Info, n); callee != nil {
					calls[fn] = append(calls[fn], callee)
				}
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			if _, ok := acq[fn]; ok {
				continue
			}
			for _, callee := range calls[fn] {
				if path, ok := acq[callee]; ok {
					acq[fn] = path
					changed = true
					break
				}
			}
		}
	}
	return acq
}

// walkBody walks one function or closure body in source order, tracking
// which watched mutexes are held, and reports discipline violations at
// each site.
func walkBody(pass *analyzerkit.Pass, acq map[*types.Func]string, body *ast.BlockStmt) {
	held := []string{} // mutex paths currently held, in acquisition order
	holding := func() string { return strings.Join(held, ", ") }
	release := func(path string) {
		for i, h := range held {
			if h == path {
				held = append(held[:i], held[i+1:]...)
				return
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A closure runs later, under its own discipline; checking
			// it against the enclosing held-set would be wrong in both
			// directions. It gets the same walk, fresh.
			walkBody(pass, acq, n.Body)
			return false
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the mutex held to function end;
			// deliberately not treated as a release.
			return false
		case *ast.CallExpr:
			if callee := analyzerkit.CalleeOf(pass.Info, n); callee != nil && len(held) > 0 {
				if path, ok := acq[callee]; ok {
					pass.Reportf(n.Pos(),
						"calling %s, which acquires %s, while holding %s: the watched mutexes (statsMu, cache mu) are leaves and must never nest — a second nesting elsewhere is a deadlock",
						callee.Name(), path, holding())
				}
			}
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			base, baseIsMutex := mutexPath(sel.X)
			if !baseIsMutex {
				return true
			}
			switch sel.Sel.Name {
			case "Lock":
				if len(held) > 0 {
					pass.Reportf(n.Pos(),
						"acquiring %s while holding %s: the watched mutexes (statsMu, cache mu) are leaves and must never nest — a second nesting elsewhere is a deadlock",
						base, holding())
				}
				held = append(held, base)
			case "Unlock":
				release(base)
			}
		case *ast.SelectorExpr:
			// Guarded field: parser's stats requires statsMu.
			if pass.PkgName != "parser" || n.Sel.Name != "stats" {
				return true
			}
			for _, h := range held {
				if strings.HasSuffix(h, "statsMu") {
					return true
				}
			}
			pass.Reportf(n.Pos(),
				"access to the stats field without statsMu held: stats is written by concurrent parses (accumulate) and read by Stats(); lock statsMu first")
		}
		return true
	})
}

// mutexPath renders a selector chain ending in a watched mutex field
// (`mu`, or anything ending in `Mu` like statsMu) as a comparable string.
func mutexPath(e ast.Expr) (string, bool) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	if name != "mu" && !strings.HasSuffix(name, "Mu") {
		return "", false
	}
	return renderPath(sel), true
}

// renderPath prints a selector chain (x.y.z) for diagnostics and held-set
// identity; non-identifier bases collapse to "·".
func renderPath(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return renderPath(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return renderPath(e.X)
	case *ast.StarExpr:
		return renderPath(e.X)
	case *ast.CallExpr:
		return renderPath(e.Fun) + "()"
	}
	return "·"
}
