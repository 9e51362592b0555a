// Package lockorder enforces the stats mutex contract and the leaf rule
// for the mutexes of the parser and prediction packages (DESIGN.md §5b):
//
//  1. In the parser package, the `stats` field is guarded by `statsMu`:
//     any function touching `.stats` must have acquired `.statsMu`
//     first (and not released it before the access).
//  2. The watched mutexes are leaves: no function may acquire one while
//     holding another (statsMu vs. the SLL cache's shard mutexes, or two
//     shards, in either order). A consistent never-nest rule cannot
//     deadlock; any nesting is a latent lock-inversion the moment a
//     second nesting appears.
//
// The checks are syntactic over a linear in-source-order walk of each
// function body — the same soundness argument as cowedges: the fields
// involved (mu, statsMu, stats) are unexported, so every access site
// lives in the matched packages, and `defer mu.Unlock()` keeps the mutex
// held to function end. Suppress a provably-safe site with
// `//costar:allow lockorder -- <why>`.
package lockorder

import (
	"go/ast"
	"strings"

	"costar/tools/analyzers/analyzerkit"
)

// Analyzer is the exported instance for multichecker bundling.
var Analyzer = &analyzerkit.Analyzer{
	Name: "lockorder",
	Doc: "enforce the stats-mutex contract and the leaf-mutex rule\n\n" +
		"parser's stats field needs statsMu, and the watched mutexes (statsMu, the SLL\n" +
		"cache's shard mu) are leaves — acquiring one while holding another is a latent\n" +
		"lock inversion.",
	Run: run,
	Match: func(pkgName, pkgPath string) bool {
		return pkgName == "prediction" || pkgName == "parser"
	},
}

func run(pass *analyzerkit.Pass) error {
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Filename(f.Pos()), "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			walkBody(pass, fd.Body)
		}
	}
	return nil
}

// walkBody walks one function or closure body in source order, tracking
// which watched mutexes are held, and reports discipline violations at
// each site.
func walkBody(pass *analyzerkit.Pass, body *ast.BlockStmt) {
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
			walkBody(pass, n.Body)
			return false
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the mutex held to function end;
			// deliberately not treated as a release.
			return false
		case *ast.CallExpr:
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
