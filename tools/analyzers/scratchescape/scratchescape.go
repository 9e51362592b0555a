// Package scratchescape enforces the DESIGN.md §5f lifetime contract:
// values carved from pooled per-parse scratch — machine.Mem's in-place
// state, nodes and buffers, prediction's decision scratch, the parser's
// pooled parseScratch — must
// never flow into anything that outlives the parse: a Result (other than
// the documented machine.Result.Final exception), or the shared SLL DFA
// cache's retained structures (dfaState fields, the retained parameters
// of newDFAState) without first passing a recognized deep copy
// (stateMem.copyConfigs/copyInts, or an element-copying append of a
// value-typed slice).
//
// The analysis is analyzerkit's intra-procedural taint walker: scratch
// taint enters at a declarative list of field reads (the arena fields of
// Mem and prediction's scratch struct), propagates through assignments,
// arena allocation calls, and same-package call summaries, is filtered by
// a type gate (only types that can alias pooled memory carry taint — a
// tree.ID copied out of a scratch accumulator is clean, the []tree.ID
// accumulator buffer itself is not), and is reported where it crosses a
// retention boundary. Escapes a human can prove safe are suppressed in place with
// `//costar:allow scratchescape -- <why>`.
//
// Matching is by declared package name (machine, prediction, parser), so
// the fixture replicas under testdata exercise the same spec the real
// packages are held to. Test files are exempt: tests may wire scratch
// however they like, nothing they build outlives the test.
package scratchescape

import (
	"go/ast"
	"go/types"
	"strings"

	"costar/tools/analyzers/analyzerkit"
)

// sourceFields lists the field reads that introduce scratch taint:
// pkgName → typeName → field set. A nil field set means every field.
var sourceFields = map[string]map[string]map[string]bool{
	"machine": {
		// An in-place run's scratch: the state it steps, the per-depth
		// stack nodes with their accumulator buffers (levels), the visited
		// set's overflow words, and the bottom frame's start symbol. The
		// run's tree table (State.Trees) is Result-scoped and deliberately
		// not a source — see the §5f contract in mem.go.
		"Mem": {"state": true, "levels": true, "words": true, "start": true},
	},
	"prediction": {
		"scratch": nil, // every field of the decision scratch is scratch
		// closureResult.stable aliases the decision scratch ("valid only
		// until the engine's next call of the same kind" — subparser.go);
		// the other fields are values.
		"closureResult": {"stable": true},
	},
}

// sanitizers are the recognized deep-copy functions: calls whose result
// is cache-owned no matter what went in. Bare names are package
// functions, Type.Method names are methods.
var sanitizers = map[string]bool{
	"stateMem.copyConfigs": true, // carves from the cache generation's slabs
	"stateMem.copyInts":    true,
}

// retainedParams maps same-package functions that retain specific
// parameters into cache-owned structure: function name → retained
// parameter indices. These are the "annotated summaries" for the intern
// path: newDFAState stores cfgs and haltedAlts into the dfaState it
// returns, but only reads alts.
var retainedParams = map[string][]int{
	"newDFAState": {0, 2}, // (cfgs, alts, haltedAlts, anomalous)
}

// retainedTypes are the structs whose fields are retention boundaries:
// storing scratch into them publishes it beyond the parse. Result is
// handled separately for the Final exception.
var retainedTypes = map[string]map[string]bool{
	"prediction": {"dfaState": true, "cacheGen": true, "Cache": true},
}

// resultTypes are the per-parse result structs; every field store is a
// boundary except the documented exceptions.
var resultTypes = map[string]map[string]map[string]bool{
	// machine.Result.Final is scratch BY CONTRACT: the parser must drop
	// it before releasing its Mem (§5f); the analyzer encodes exactly
	// that exception.
	"machine": {"Result": {"Final": true}},
	"parser":  {"Result": {}},
}

// taintCapable lists the named types that can alias pooled scratch
// memory. Slices and maps always can (their backing arrays/buckets may
// be arena-carved); everything else — basics, strings, *tree.Tree,
// grammar.Token, Usage values — cannot.
var taintCapable = map[string]map[string]bool{
	"machine":    {"State": true, "PrefixStack": true, "SuffixStack": true, "PrefixFrame": true, "SuffixFrame": true, "NTSet": true, "Mem": true, "Result": true, "level": true},
	"prediction": {"config": true, "scratch": true, "engine": true},
	"arena":      {"Arena": true, "Slab": true},
}

// Analyzer is the exported instance for multichecker bundling.
var Analyzer = &analyzerkit.Analyzer{
	Name: "scratchescape",
	Doc: "flag pooled scratch escaping into Results or the shared DFA cache\n\n" +
		"Per-parse scratch (machine.Mem's in-place nodes and buffers, prediction decision\n" +
		"scratch) is reused by the next parse; anything that outlives the parse — Result\n" +
		"fields, interned dfaStates — must hold deep copies (stateMem.copyConfigs/copyInts).\n" +
		"An escape is a use-after-reset when the pooled Mem serves its next parse.",
	Run:       run,
	NeedTypes: true,
	Match: func(pkgName, pkgPath string) bool {
		switch pkgName {
		case "machine", "prediction", "parser":
			return true
		}
		return false
	},
}

func spec() analyzerkit.TaintSpec {
	return analyzerkit.TaintSpec{
		Source:    isSource,
		Sanitizer: isSanitizer,
		Type:      canCarryTaint,
	}
}

func isSource(p *analyzerkit.Pass, e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, typ, field := analyzerkit.FieldOf(p.Info, sel)
	byType, ok := sourceFields[pkg]
	if !ok {
		return false
	}
	fields, ok := byType[typ]
	if !ok {
		return false
	}
	return fields == nil || fields[field]
}

func isSanitizer(p *analyzerkit.Pass, call *ast.CallExpr) bool {
	if _, typ, method := analyzerkit.ReceiverOf(p.Info, call); typ != "" {
		return sanitizers[typ+"."+method]
	}
	if fn := analyzerkit.CalleeOf(p.Info, call); fn != nil {
		return sanitizers[fn.Name()]
	}
	return false
}

func canCarryTaint(t types.Type) bool {
	t = analyzerkit.Deref(t)
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Chan:
		return true
	case *types.Basic, *types.Signature:
		return false
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return false
	}
	return taintCapable[obj.Pkg().Name()][obj.Name()]
}

func run(pass *analyzerkit.Pass) error {
	if pass.Info == nil {
		// No type resolution in this mode (see Pass.TypesErr); the
		// standalone `make lint` run is the strict gate.
		return nil
	}
	flow := analyzerkit.NewFlow(pass, spec())
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Filename(f.Pos()), "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			flow.Analyze(fd)
			checkFunc(pass, flow, fd)
		}
	}
	return nil
}

// checkFunc reports every tainted value crossing a retention boundary
// inside fd.
func checkFunc(pass *analyzerkit.Pass, flow *analyzerkit.Flow, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				rhs := n.Rhs[min(i, len(n.Rhs)-1)]
				if !flow.Tainted(rhs) {
					continue
				}
				pkg, typ, field := analyzerkit.FieldOf(pass.Info, sel)
				if pkg == "" {
					continue
				}
				if retainedTypes[pkg][typ] {
					pass.Reportf(n.Pos(),
						"scratch-allocated value stored into cache-retained %s.%s.%s: the shared DFA cache outlives the parse; deep-copy first (stateMem.copyConfigs/copyInts)",
						pkg, typ, field)
					continue
				}
				if exceptions, ok := resultTypes[pkg][typ]; ok && !exceptions[field] {
					pass.Reportf(n.Pos(),
						"scratch-allocated value stored into %s.Result.%s: Results outlive the pooled Mem that backs this value (use-after-reset); copy into Result-scoped memory",
						pkg, field)
				}
			}
		case *ast.CompositeLit:
			checkComposite(pass, flow, n)
		case *ast.CallExpr:
			checkRetainingCall(pass, flow, n)
		}
		return true
	})
}

// checkComposite flags tainted values in composite literals of retained
// or result types.
func checkComposite(pass *analyzerkit.Pass, flow *analyzerkit.Flow, lit *ast.CompositeLit) {
	tv, ok := pass.Info.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	n, ok := analyzerkit.Deref(tv.Type).(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return
	}
	pkg, typ := n.Obj().Pkg().Name(), n.Obj().Name()
	retained := retainedTypes[pkg][typ]
	exceptions, isResult := resultTypes[pkg][typ]
	if !retained && !isResult {
		return
	}
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		field := ""
		value := elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				field = id.Name
			}
			value = kv.Value
		} else if i < st.NumFields() {
			field = st.Field(i).Name()
		}
		if !flow.Tainted(value) {
			continue
		}
		if isResult && exceptions[field] {
			continue
		}
		what := "cache-retained"
		if isResult {
			what = "parse-outliving"
		}
		pass.Reportf(value.Pos(),
			"scratch-allocated value in %s %s.%s literal (field %s): deep-copy before it outlives the parse",
			what, pkg, typ, field)
	}
}

// checkRetainingCall flags tainted arguments in the retained positions of
// annotated functions (the intern path's newDFAState).
func checkRetainingCall(pass *analyzerkit.Pass, flow *analyzerkit.Flow, call *ast.CallExpr) {
	fn := analyzerkit.CalleeOf(pass.Info, call)
	if fn == nil {
		return
	}
	retained, ok := retainedParams[fn.Name()]
	if !ok || fn.Pkg() == nil || fn.Pkg().Name() != pass.PkgName {
		return
	}
	for _, idx := range retained {
		if idx >= len(call.Args) {
			continue
		}
		if flow.Tainted(call.Args[idx]) {
			pass.Reportf(call.Args[idx].Pos(),
				"scratch-allocated value passed to %s parameter %d, which is retained by the DFA cache: deep-copy first (stateMem.copyConfigs/copyInts)",
				fn.Name(), idx)
		}
	}
}
