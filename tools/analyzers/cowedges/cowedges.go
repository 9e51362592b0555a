// Package cowedges flags writes to the SLL DFA's slot tables in
// internal/prediction other than a compare-and-swap from nil.
//
// A dfaState's edges row and a cacheGen's starts hold atomic.Pointer slots
// that every parsing goroutine reads with one atomic load. A slot is
// written once: CompareAndSwap(nil, next) publishes it, and a racer that
// loses the swap adopts the winner, which content addressing makes the
// identical state. Three mistakes break this silently and only under load:
//
//   - Store or Swap on a slot, which overwrites a published edge or start
//     that another goroutine may already have followed;
//   - CompareAndSwap from a non-nil old value, which replaces one the same
//     way; and
//   - a plain write through the table — assigning a slot or the row,
//     clear() — which races with the lock-free readers.
//
// Tables are built in composite literals, which are not writes. The one
// wholesale zeroing, Cache.Clear on a cache no other goroutine can reach,
// carries a //costar:allow annotation.
//
// A generation's frame table (genFrames) is read the same way: a frame is
// read by ID with no lock, by any goroutine holding a state that names it.
// Its chunks are therefore written only by genFrames.intern, which fills
// the slot of the ID it is allocating, under the table's mutex, before any
// state can name it; any other write through chunks could change a
// published frame under a reader.
//
// The check is syntactic, as the fields are unexported: every access site
// lives in package prediction.
package cowedges

import (
	"go/ast"

	"costar/tools/analyzers/analyzerkit"
)

// slotTables are the fields that hold atomic.Pointer slots.
var slotTables = map[string]bool{"edges": true, "starts": true}

// frameTable is the frame table's chunk field, and frameWriter the one
// method (receiver type and name) that may write through it.
const (
	frameTable  = "chunks"
	frameWriter = "genFrames.intern"
)

// mutators are the atomic.Pointer methods that write a slot.
var mutators = map[string]bool{"Store": true, "Swap": true, "CompareAndSwap": true}

// Analyzer is the exported instance for multichecker bundling.
var Analyzer = &analyzerkit.Analyzer{
	Name: "cowedges",
	Doc: "flag writes to the SLL DFA's edge and start slots other than CompareAndSwap(nil, …)\n\n" +
		"dfaState.edges and cacheGen.starts are lock-free shared slot tables; a slot is\n" +
		"written once, by a compare-and-swap from nil. The frame table's chunks are read\n" +
		"without a lock too, and only genFrames.intern writes them.",
	Run: run,
}

func run(pass *analyzerkit.Pass) error {
	if pass.PkgName != "prediction" {
		return nil
	}
	for _, f := range pass.Files {
		for _, w := range analyzerkit.Writes(f) {
			if sel := slotTable(w.Target); sel != nil {
				pass.Reportf(sel.Sel.Pos(),
					"plain write through DFA slot table %s races with lock-free readers: a slot is written only by CompareAndSwap(nil, …)",
					sel.Sel.Name)
			}
			if sel := selectorNamed(w.Target, frameTable); sel != nil && enclosingMethod(f, w.Node) != frameWriter {
				pass.Reportf(sel.Sel.Pos(),
					"write through the frame table's %s outside %s races with lock-free readers: a frame is written once, at the ID intern allocates",
					frameTable, frameWriter)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			method, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !mutators[method.Sel.Name] {
				return true
			}
			sel := slotTable(method.X)
			if sel == nil {
				return true
			}
			if method.Sel.Name != "CompareAndSwap" {
				pass.Reportf(method.Sel.Pos(),
					"%s on a DFA %s slot can overwrite a published state: publish with CompareAndSwap(nil, …)",
					method.Sel.Name, sel.Sel.Name)
			} else if len(call.Args) == 0 || !isNil(call.Args[0]) {
				pass.Reportf(method.Sel.Pos(),
					"CompareAndSwap on a DFA %s slot with a non-nil old value replaces a published state: a slot is written only from nil",
					sel.Sel.Name)
			}
			return true
		})
	}
	return nil
}

// slotTable returns the edges or starts selector that e reaches through,
// or nil.
func slotTable(e ast.Expr) *ast.SelectorExpr {
	for _, sel := range analyzerkit.SelectorsIn(e) {
		if slotTables[sel.Sel.Name] {
			return sel
		}
	}
	return nil
}

// selectorNamed returns the selector of field name that e reaches through,
// or nil.
func selectorNamed(e ast.Expr, name string) *ast.SelectorExpr {
	for _, sel := range analyzerkit.SelectorsIn(e) {
		if sel.Sel.Name == name {
			return sel
		}
	}
	return nil
}

// enclosingMethod names the function declaration of f around n as
// "Recv.Name" for a method (the receiver's type name, pointer or not) or
// "Name" for a function; "" outside any.
func enclosingMethod(f *ast.File, n ast.Node) string {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || n.Pos() < fd.Pos() || n.End() > fd.End() {
			continue
		}
		if fd.Recv == nil || len(fd.Recv.List) == 0 {
			return fd.Name.Name
		}
		recv := fd.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if id, ok := recv.(*ast.Ident); ok {
			return id.Name + "." + fd.Name.Name
		}
		return fd.Name.Name
	}
	return ""
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}
