// Package gviz renders parse trees and grammars as Graphviz DOT documents
// (for debugging grammars and inspecting derivations). Pleasingly
// self-referential: the emitted documents conform to the repository's own
// DOT benchmark grammar, and the tests parse them with it.
package gviz

import (
	"fmt"
	"strings"

	"costar/internal/grammar"
	"costar/internal/tree"
)

// TreeDOT renders a parse tree as a DOT digraph: interior nodes are
// ellipses labeled with nonterminals, leaves are boxes labeled
// terminal:literal. Recovery error nodes (partial trees from recovering
// parse mode) are filled light red — inserted-token leaves are labeled
// "(inserted)" — so repaired spans stand out in the rendered tree.
func TreeDOT(v *tree.Tree) string {
	var b strings.Builder
	b.WriteString("digraph parsetree {\n")
	b.WriteString("  node [shape=ellipse];\n")
	id := 0
	var walk func(n *tree.Tree) int
	walk = func(n *tree.Tree) int {
		me := id
		id++
		errStyle := ""
		if n.IsErr() {
			errStyle = `, style=filled, fillcolor="#ffcccc"`
		}
		if n.IsLeaf() {
			tok := n.Token()
			label := tok.Terminal + ": " + tok.Literal
			if n.IsErr() {
				label += " (inserted)"
			}
			fmt.Fprintf(&b, "  n%d [shape=box, label=%s%s];\n", me, quote(label), errStyle)
			return me
		}
		fmt.Fprintf(&b, "  n%d [label=%s%s];\n", me, quote(n.NT()), errStyle)
		for i := 0; i < n.NumChildren(); i++ {
			child := walk(n.Child(i))
			fmt.Fprintf(&b, "  n%d -> n%d;\n", me, child)
		}
		return me
	}
	walk(v)
	b.WriteString("}\n")
	return b.String()
}

// GrammarDOT renders the grammar's nonterminal dependency graph: an edge
// X -> Y for every occurrence of Y in a right-hand side of X, with
// left-corner edges (positions reachable without consuming input)
// highlighted — the graph whose cycles are exactly left recursion.
func GrammarDOT(g *grammar.Grammar, leftCorner func(lhs string, pos int, rhs []grammar.Symbol) bool) string {
	if leftCorner == nil {
		leftCorner = func(_ string, pos int, _ []grammar.Symbol) bool { return pos == 0 }
	}
	var b strings.Builder
	b.WriteString("digraph grammar {\n")
	b.WriteString("  node [shape=box];\n")
	fmt.Fprintf(&b, "  %s [style=filled];\n", ident(g.Start))
	seen := map[string]bool{}
	for _, p := range g.Prods {
		for i, s := range p.Rhs {
			if !s.IsNT() {
				continue
			}
			key := p.Lhs + "\x00" + s.Name
			style := ""
			if leftCorner(p.Lhs, i, p.Rhs) {
				style = " [penwidth=2]"
				key += "\x00lc"
			}
			if seen[key] {
				continue
			}
			seen[key] = true
			fmt.Fprintf(&b, "  %s -> %s%s;\n", ident(p.Lhs), ident(s.Name), style)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// quote renders a DOT double-quoted string literal.
func quote(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// ident renders a name as a DOT id, quoting when necessary.
func ident(s string) string {
	if s == "" {
		return `""`
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return quote(s)
			}
		default:
			return quote(s)
		}
	}
	// Avoid collisions with DOT keywords.
	switch strings.ToLower(s) {
	case "graph", "digraph", "node", "edge", "subgraph", "strict":
		return quote(s)
	}
	return s
}
