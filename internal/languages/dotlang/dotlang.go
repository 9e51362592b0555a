// Package dotlang provides the Graphviz DOT benchmark language (Figure 8,
// row 3), adapted from the ANTLR grammars-v4 DOT grammar that the original
// ANTLR evaluation used (keywords lowercased; DOT's case-insensitivity is
// a lexer nicety, not a parsing concern). The generator stands in for the
// ANTLR evaluation's DOT corpus.
package dotlang

import (
	"fmt"
	"strings"

	"costar/internal/grammar"
	"costar/internal/languages/langkit"
	"costar/internal/lexer"
)

// Source is the grammar.
const Source = `
grammar DOT;

graph : 'strict'? ('graph' | 'digraph') id? '{' stmt_list '}' ;
stmt_list : (stmt ';'?)* ;
stmt : edge_stmt | node_stmt | attr_stmt | id '=' id | subgraph ;
attr_stmt : ('graph' | 'node' | 'edge') attr_list ;
attr_list : ('[' a_list? ']')+ ;
a_list : (id ('=' id)? ','?)+ ;
edge_stmt : (node_id | subgraph) edgeRHS attr_list? ;
edgeRHS : (edgeop (node_id | subgraph))+ ;
edgeop : '->' | '--' ;
node_stmt : node_id attr_list? ;
node_id : id port? ;
port : ':' id (':' id)? ;
subgraph : ('subgraph' id?)? '{' stmt_list '}' ;
id : ID | STRING | NUMBER ;

ID : [a-zA-Z_] [a-zA-Z0-9_]* ;
NUMBER : '-'? ('.' [0-9]+ | [0-9]+ ('.' [0-9]*)?) ;
STRING : '"' (~["\\] | '\\' .)* '"' ;
COMMENT : '/*' (~[*] | '*' ~[/])* '*/' -> skip ;
LINE_COMMENT : '//' ~[\n]* -> skip ;
WS : [ \t\r\n]+ -> skip ;
`

// Lang is the compiled language.
var Lang = langkit.New("dot", Source, nil, nil)

// Grammar returns the desugared BNF grammar (start symbol "graph").
func Grammar() *grammar.Grammar { return Lang.Grammar() }

// Lexer returns the compiled lexer.
func Lexer() *lexer.Lexer { return Lang.Lexer() }

// Tokenize lexes a DOT document into the parser's token word.
func Tokenize(src string) ([]grammar.Token, error) { return Lang.Tokenize(src) }

var nodeAttrs = []string{"label", "shape", "color", "style", "weight", "penwidth"}
var attrVals = []string{"box", "circle", "red", "blue", "dashed", "bold", "filled"}

// Generate produces a deterministic DOT digraph of roughly targetTokens
// parser tokens.
func Generate(seed int64, targetTokens int) string {
	rng := langkit.NewRNG(seed)
	var b strings.Builder
	b.WriteString("digraph generated {\n")
	used := 4
	b.WriteString("  graph [rankdir=LR];\n  node [shape=box, style=filled];\n")
	used += 14
	nodes := 0
	nextNode := func() string {
		nodes++
		return fmt.Sprintf("n%d", nodes)
	}
	for used < targetTokens-4 {
		switch rng.Next(5) {
		case 0: // node statement with attributes
			fmt.Fprintf(&b, "  %s [%s=%q, %s=%s];\n",
				nextNode(), rng.Pick(nodeAttrs), rng.Pick(attrVals),
				rng.Pick(nodeAttrs), rng.Pick(attrVals))
			used += 13
		case 1: // edge chain
			n := 2 + rng.Next(4)
			fmt.Fprintf(&b, "  n%d", 1+rng.Next(max(nodes, 1)))
			used++
			for i := 0; i < n; i++ {
				fmt.Fprintf(&b, " -> n%d", 1+rng.Next(max(nodes, 1)))
				used += 2
			}
			if rng.Bool(1, 3) {
				fmt.Fprintf(&b, " [weight=%d]", rng.Next(10))
				used += 5
			}
			b.WriteString(";\n")
			used++
		case 2: // graph-level assignment
			fmt.Fprintf(&b, "  fontsize = %d;\n", 8+rng.Next(24))
			used += 4
		case 3: // subgraph
			fmt.Fprintf(&b, "  subgraph cluster_%d { label = %q; n%d -> n%d }\n",
				rng.Next(100), rng.Pick(attrVals),
				1+rng.Next(max(nodes, 1)), 1+rng.Next(max(nodes, 1)))
			used += 14
		default: // node with port
			fmt.Fprintf(&b, "  %s:port%d -- n%d;\n", nextNode(), rng.Next(4), 1+rng.Next(max(nodes, 1)))
			used += 7
		}
	}
	b.WriteString("}\n")
	return b.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
