// Package xmllang provides the XML benchmark language (Figure 8, row 2).
// The grammar keeps the paper's signature rule (Section 6.1):
//
//	elt : '<' Name attribute* '>' content '<' '/' Name '>'
//	    | '<' Name attribute* '/>' ;
//
// whose two alternatives share an unbounded '<' Name attribute* prefix —
// the reason the grammar "is not LL(k) for any k" and needs ALL(*)
// prediction. The corpus generator stands in for the Open American
// National Corpus subset used in the paper.
package xmllang

import (
	"fmt"
	"strings"

	"costar/internal/grammar"
	"costar/internal/languages/langkit"
	"costar/internal/lexer"
)

// Source is the grammar, adapted from the ANTLR grammars-v4 XML grammar.
const Source = `
grammar XML;

document : prolog? misc elt misc ;
prolog   : XMLDECLOPEN attribute* SPECIALCLOSE ;
misc     : COMMENT* ;
elt      : '<' NAME attribute* '>' content '<' '/' NAME '>'
         | '<' NAME attribute* '/>' ;
attribute : NAME '=' STRING ;
content  : chunk* ;
chunk    : elt | TEXT | NAME | CDATA | COMMENT ;

XMLDECLOPEN : '<?xml' ;
SPECIALCLOSE : '?>' ;
COMMENT : '<!--' (~[\-] | '-' ~[\-])* '-->' ;
CDATA : '<![CDATA[' (~[\]] | ']' ~[\]])* ']]>' ;
STRING : '"' ~["<]* '"' | '\'' ~['<]* '\'' ;
NAME : [a-zA-Z_:] [a-zA-Z0-9_:.\-]* ;
TEXT : ~[<&="'/>? \t\r\n]+ ;
WS : [ \t\r\n]+ -> skip ;
`

// The real ANTLR XML grammar separates in-tag lexing from content lexing
// with lexer modes; this package's lexer is modeless, so TEXT is a single
// word excluding every in-tag character (=, quotes, /, >, ?, whitespace);
// a run of words is a sequence of TEXT/NAME chunks (hence NAME in chunk).
// A faithful-language simplification, documented in DESIGN.md.

// Lang is the compiled language.
var Lang = langkit.New("xml", Source, nil, nil)

// Grammar returns the desugared BNF grammar (start symbol "document").
func Grammar() *grammar.Grammar { return Lang.Grammar() }

// Lexer returns the compiled lexer.
func Lexer() *lexer.Lexer { return Lang.Lexer() }

// Tokenize lexes an XML document into the parser's token word.
func Tokenize(src string) ([]grammar.Token, error) { return Lang.Tokenize(src) }

var tags = []string{
	"doc", "section", "p", "span", "annotation", "token", "sentence",
	"header", "item", "entry", "note", "title", "body",
}

var attrs = []string{"id", "type", "ref", "lang", "start", "end", "class"}

var texts = []string{
	"the", "quick", "brown", "fox", "jumps", "over", "lazy", "dogs",
	"linguistic", "corpus", "annotated", "sample",
}

// Generate produces a deterministic XML document of roughly targetTokens
// parser tokens.
func Generate(seed int64, targetTokens int) string {
	rng := langkit.NewRNG(seed)
	var b strings.Builder
	b.WriteString("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<corpus>\n")
	used := 11
	for used < targetTokens-8 {
		used += element(rng, &b, targetTokens-used, 1)
		b.WriteString("\n")
	}
	b.WriteString("</corpus>\n")
	return b.String()
}

// element emits one element using roughly budget tokens; returns tokens
// emitted.
func element(rng *langkit.RNG, b *strings.Builder, budget, depth int) int {
	name := tags[rng.Next(len(tags))]
	used := 2 // '<' NAME
	fmt.Fprintf(b, "<%s", name)
	nattrs := rng.Next(4)
	for i := 0; i < nattrs; i++ {
		fmt.Fprintf(b, " %s=\"%s%d\"", rng.Pick(attrs), rng.Pick(texts), rng.Next(100))
		used += 3
	}
	if budget-used < 6 || depth > 30 || rng.Bool(1, 6) {
		b.WriteString("/>")
		return used + 1
	}
	b.WriteString(">")
	used++
	children := 1 + rng.Next(5)
	for i := 0; i < children && used < budget; i++ {
		switch rng.Next(4) {
		case 0:
			fmt.Fprintf(b, "%s %s %s", rng.Pick(texts), rng.Pick(texts), rng.Pick(texts))
			used++
		case 1:
			fmt.Fprintf(b, "<!-- %s -->", rng.Pick(texts))
			used++
		default:
			b.WriteString("\n")
			used += element(rng, b, (budget-used)/(children-i), depth+1)
		}
	}
	fmt.Fprintf(b, "</%s>", name)
	return used + 5
}
