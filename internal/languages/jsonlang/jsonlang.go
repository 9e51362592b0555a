// Package jsonlang provides the JSON benchmark language of the paper's
// evaluation (Figure 8, row 1): the grammar (in the ANTLR-4 subset,
// desugared to BNF), the lexer, and a deterministic corpus generator that
// stands in for the paper's JSON data set (which came from an earlier LL(1)
// parser evaluation and is not redistributable; the generator produces
// structurally similar documents of controlled size).
package jsonlang

import (
	"fmt"
	"strings"

	"costar/internal/grammar"
	"costar/internal/languages/langkit"
	"costar/internal/lexer"
)

// Source is the grammar, adapted from the ANTLR grammars-v4 JSON grammar
// that the original ANTLR evaluation used.
const Source = `
grammar JSON;

json  : value ;
value : obj | arr | STRING | NUMBER | 'true' | 'false' | 'null' ;
obj   : '{' pair (',' pair)* '}' | '{' '}' ;
pair  : STRING ':' value ;
arr   : '[' value (',' value)* ']' | '[' ']' ;

STRING : '"' (ESC | ~["\\])* '"' ;
fragment ESC : '\\' (["\\/bfnrt] | UNICODE) ;
fragment UNICODE : 'u' HEX HEX HEX HEX ;
fragment HEX : [0-9a-fA-F] ;
NUMBER : '-'? INT ('.' [0-9]+)? EXP? ;
fragment INT : '0' | [1-9] [0-9]* ;
fragment EXP : [eE] [+\-]? [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
`

// Lang is the compiled language.
var Lang = langkit.New("json", Source, nil, nil)

// Grammar returns the desugared BNF grammar (start symbol "json").
func Grammar() *grammar.Grammar { return Lang.Grammar() }

// Lexer returns the compiled lexer.
func Lexer() *lexer.Lexer { return Lang.Lexer() }

// Tokenize lexes a JSON document into the parser's token word.
func Tokenize(src string) ([]grammar.Token, error) { return Lang.Tokenize(src) }

// Generate produces a deterministic JSON document of roughly targetTokens
// parser tokens, derived from seed. Output is always valid JSON.
func Generate(seed int64, targetTokens int) string {
	g := &gen{rng: langkit.NewRNG(seed)}
	var b strings.Builder
	g.value(&b, targetTokens, 0)
	return b.String()
}

type gen struct{ rng *langkit.RNG }

var words = []string{
	"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
	"hotel", "india", "juliet", "kilo", "lima", "name", "value", "id",
	"nested", "payload", "items", "meta", "count",
}

// value emits a JSON value using roughly budget tokens and reports the
// tokens emitted.
func (g *gen) value(b *strings.Builder, budget, depth int) int {
	if budget <= 4 || depth > 24 {
		return g.scalar(b)
	}
	// Large budgets always recurse into containers so documents actually
	// reach the requested size; small ones mix in scalars.
	switch g.rng.Next(5) {
	case 0, 1:
		return g.object(b, budget, depth)
	case 2:
		return g.array(b, budget, depth)
	default:
		if budget > 12 {
			if g.rng.Bool(1, 2) {
				return g.object(b, budget, depth)
			}
			return g.array(b, budget, depth)
		}
		return g.scalar(b)
	}
}

func (g *gen) scalar(b *strings.Builder) int {
	switch g.rng.Next(5) {
	case 0:
		fmt.Fprintf(b, "%d", g.rng.Next(100000))
	case 1:
		fmt.Fprintf(b, "-%d.%de%d", g.rng.Next(1000), g.rng.Next(1000), g.rng.Next(20))
	case 2:
		fmt.Fprintf(b, "%q", g.rng.Pick(words))
	case 3:
		b.WriteString([]string{"true", "false", "null"}[g.rng.Next(3)])
	default:
		fmt.Fprintf(b, "\"%s %s\"", g.rng.Pick(words), g.rng.Pick(words))
	}
	return 1
}

func (g *gen) object(b *strings.Builder, budget, depth int) int {
	fields := 1 + g.rng.Next(6)
	b.WriteString("{")
	used := 2
	for i := 0; i < fields && used < budget; i++ {
		if i > 0 {
			b.WriteString(", ")
			used++
		}
		fmt.Fprintf(b, "%q: ", g.rng.Pick(words))
		used += 2
		used += g.value(b, (budget-used)/(fields-i), depth+1)
	}
	b.WriteString("}")
	return used
}

func (g *gen) array(b *strings.Builder, budget, depth int) int {
	elems := 1 + g.rng.Next(8)
	b.WriteString("[")
	used := 2
	for i := 0; i < elems && used < budget; i++ {
		if i > 0 {
			b.WriteString(", ")
			used++
		}
		used += g.value(b, (budget-used)/(elems-i), depth+1)
	}
	b.WriteString("]")
	return used
}
