package g4

import (
	"strings"
	"testing"

	"costar/internal/ebnf"
	"costar/internal/grammar"
	"costar/internal/lexer"
	"costar/internal/parser"
)

const jsonG4 = `
// A JSON grammar in the supported ANTLR-4 subset.
grammar JSON;

json  : value ;
value : obj | arr | STRING | NUMBER | 'true' | 'false' | 'null' ;
obj   : '{' pair (',' pair)* '}' | '{' '}' ;
pair  : STRING ':' value ;
arr   : '[' value (',' value)* ']' | '[' ']' ;

STRING : '"' (ESC | ~["\\])* '"' ;
fragment ESC : '\\' . ;
NUMBER : '-'? INT ('.' [0-9]+)? EXP? ;
fragment INT : '0' | [1-9] [0-9]* ;
fragment EXP : [eE] [+\-]? [0-9]+ ;
WS : [ \t\r\n]+ -> skip ;
`

func pipeline(t *testing.T, src string) (*File, *grammar.Grammar, *lexer.Lexer) {
	t.Helper()
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ebnf.Desugar(f.Parser)
	if err != nil {
		t.Fatal(err)
	}
	l, err := lexer.New(f.Lexer)
	if err != nil {
		t.Fatal(err)
	}
	return f, g, l
}

func TestJSONPipeline(t *testing.T) {
	f, g, l := pipeline(t, jsonG4)
	if f.Name != "JSON" {
		t.Errorf("Name = %q", f.Name)
	}
	if g.Start != "json" {
		t.Errorf("start = %q", g.Start)
	}
	toks, err := l.Tokenize(`{"a": [1, 2.5, true], "b": {"c": null}} `)
	if err != nil {
		t.Fatal(err)
	}
	p := parser.MustNew(g, parser.Options{CheckInvariants: true})
	res := p.Parse(toks)
	if res.Kind != parser.Unique {
		t.Fatalf("parse = %s", res)
	}
	// Bad JSON rejects.
	bad, err := l.Tokenize(`{"a": }`)
	if err != nil {
		t.Fatal(err)
	}
	if res := p.Parse(bad); res.Kind != parser.Reject {
		t.Errorf("bad JSON = %s", res)
	}
}

func TestImplicitTokensPriority(t *testing.T) {
	f, _, l := pipeline(t, `
		grammar K;
		s : 'let' ID ;
		ID : [a-z]+ ;
		WS : [ ]+ -> skip ;
	`)
	// Implicit 'let' must be listed before ID so the keyword wins ties.
	if f.Lexer.Rules[0].Name != "let" {
		t.Errorf("first lexer rule = %q", f.Lexer.Rules[0].Name)
	}
	toks, err := l.Tokenize("let letx")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Terminal != "let" || toks[1].Terminal != "ID" {
		t.Errorf("tokens = %v", toks)
	}
}

func TestNegatedSetsAndFragments(t *testing.T) {
	_, _, l := pipeline(t, `
		grammar N;
		s : COMMENT ;
		COMMENT : '#' ~[\n]* ;
	`)
	toks, err := l.Tokenize("# everything until eol")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 1 || toks[0].Terminal != "COMMENT" {
		t.Errorf("tokens = %v", toks)
	}
}

func TestCharRange(t *testing.T) {
	_, _, l := pipeline(t, `
		grammar R;
		s : D ;
		D : 'a'..'f'+ ;
	`)
	toks, err := l.Tokenize("abcdef")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 1 {
		t.Errorf("tokens = %v", toks)
	}
	if _, err := l.Tokenize("xyz"); err == nil {
		t.Error("out-of-range input lexed")
	}
}

func TestEOFIsIgnored(t *testing.T) {
	f, err := Parse(`
		grammar E;
		s : 'a' EOF ;
	`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ebnf.Desugar(f.Parser)
	if err != nil {
		t.Fatal(err)
	}
	rhs := g.RhssFor("s")[0]
	if len(rhs) != 1 || rhs[0] != grammar.T("a") {
		t.Errorf("rhs = %v", rhs)
	}
}

func TestChannelDirective(t *testing.T) {
	f, _, _ := pipeline(t, `
		grammar C;
		s : 'x' ;
		HIDDENWS : [ ]+ -> channel(HIDDEN) ;
	`)
	var found bool
	for _, r := range f.Lexer.Rules {
		if r.Name == "HIDDENWS" && r.Skip {
			found = true
		}
	}
	if !found {
		t.Error("channel(HIDDEN) rule not marked skip")
	}
}

func TestXMLEltRule(t *testing.T) {
	// The §6.1 rule that makes XML non-LL(k): both alternatives share the
	// '<' Name attribute* prefix. End-to-end it must still parse uniquely.
	_, g, l := pipeline(t, `
		grammar X;
		elt : '<' NAME attr* '>' content '<' '/' NAME '>'
		    | '<' NAME attr* '/>' ;
		attr : NAME '=' STRING ;
		content : elt* ;
		NAME : [a-zA-Z]+ ;
		STRING : '"' ~["]* '"' ;
		WS : [ \t\r\n]+ -> skip ;
	`)
	p := parser.MustNew(g, parser.Options{CheckInvariants: true})
	for _, src := range []string{
		`<a x="1" y="2"/>`,
		`<a x="1"><b/><c q="r"></c></a>`,
		`<a></a>`,
	} {
		toks, err := l.Tokenize(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if res := p.Parse(toks); res.Kind != parser.Unique {
			t.Errorf("%s: %s", src, res)
		}
	}
	toks, _ := l.Tokenize(`<a><b></a>`)
	if res := p.Parse(toks); res.Kind != parser.Reject {
		t.Errorf("mismatched tags parsed: %s", res)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,                                    // empty
		`grammar G;`,                          // no parser rules
		`grammar G; s : 'a'`,                  // missing ;
		`grammar G; s : X ; X : Y ; Y : X ;`,  // recursive lexer rules
		`grammar G; s : X ; X : ~('ab') ;`,    // ~ on multi-char literal
		`grammar G; s : X ;`,                  // undefined lexer rule
		`grammar G; s : 'a' -> skipp ;`,       // unknown action
		`grammar G; fragment s : 'a' ;`,       // fragment on parser rule
		`grammar G; s : [a-z] ;`,              // class in parser rule
		`grammar G; s : 'a' /* unterminated`,  // comment
		`grammar G; s : 'unterminated`,        // literal
		`grammar G; X : 'a'..'ab' ;  s : X ;`, // bad range
	}
	for _, src := range cases {
		f, err := Parse(src)
		if err == nil {
			// Some failures surface at desugar/lexer-build time.
			if _, derr := ebnf.Desugar(f.Parser); derr == nil {
				if _, lerr := lexer.New(f.Lexer); lerr == nil {
					t.Errorf("pipeline accepted %q", src)
				}
			}
		}
	}
}

// parseOK is Parse failing the test on error.
func parseOK(t *testing.T, src string) *File {
	t.Helper()
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFileString(t *testing.T) {
	s := parseOK(t, jsonG4).String()
	if !strings.Contains(s, "JSON") || !strings.Contains(s, "parser rules") {
		t.Errorf("String = %q", s)
	}
}

func TestBlockCommentsAndLines(t *testing.T) {
	f, err := Parse(`
		grammar B; /* multi
		line comment */ s : 'a' /* inline */ 'b' ;
	`)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := ebnf.Desugar(f.Parser)
	rhs := g.RhssFor("s")[0]
	if len(rhs) != 2 {
		t.Errorf("rhs = %v", rhs)
	}
}

func TestLiteralEscapes(t *testing.T) {
	f, _, l := pipeline(t, `
		grammar L;
		s : T ;
		T : '\'' '\\'? '\n' ;
	`)
	_ = f
	toks, err := l.Tokenize("'\\\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 1 || toks[0].Terminal != "T" {
		t.Errorf("tokens = %v", toks)
	}
}

// TestNonGreedyRefused: ANTLR's `*?`, `+?` and `??` are non-greedy, which a
// longest-match lexer cannot honour. Read as a greedy loop made optional,
// `'/*' .*? '*/'` would lex `/* a */ x /* b */` as one comment and hide
// `x`, so a lexer rule with such a suffix is refused with its line.
func TestNonGreedyRefused(t *testing.T) {
	for _, suffix := range []string{"*?", "+?", "??", "* ?"} {
		src := "grammar C;\ns : ID* ;\nID : [a-z]+ ;\nCOMMENT : '/*' ." + suffix + " '*/' -> skip ;\nWS : ' '+ -> skip ;\n"
		_, err := Parse(src)
		if err == nil || !strings.HasPrefix(err.Error(), "g4: line 4: ") || !strings.Contains(err.Error(), "longest match") {
			t.Errorf("%q: err = %v", suffix, err)
		}
	}
	// In a parser rule a stacked suffix leaves the language unchanged.
	f, g, _ := pipeline(t, "grammar P;\ns : 'a'*? 'b' ;\n")
	if len(f.Parser.Rules) != 1 || g.Start != "s" {
		t.Errorf("parser rule with *? = %v", f.Parser.Rules)
	}
}
