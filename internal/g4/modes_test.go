package g4

import (
	"strings"
	"testing"

	"costar/internal/lexer"
	"costar/internal/parser"
)

// newLexer compiles a parsed file's lexical spec.
func newLexer(f *File) (*lexer.Lexer, error) { return lexer.New(f.Lexer) }

// xmlModesG4 is an XML grammar using lexer modes the way the real
// grammars-v4 XML grammar does: '<' pushes the INSIDE mode, where '=',
// names and strings are tokenized; '>' and '/>' pop back to content mode.
const xmlModesG4 = `
grammar XMLModes;

document : element ;
element : OPEN NAME attribute* CLOSE content OPEN SLASH NAME CLOSE
        | OPEN NAME attribute* SLASHCLOSE ;
attribute : NAME EQ STRING ;
content : chunk* ;
chunk : element | TEXT ;

COMMENT : '<!--' (~[\-] | '-' ~[\-])* '-->' -> skip ;
OPEN : '<' -> pushMode(INSIDE) ;
TEXT : ~[<&]+ ;

mode INSIDE ;
CLOSE : '>' -> popMode ;
SLASHCLOSE : '/>' -> popMode ;
SLASH : '/' ;
EQ : '=' ;
STRING : '"' ~[<"]* '"' ;
NAME : [a-zA-Z_:] [a-zA-Z0-9_:.\-]* ;
S : [ \t\r\n]+ -> skip ;
`

func TestLexerModesXML(t *testing.T) {
	f, g, l := pipeline(t, xmlModesG4)
	if f.Lexer.Rules[1].Push != "INSIDE" {
		t.Fatalf("OPEN rule actions = %+v", f.Lexer.Rules[1])
	}
	// With modes, free text with '=' and quotes is fine — exactly what the
	// modeless benchmark lexer cannot do.
	src := `<doc version="1.0"><p>text with = signs and "quotes" works</p><br/></doc>`
	toks, err := l.Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, tk := range toks {
		names = append(names, tk.Terminal)
	}
	joined := strings.Join(names, " ")
	if !strings.Contains(joined, "OPEN NAME NAME EQ STRING CLOSE") {
		t.Errorf("tokens = %s", joined)
	}
	p := parser.MustNew(g, parser.Options{CheckInvariants: true})
	if res := p.Parse(toks); res.Kind != parser.Unique {
		t.Fatalf("parse = %s", res)
	}
	// TEXT must contain the raw '=' and quotes.
	found := false
	for _, tk := range toks {
		if tk.Terminal == "TEXT" && strings.Contains(tk.Literal, `= signs and "quotes"`) {
			found = true
		}
	}
	if !found {
		t.Errorf("content text mangled: %v", toks)
	}
}

func TestModesNested(t *testing.T) {
	// Nested elements push/pop repeatedly; the mode stack must track depth.
	_, g, l := pipeline(t, xmlModesG4)
	src := `<a><b><c/></b>tail</a>`
	toks, err := l.Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	p := parser.MustNew(g, parser.Options{})
	if res := p.Parse(toks); res.Kind != parser.Unique {
		t.Fatalf("parse = %s", res)
	}
}

func TestModesErrors(t *testing.T) {
	// pushMode to an undefined mode is rejected at lexer build time.
	_, err := Parse(`
		grammar M;
		s : A ;
		A : 'a' -> pushMode(NOWHERE) ;
	`)
	if err == nil {
		// The g4 parse succeeds; the lexer build must fail.
		f := parseOK(t, `
			grammar M;
			s : A ;
			A : 'a' -> pushMode(NOWHERE) ;
		`)
		if _, lerr := newLexer(f); lerr == nil {
			t.Error("undefined mode target accepted")
		}
	}
	// Parser rules inside a mode section are rejected.
	if _, err := Parse(`
		grammar M;
		s : A ;
		A : 'a' ;
		mode X ;
		t : 'b' ;
	`); err == nil || !strings.Contains(err.Error(), "inside mode") {
		t.Errorf("parser rule inside mode: %v", err)
	}
	// Unbalanced popMode fails at scan time with a position.
	f := parseOK(t, `
		grammar M;
		s : A B ;
		A : 'a' -> popMode ;
		B : 'b' ;
	`)
	l, err := newLexer(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Tokenize("ab"); err == nil {
		t.Error("popMode on empty stack accepted")
	}
}

func TestCombinedActions(t *testing.T) {
	// "-> skip, popMode" in one action list.
	f := parseOK(t, `
		grammar M;
		s : A T ;
		A : 'a' -> pushMode(IN) ;
		T : 'x' ;
		mode IN ;
		END : ']' -> skip, popMode ;
	`)
	var end *int
	for i, r := range f.Lexer.Rules {
		if r.Name == "END" {
			i := i
			end = &i
		}
	}
	if end == nil {
		t.Fatal("END rule missing")
	}
	r := f.Lexer.Rules[*end]
	if !r.Skip || !r.Pop || r.Mode != "IN" {
		t.Errorf("END rule = %+v", r)
	}
}
