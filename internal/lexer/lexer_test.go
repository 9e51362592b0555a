package lexer

import (
	"math/rand"
	"strings"
	"testing"

	"costar/internal/grammar"
	"costar/internal/rx"
)

func jsonSpec() Spec {
	return Spec{Rules: []Rule{
		Lit("{"), Lit("}"), Lit("["), Lit("]"), Lit(","), Lit(":"),
		Lit("true"), Lit("false"), Lit("null"),
		Pat("STRING", `"([^"\\]|\\.)*"`),
		Pat("NUMBER", `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+\-]?[0-9]+)?`),
		Skip("WS", `[ \t\r\n]+`),
	}}
}

func TestTokenizeJSON(t *testing.T) {
	l := MustNew(jsonSpec())
	toks, err := l.Tokenize(`{"a": [1, -2.5e3, true], "b": null}`)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, tk := range toks {
		names = append(names, tk.Terminal)
	}
	want := "{ STRING : [ NUMBER , NUMBER , true ] , STRING : null }"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("terminals = %q, want %q", got, want)
	}
	if toks[1].Literal != `"a"` {
		t.Errorf("string literal = %q", toks[1].Literal)
	}
	if toks[6].Literal != "-2.5e3" {
		t.Errorf("number literal = %q", toks[6].Literal)
	}
}

func TestMaximalMunchAndPriority(t *testing.T) {
	// "truex" must lex as an identifier, not keyword "true" + "x":
	// maximal munch prefers the longer IDENT match.
	spec := Spec{Rules: []Rule{
		Lit("true"),
		Pat("IDENT", "[a-z]+"),
		Skip("WS", " +"),
	}}
	l := MustNew(spec)
	toks, err := l.Tokenize("truex true trues")
	if err != nil {
		t.Fatal(err)
	}
	got := []string{toks[0].Terminal, toks[1].Terminal, toks[2].Terminal}
	if got[0] != "IDENT" || got[1] != "true" || got[2] != "IDENT" {
		t.Errorf("terminals = %v", got)
	}
	// Priority: on equal length, the earlier rule wins ("true" is both the
	// keyword and an IDENT; keyword is listed first).
	if toks[1].Terminal != "true" {
		t.Error("rule priority not respected on tie")
	}
}

func TestScanPositions(t *testing.T) {
	l := MustNew(Spec{Rules: []Rule{
		Pat("ID", "[a-z]+"),
		Skip("NL", `\n`),
		Skip("SP", " +"),
	}})
	lexs, err := l.Scan("ab cd\nef")
	if err != nil {
		t.Fatal(err)
	}
	type pos struct{ line, col int }
	want := []pos{{1, 1}, {1, 3}, {1, 4}, {1, 6}, {2, 1}}
	if len(lexs) != len(want) {
		t.Fatalf("lexeme count = %d", len(lexs))
	}
	for i, w := range want {
		if lexs[i].Line != w.line || lexs[i].Col != w.col {
			t.Errorf("lexeme %d at %d:%d, want %d:%d", i, lexs[i].Line, lexs[i].Col, w.line, w.col)
		}
	}
	if lexs[4].Offset != 6 {
		t.Errorf("offset = %d", lexs[4].Offset)
	}
}

func TestLexError(t *testing.T) {
	l := MustNew(Spec{Rules: []Rule{Pat("A", "a+")}})
	_, err := l.Tokenize("aaa%aa")
	if err == nil {
		t.Fatal("expected error")
	}
	le, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if le.Line != 1 || le.Col != 4 || le.Offset != 3 {
		t.Errorf("position = %d:%d@%d", le.Line, le.Col, le.Offset)
	}
	if !strings.Contains(le.Error(), "line 1, col 4") {
		t.Errorf("message = %q", le.Error())
	}
}

func TestEmptyMatchRuleRejected(t *testing.T) {
	_, err := New(Spec{Rules: []Rule{Pat("BAD", "a*")}})
	if err == nil {
		t.Error("ε-accepting rule not rejected")
	}
	_, err = New(Spec{Rules: []Rule{{Name: "", Pattern: nil}}})
	if err == nil {
		t.Error("unnamed rule not rejected")
	}
}

// TestEmptyMatchRuleNamed: the mode automaton's start state names the
// first ε-accepting rule of its mode, in any mode.
func TestEmptyMatchRuleNamed(t *testing.T) {
	_, err := New(Spec{Rules: []Rule{
		Pat("A", "a"),
		{Name: "IN", Pattern: rx.MustParse("b"), Push: "M"},
		{Name: "OK", Pattern: rx.MustParse("c+"), Mode: "M"},
		{Name: "BAD", Pattern: rx.MustParse("c?"), Mode: "M"},
		{Name: "WORSE", Pattern: rx.MustParse("d*"), Mode: "M"},
	}})
	if err == nil || err.Error() != "lexer: rule BAD accepts the empty string" {
		t.Errorf("error = %v", err)
	}
}

func TestRoundTripReassembly(t *testing.T) {
	l := MustNew(jsonSpec())
	src := `  {"k" : [1,2 , {"n": null}],
	"s": "x\"y"}  `
	lexs, err := l.Scan(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := Reassemble(lexs); got != src {
		t.Errorf("reassembly mismatch:\n%q\nvs\n%q", got, src)
	}
}

// TestRoundTripProperty: for random JSON-ish source, scanning with skips
// retained always reconstructs the input exactly.
func TestRoundTripProperty(t *testing.T) {
	l := MustNew(jsonSpec())
	rng := rand.New(rand.NewSource(11))
	pieces := []string{`{`, `}`, `[`, `]`, `,`, `:`, ` `, "\n", "\t",
		`"ab"`, `"\\"`, `""`, `0`, `-12`, `3.5`, `1e9`, `true`, `false`, `null`}
	for trial := 0; trial < 300; trial++ {
		var b strings.Builder
		for i := 0; i < rng.Intn(30); i++ {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		src := b.String()
		lexs, err := l.Scan(src)
		if err != nil {
			// Adjacent pieces can form invalid lexemes (e.g. "00"); the
			// property only covers successful scans.
			continue
		}
		if Reassemble(lexs) != src {
			t.Fatalf("round-trip failed for %q", src)
		}
		// Tokenize must agree with Scan+Strip.
		toks, err := l.Tokenize(src)
		if err != nil {
			t.Fatal(err)
		}
		if len(toks) != len(Strip(lexs)) {
			t.Fatal("Tokenize disagrees with Scan+Strip")
		}
	}
}

func TestUnicodeSource(t *testing.T) {
	l := MustNew(Spec{Rules: []Rule{
		Pat("WORD", `[^ ]+`),
		Skip("SP", " +"),
	}})
	toks, err := l.Tokenize("héllo 日本語 x")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 || toks[1].Literal != "日本語" {
		t.Errorf("tokens = %v", toks)
	}
}

func TestLitHelper(t *testing.T) {
	r := Lit("->")
	if r.Name != "->" || r.Skip {
		t.Errorf("Lit = %+v", r)
	}
	l := MustNew(Spec{Rules: []Rule{Lit("->"), Lit("-")}})
	toks, err := l.Tokenize("->-")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 2 || toks[0].Terminal != "->" || toks[1].Terminal != "-" {
		t.Errorf("tokens = %v", toks)
	}
	_ = grammar.Tok // keep import if helpers change
}
