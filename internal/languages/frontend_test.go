package languages_test

import (
	"context"
	"os"
	"strings"
	"testing"

	"costar/internal/artifact"
	"costar/internal/languages"
	"costar/internal/languages/jsonlang"
	"costar/internal/languages/pylang"
	"costar/internal/parser"
)

// TestFrontendFromArtifact drives each branch of the artifact→tokens
// policy through an encoded and decoded artifact: a built-in name with a
// matching fingerprint, a built-in name with a stale one, an embedded .g4
// lexer, and no lexer at all (the word format).
func TestFrontendFromArtifact(t *testing.T) {
	mustFrontend := func(fe *languages.Frontend, err error) *languages.Frontend {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return fe
	}
	example := func(name string) string {
		t.Helper()
		src, err := os.ReadFile("../../examples/grammars/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return string(src)
	}
	// The layout pass turns this into NEWLINE/INDENT/DEDENT tokens; without
	// it (the embedded lexer alone) the word would not parse.
	const def = "def f(x):\n    y = x + 1\n    return y\n"
	pyToks, err := pylang.Lang.Tokenize(def)
	if err != nil {
		t.Fatal(err)
	}
	// A JSON grammar with an extra literal: the built-in JSON lexer cannot
	// lex `undefined`, so only the embedded lexer parses the input.
	staleJSON := strings.Replace(jsonlang.Source, `'null' ;`, `'null' | 'undefined' ;`, 1)
	if staleJSON == jsonlang.Source {
		t.Fatal("modified JSON grammar equals the built-in one")
	}

	cases := []struct {
		name    string
		fe      *languages.Frontend
		input   string
		tokens  int
		builtin bool // the built-in pipeline (and its generator) is used
	}{
		{"builtin-fingerprint", mustFrontend(languages.Builtin("python")), def, len(pyToks), true},
		{"stale-fingerprint", mustFrontend(languages.FromG4("json", staleJSON)), "[1, undefined]", 5, false},
		{"embedded-g4", mustFrontend(languages.FromG4("calc", example("calc.g4"))), "1 + 2 * 3", 5, false},
		{"word-format", mustFrontend(languages.FromBNF("lists", example("lists.bnf"))), "lbrack atom comma lbrack rbrack rbrack", 6, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a, err := parser.MustNew(c.fe.Grammar, parser.Options{}).ExportArtifact(c.fe.Name, c.fe.LexerG4)
			if err != nil {
				t.Fatal(err)
			}
			if a, err = artifact.Decode(artifact.Encode(a)); err != nil {
				t.Fatal(err)
			}
			p, err := parser.NewFromArtifact(a, parser.Options{})
			if err != nil {
				t.Fatal(err)
			}
			fe, err := languages.FromArtifact(a, p.Grammar())
			if err != nil {
				t.Fatal(err)
			}
			if fe.Name != c.fe.Name || fe.LexerG4 != c.fe.LexerG4 || fe.Grammar != p.Grammar() {
				t.Errorf("frontend = %q/%d-byte lexer, want %q/%d-byte lexer over the session grammar",
					fe.Name, len(fe.LexerG4), c.fe.Name, len(c.fe.LexerG4))
			}
			if (fe.Generate != nil) != c.builtin {
				t.Errorf("built-in pipeline used = %v, want %v", fe.Generate != nil, c.builtin)
			}
			res := p.ParseInput(context.Background(), parser.Input{Pull: fe.Pull(strings.NewReader(c.input))})
			if res.Kind != parser.Unique || res.Consumed != c.tokens {
				t.Fatalf("%q: %s after %d tokens, want Unique after %d", c.input, res, res.Consumed, c.tokens)
			}
		})
	}
}
