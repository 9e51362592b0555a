// Package langkit holds the plumbing shared by the four benchmark language
// packages (jsonlang, xmllang, dotlang, pylang): lazy compilation of a
// .g4-subset source into a BNF grammar and lexer, an optional layout pass
// (Python's INDENT/DEDENT), and a deterministic RNG for corpus generators.
package langkit

import (
	"io"
	"sync"

	"costar/internal/g4"
	"costar/internal/grammar"
	"costar/internal/lexer"
	"costar/internal/source"
)

// Layout transforms raw lexemes (skips included) into the parser's token
// word. The default layout drops skip lexemes.
type Layout func(lexs []lexer.Lexeme) ([]grammar.Token, error)

// StreamLayout is the demand-driven form of a layout pass: it wraps a pull
// of raw lexemes (skips included) into a pull of parser tokens, retaining
// only whatever per-line state the layout needs, so the language streams
// end to end.
type StreamLayout func(next func() (lexer.Lexeme, bool, error)) func() (grammar.Token, bool, error)

// Language bundles one benchmark language. Construct with New; compilation
// happens on first use and is cached.
type Language struct {
	Name         string
	Source       string
	layout       Layout
	streamLayout StreamLayout

	once sync.Once
	bnf  *grammar.Grammar
	lex  *lexer.Lexer
}

// New declares a language. A language with a layout pass gives both its
// forms: layout for Tokenize, stream for Pull. The two must agree; the
// stream-equivalence property tests check that they do. A language without
// one passes nil for both, and its skip lexemes are dropped.
func New(name, source string, layout Layout, stream StreamLayout) *Language {
	return &Language{Name: name, Source: source, layout: layout, streamLayout: stream}
}

func (l *Language) build() {
	l.once.Do(func() {
		var err error
		if l.bnf, l.lex, err = g4.Compile(l.Source); err != nil {
			panic(l.Name + ": " + err.Error())
		}
	})
}

// Grammar returns the desugared BNF grammar.
func (l *Language) Grammar() *grammar.Grammar {
	l.build()
	return l.bnf
}

// Lexer returns the compiled lexer.
func (l *Language) Lexer() *lexer.Lexer {
	l.build()
	return l.lex
}

// Tokenize lexes src and applies the language's layout pass.
func (l *Language) Tokenize(src string) ([]grammar.Token, error) {
	l.build()
	lexs, err := l.lex.Scan(src)
	if err != nil {
		return nil, err
	}
	if l.layout != nil {
		return l.layout(lexs)
	}
	return lexer.Strip(lexs), nil
}

// Pull returns a demand-driven token source over r: lexing — and the
// language's layout pass, when it has one — runs incrementally as the
// parser pulls tokens.
func (l *Language) Pull(r io.Reader) func() (grammar.Token, bool, error) {
	l.build()
	if l.streamLayout != nil {
		return l.streamLayout(l.lex.ScanReader(r).Next)
	}
	return l.lex.Pull(r)
}

// Cursor opens a demand-driven token cursor over r for this language — the
// value ParseSource and friends consume.
func (l *Language) Cursor(r io.Reader) *source.Cursor {
	return source.FromPull(l.Grammar().Compiled(), l.Pull(r))
}

// RNG is a small deterministic xorshift generator for corpus synthesis.
// The zero value is invalid; seed with NewRNG.
type RNG struct{ state int64 }

// NewRNG seeds a generator (zero seeds are remapped).
func NewRNG(seed int64) *RNG {
	if seed == 0 {
		seed = 0x3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Next returns a value in [0, n).
func (r *RNG) Next(n int) int {
	r.state ^= r.state << 13
	r.state ^= r.state >> 7
	r.state ^= r.state << 17
	v := int(r.state % int64(n))
	if v < 0 {
		v = -v
	}
	return v
}

// Pick returns a random element of words.
func (r *RNG) Pick(words []string) string { return words[r.Next(len(words))] }

// Bool returns true with probability num/den.
func (r *RNG) Bool(num, den int) bool { return r.Next(den) < num }
