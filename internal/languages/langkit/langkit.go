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
// only whatever per-line state the layout needs. A language that provides
// one (WithStreamLayout) streams end to end; otherwise Pull falls back to
// batch layout.
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

// New declares a language. layout may be nil.
func New(name, source string, layout Layout) *Language {
	return &Language{Name: name, Source: source, layout: layout}
}

// WithStreamLayout registers the streaming form of the language's layout
// pass and returns l (for declaration chaining). The two forms must agree;
// the stream-equivalence property tests check that they do.
func (l *Language) WithStreamLayout(sl StreamLayout) *Language {
	l.streamLayout = sl
	return l
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
// language's layout pass, when it has a streaming form — runs incrementally
// as the parser pulls tokens. A language with only a batch layout lexes r
// in full on the first pull and serves the laid-out word from memory; plain
// languages stream with no buffering beyond the lexer's.
func (l *Language) Pull(r io.Reader) func() (grammar.Token, bool, error) {
	l.build()
	switch {
	case l.streamLayout != nil:
		sc := l.lex.ScanReader(r)
		return l.streamLayout(sc.Next)
	case l.layout != nil:
		var toks []grammar.Token
		var err error
		started := false
		i := 0
		return func() (grammar.Token, bool, error) {
			if !started {
				started = true
				sc := l.lex.ScanReader(r)
				var lexs []lexer.Lexeme
				for {
					lx, ok, scanErr := sc.Next()
					if scanErr != nil {
						err = scanErr
						break
					}
					if !ok {
						toks, err = l.layout(lexs)
						break
					}
					lexs = append(lexs, lx)
				}
			}
			if err != nil {
				return grammar.Token{}, false, err
			}
			if i >= len(toks) {
				return grammar.Token{}, false, nil
			}
			t := toks[i]
			i++
			return t, true, nil
		}
	default:
		return l.lex.Pull(r)
	}
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
