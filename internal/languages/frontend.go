// Package languages turns a grammar source — a built-in language name, a
// .g4 file, a BNF file, or an ahead-of-time artifact — into a Frontend: the
// grammar plus how its input bytes become tokens. The CLI's parse, compile,
// vet and serve commands and costar serve's registry all resolve grammars
// here, so the built-in language table, the artifact→tokens policy and the
// word format each exist once.
package languages

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"costar/internal/artifact"
	"costar/internal/ebnf"
	"costar/internal/g4"
	"costar/internal/grammar"
	"costar/internal/languages/dotlang"
	"costar/internal/languages/jsonlang"
	"costar/internal/languages/langkit"
	"costar/internal/languages/pylang"
	"costar/internal/languages/xmllang"
	"costar/internal/lexer"
	"costar/internal/source"
)

// Frontend says how one grammar's input bytes become tokens.
type Frontend struct {
	// Name labels the grammar: the built-in language name, a grammar
	// file's base name without its extension, or an artifact's name.
	Name    string
	Grammar *grammar.Grammar
	// LexerG4 is the .g4 source an artifact of this grammar embeds, from
	// which a later load rebuilds the lexer; "" for BNF grammars.
	LexerG4 string
	// Pull turns r into the parser's token stream: lexing plus any layout
	// pass, run incrementally as the parser pulls.
	Pull func(r io.Reader) source.Pull
	// Generate synthesizes a deterministic input of about targetTokens
	// tokens; only built-in languages have one (nil otherwise).
	Generate func(seed int64, targetTokens int) string
}

// builtin is one bundled language: its full lexer and layout pipeline and
// its corpus generator.
type builtin struct {
	lang *langkit.Language
	gen  func(seed int64, targetTokens int) string
}

func (b builtin) pull(r io.Reader) source.Pull { return b.lang.Pull(r) }

// builtins is the table of bundled languages, keyed by name.
var builtins = map[string]builtin{
	"json":   {jsonlang.Lang, jsonlang.Generate},
	"xml":    {xmllang.Lang, xmllang.Generate},
	"dot":    {dotlang.Lang, dotlang.Generate},
	"python": {pylang.Lang, pylang.Generate},
}

// Names lists the built-in language names, sorted.
func Names() []string {
	names := make([]string, 0, len(builtins))
	for n := range builtins {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Builtin returns the frontend of the bundled language name.
func Builtin(name string) (*Frontend, error) {
	b, ok := builtins[name]
	if !ok {
		return nil, fmt.Errorf("unknown language %q (have %s)", name, strings.Join(Names(), ", "))
	}
	return &Frontend{
		Name:     name,
		Grammar:  b.lang.Grammar(),
		LexerG4:  b.lang.Source,
		Pull:     b.pull,
		Generate: b.gen,
	}, nil
}

// FromG4 compiles .g4 source: the desugared grammar and its lexer.
func FromG4(name, src string) (*Frontend, error) {
	g, lex, err := loadG4(src)
	if err != nil {
		return nil, err
	}
	return &Frontend{Name: name, Grammar: g, LexerG4: src, Pull: lexPull(lex)}, nil
}

// FromBNF reads BNF source; its input is the word format.
func FromBNF(name, src string) (*Frontend, error) {
	g, err := grammar.ParseBNF(src)
	if err != nil {
		return nil, err
	}
	return &Frontend{Name: name, Grammar: g, Pull: wordPull}, nil
}

// Open resolves the grammar source named by the CLI's -lang, -g4 and -bnf
// flags, first set wins: a built-in language, a .g4 file, or a BNF file.
// A file's frontend is named after its base name without the extension.
func Open(lang, g4Path, bnfPath string) (*Frontend, error) {
	switch {
	case lang != "":
		return Builtin(lang)
	case g4Path != "":
		src, err := os.ReadFile(g4Path)
		if err != nil {
			return nil, err
		}
		return FromG4(strings.TrimSuffix(filepath.Base(g4Path), ".g4"), string(src))
	case bnfPath != "":
		src, err := os.ReadFile(bnfPath)
		if err != nil {
			return nil, err
		}
		return FromBNF(strings.TrimSuffix(filepath.Base(bnfPath), ".bnf"), string(src))
	}
	return nil, errors.New("one of -lang, -g4, -bnf is required (see -h)")
}

// FromArtifact resolves the frontend of a session loaded from artifact a,
// whose realized grammar is g. An artifact named after a built-in language
// with the same grammar fingerprint uses that language's pipeline, layout
// included (a layout pass is Go code no artifact can carry); a stale one of
// that name, built from another grammar, falls through rather than pair
// with the current pipeline. Next, embedded .g4 source rebuilds the lexer;
// an artifact with neither reads the word format.
func FromArtifact(a *artifact.Artifact, g *grammar.Grammar) (*Frontend, error) {
	fe := &Frontend{Name: a.Name, Grammar: g, LexerG4: a.LexerG4, Pull: wordPull}
	if b, ok := builtins[a.Name]; ok && b.lang.Grammar().Compiled().Fingerprint() == a.Fingerprint {
		fe.Pull, fe.Generate = b.pull, b.gen
	} else if a.LexerG4 != "" {
		_, lex, err := loadG4(a.LexerG4)
		if err != nil {
			return nil, fmt.Errorf("recompiling artifact lexer: %w", err)
		}
		fe.Pull = lexPull(lex)
	}
	return fe, nil
}

// loadG4 compiles .g4 source into its desugared grammar and lexer.
func loadG4(src string) (*grammar.Grammar, *lexer.Lexer, error) {
	f, err := g4.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	g, err := ebnf.Desugar(f.Parser)
	if err != nil {
		return nil, nil, err
	}
	lex, err := lexer.New(f.Lexer)
	if err != nil {
		return nil, nil, err
	}
	return g, lex, nil
}

func lexPull(lex *lexer.Lexer) func(io.Reader) source.Pull {
	return func(r io.Reader) source.Pull { return lex.Pull(r) }
}

// wordPull streams r in the word format: whitespace-separated terminal
// names, each token's terminal and literal alike.
func wordPull(r io.Reader) source.Pull {
	sc := bufio.NewScanner(r)
	sc.Split(bufio.ScanWords)
	return func() (grammar.Token, bool, error) {
		if !sc.Scan() {
			return grammar.Token{}, false, sc.Err()
		}
		n := sc.Text()
		return grammar.Tok(n, n), true, nil
	}
}
