// Fixture: the §5h window-ownership rule outside the home packages.
// grammar.Token.Literal and lexer.Error.Snippet are views into the
// scanner's input window, dead as soon as the streaming cursor advances;
// storing one into a struct field or map needs a copy first — the PR 8
// Diag() snippet rule, generalized. This fixture imports the real types,
// so it exercises exactly what any consumer package is held to.
package retain

import (
	"strings"

	"costar/internal/grammar"
	"costar/internal/lexer"
)

type entry struct {
	name string
}

type report struct {
	snippet string
}

// retainRaw stores the raw window string into longer-lived structure.
func retainRaw(t grammar.Token, e *entry, seen map[string]string) {
	e.name = t.Literal       // want "zero-copy input window stored into"
	seen["last"] = t.Literal // want "stored into a map"
}

// retainTrimmed launders the window through an alias-preserving helper;
// TrimSpace returns a substring of the same backing array.
func retainTrimmed(t grammar.Token, e *entry) {
	e.name = strings.TrimSpace(t.Literal) // want "zero-copy input window stored into"
}

// retainCloned copies first; accepted (the Diag() rule).
func retainCloned(t grammar.Token, e *entry, seen map[string]string) {
	e.name = strings.Clone(t.Literal)
	seen["last"] = strings.Clone(strings.TrimSpace(t.Literal))
}

// convertRaw rebuilds a diagnostic-like struct around the raw snippet.
func convertRaw(e *lexer.Error) report {
	return report{
		snippet: e.Snippet, // want "zero-copy input window in .* literal"
	}
}

// convertCloned is the sanctioned conversion; accepted.
func convertCloned(e *lexer.Error) report {
	return report{snippet: strings.Clone(e.Snippet)}
}

// transport moves whole Token values through the pipeline — the
// documented design, not an aliasing bug; accepted.
type hold struct {
	tok grammar.Token
}

func transport(lx lexer.Lexeme, h *hold) {
	h.tok = lx.Tok
}

// derived values (lengths, comparisons) are clean; accepted.
func classify(t grammar.Token) int {
	if t.Literal == "if" {
		return 1
	}
	return len(t.Literal)
}
