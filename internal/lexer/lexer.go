// Package lexer provides a specification-driven maximal-munch tokenizer.
// It plays the role of the ANTLR lexers in the paper's evaluation pipeline
// (Section 6.2): source text is tokenized up front, and CoStar parses the
// pre-tokenized word, so lexing and parsing time can be measured separately.
//
// A Spec is an ordered list of rules, each a regex (internal/rx) naming the
// terminal it produces; earlier rules win ties, longest match wins overall.
// The rules of each lexer mode compile into one multi-pattern DFA
// (rx.CompileMulti), the classic lexer-generator construction, and
// Scanner.match is the one longest-match loop that walks it, ASCII bytes
// through the automaton's byte rows. A Lexer bound to a grammar (Bind)
// hands out each token's terminal ID with it.
package lexer

import (
	"fmt"
	"io"
	"strings"

	"costar/internal/diag"
	"costar/internal/grammar"
	"costar/internal/rx"
)

// Rule is one lexical rule. Skip rules (whitespace, comments) match and
// discard text without producing tokens. Mode selects which lexer mode the
// rule is active in ("" is the default mode); Push/Pop/Set switch modes
// after the rule matches, ANTLR-style — the mechanism the real XML lexer
// uses to keep in-tag tokens separate from content text.
type Rule struct {
	Name    string
	Pattern rx.Node
	Skip    bool
	Mode    string // mode this rule belongs to; "" = default
	Push    string // push this mode after matching
	Pop     bool   // pop back to the previous mode after matching
	Set     string // replace the current mode (no stack) after matching
}

// Lit is a convenience rule matching literal text exactly, named by that
// text (how ANTLR treats inline literals like '{').
func Lit(text string) Rule {
	return Rule{Name: text, Pattern: rx.Str(text)}
}

// Pat builds a rule from a pattern string, panicking on bad patterns
// (specs are package-level literals).
func Pat(name, pattern string) Rule {
	return Rule{Name: name, Pattern: rx.MustParse(pattern)}
}

// Skip builds a skip rule from a pattern string.
func Skip(name, pattern string) Rule {
	return Rule{Name: name, Pattern: rx.MustParse(pattern), Skip: true}
}

// Spec is an ordered lexical specification.
type Spec struct {
	Rules []Rule
}

// Lexeme is a token with source position information (1-based line/col and
// byte offset), which layout passes (e.g. Python's INDENT/DEDENT) consume.
//
// Tok.Literal is a zero-copy view into the scanner's input window — a
// (pointer, length) string header over [Offset, End()) of the original
// bytes, never a per-token copy. On the batch path the window is the input
// string itself; on the reader path it is the refill window that contained
// the token. Holding a lexeme keeps exactly that window alive.
type Lexeme struct {
	Tok    grammar.Token
	Line   int
	Col    int
	Offset int
	Skip   bool // produced by a skip rule (retained in Scan output)
}

// Len returns the lexeme's length in bytes.
func (lx Lexeme) Len() int { return len(lx.Tok.Literal) }

// End returns the byte offset one past the lexeme, so [Offset, End()) spans
// it in the original input.
func (lx Lexeme) End() int { return lx.Offset + len(lx.Tok.Literal) }

// Error is a lexing failure with position context. Snippet is a bounded
// zero-copy slice of the input window starting at Offset — diagnostics are
// built lazily from it, so the error path forces no buffer copies on the
// scan path.
type Error struct {
	Line, Col int
	Offset    int
	Snippet   string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("lexer: no rule matches at line %d, col %d: %q…", e.Line, e.Col, e.Snippet)
}

// Diag converts the failure to the unified diagnostic form. The snippet is
// copied out of the zero-copy scan window here: a Diagnostic outlives the
// retained source (and possibly the session), so it must own its bytes —
// see package diag's lifetime contract.
func (e *Error) Diag() diag.Diagnostic {
	return diag.Diagnostic{
		Severity: diag.Error,
		Code:     diag.CodeLex,
		Message:  "no lexical rule matches",
		Pos:      diag.Pos{Token: -1, Offset: e.Offset, Line: e.Line, Col: e.Col},
		Snippet:  strings.Clone(e.Snippet),
	}
}

// Lexer is a compiled Spec, safe for concurrent use. Mode names are
// interned to dense ints at compile time (mode 0 is the default mode), so
// the scan loop indexes a slice and pushes ints — no per-token map lookup
// or string mode keys.
type Lexer struct {
	modes []mode // by mode id; 0 = default mode
}

// mode is the automaton for one lexer mode plus, by pattern index, the
// record of the rule each pattern came from.
type mode struct {
	dfa   *rx.MultiDFA
	rules []rule
}

// rule is what the scan loop needs of a spec rule once it has matched: the
// terminal it names, whether it is a skip rule, and its compiled mode
// switch (at most one of push/set, as target mode ids with -1 for none,
// and pop is active).
type rule struct {
	name      string
	skip      bool
	push, set int
	pop       bool
}

// New compiles the spec. It rejects rules that accept the empty string
// (which would stall the scanner), mode actions targeting undefined modes,
// and rules combining Push/Pop/Set.
func New(spec Spec) (*Lexer, error) {
	modeIDs := map[string]int{"": 0} // the default mode is always id 0
	byMode := [][]int{nil}
	for i, r := range spec.Rules {
		if r.Name == "" {
			return nil, fmt.Errorf("lexer: rule %d has no name", i)
		}
		actions := 0
		if r.Push != "" {
			actions++
		}
		if r.Pop {
			actions++
		}
		if r.Set != "" {
			actions++
		}
		if actions > 1 {
			return nil, fmt.Errorf("lexer: rule %s combines multiple mode actions", r.Name)
		}
		id, ok := modeIDs[r.Mode]
		if !ok {
			id = len(byMode)
			modeIDs[r.Mode] = id
			byMode = append(byMode, nil)
		}
		byMode[id] = append(byMode[id], i)
	}
	if len(byMode[0]) == 0 {
		return nil, fmt.Errorf("lexer: no rules in the default mode")
	}
	// Every other mode exists because some rule is in it, so from here on
	// a known mode name is a mode with rules.
	target := func(r Rule, name string) (int, error) {
		if name == "" {
			return -1, nil
		}
		id, ok := modeIDs[name]
		if !ok {
			return 0, fmt.Errorf("lexer: rule %s targets undefined mode %q", r.Name, name)
		}
		return id, nil
	}
	l := &Lexer{modes: make([]mode, len(byMode))}
	for id, idxs := range byMode {
		nodes := make([]rx.Node, len(idxs))
		rules := make([]rule, len(idxs))
		for p, i := range idxs {
			r := spec.Rules[i]
			push, err := target(r, r.Push)
			if err != nil {
				return nil, err
			}
			set, err := target(r, r.Set)
			if err != nil {
				return nil, err
			}
			nodes[p] = r.Pattern
			rules[p] = rule{name: r.Name, skip: r.Skip, push: push, set: set, pop: r.Pop}
		}
		m := rx.CompileMulti(nodes)
		// The start state accepts exactly when some rule of the mode
		// accepts ε, and names the first such rule.
		if p := m.Accept(m.Start()); p >= 0 {
			return nil, fmt.Errorf("lexer: rule %s accepts the empty string", rules[p].name)
		}
		l.modes[id] = mode{dfa: m, rules: rules}
	}
	return l, nil
}

// MustNew panics on spec errors; for package-level lexer literals.
func MustNew(spec Spec) *Lexer {
	l, err := New(spec)
	if err != nil {
		panic(err)
	}
	return l
}

// Binding is a lexer bound to one compiled grammar: per mode, the terminal
// ID of each rule's name in that grammar (grammar.NoTerm for a name the
// grammar lacks, as Compiled.TermIDOf reports it). It is a value of its own,
// so one Lexer can serve sessions of different grammars at once; binding
// never writes into the Lexer. A Binding is immutable and safe for
// concurrent use.
type Binding struct {
	l   *Lexer
	ids [][]grammar.TermID // by mode, by pattern index
}

// Bind resolves every rule's terminal name against c once.
func (l *Lexer) Bind(c *grammar.Compiled) *Binding {
	b := &Binding{l: l, ids: make([][]grammar.TermID, len(l.modes))}
	for m := range l.modes {
		rules := l.modes[m].rules
		ids := make([]grammar.TermID, len(rules))
		for p := range rules {
			id, ok := c.TermIDOf(rules[p].name)
			if !ok {
				id = grammar.NoTerm
			}
			ids[p] = id
		}
		b.ids[m] = ids
	}
	return b
}

// Lexer returns the lexer b binds.
func (b *Binding) Lexer() *Lexer { return b.l }

// Pull is Lexer.Pull handing out each token with its terminal ID in the
// bound grammar, so a cursor fed by it (source.IDPull) hashes no names.
func (b *Binding) Pull(r io.Reader) func() (grammar.Token, grammar.TermID, bool, error) {
	sc := b.l.ScanReader(r)
	return func() (grammar.Token, grammar.TermID, bool, error) {
		mode, pat, text, ok, err := sc.token()
		if !ok {
			return grammar.Token{}, grammar.NoTerm, false, err
		}
		return grammar.Tok(b.l.modes[mode].rules[pat].name, text), b.ids[mode][pat], true, nil
	}
}

// Scan tokenizes src into lexemes, including skip lexemes (callers that
// need layout information want them; Tokenize drops them). Mode switches
// take effect immediately after the triggering rule matches. Scan is a
// drain of the incremental Scanner, so the batch and streaming paths are
// the same code and cannot disagree; with src resident, every literal is a
// zero-copy slice of src.
func (l *Lexer) Scan(src string) ([]Lexeme, error) {
	return scanAll(l.ScanString(src))
}

// Tokenize scans src and returns the non-skip tokens — the word the parser
// consumes.
func (l *Lexer) Tokenize(src string) ([]grammar.Token, error) {
	lexs, err := l.Scan(src)
	if err != nil {
		return nil, err
	}
	return Strip(lexs), nil
}

// Strip drops skip lexemes and projects the rest to tokens.
func Strip(lexs []Lexeme) []grammar.Token {
	out := make([]grammar.Token, 0, len(lexs))
	for _, lx := range lexs {
		if !lx.Skip {
			out = append(out, lx.Tok)
		}
	}
	return out
}

// Reassemble concatenates all lexeme literals; with skip lexemes included
// it reconstructs the original source (the round-trip property tests rely
// on this).
func Reassemble(lexs []Lexeme) string {
	var b strings.Builder
	for _, lx := range lexs {
		b.WriteString(lx.Tok.Literal)
	}
	return b.String()
}
