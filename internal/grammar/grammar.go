// Package grammar defines context-free grammars in the BNF form consumed by
// the CoStar parser: terminals, nonterminals, productions, tokens, and the
// well-formedness checks that the parser's guarantees depend on.
//
// The representation follows Figure 1 of the CoStar paper (PLDI 2021):
//
//	Terminals    a, b ∈ T
//	Nonterminals X, Y ∈ N
//	Symbols      s ::= a | X
//	Grammars     G ::= • | X → γ, G
//	Tokens       t ::= (a, l)
//
// A Grammar is an ordered list of productions. Order matters: ALL(*)
// prediction identifies alternatives by their production index, and the
// parser reports ambiguous inputs by choosing the lowest-numbered viable
// alternative, exactly as ANTLR does.
package grammar

import (
	"fmt"
	"sort"
	"strings"
)

// SymKind distinguishes terminals from nonterminals.
type SymKind uint8

const (
	// Terminal symbols match a single token whose Terminal field has the
	// same name.
	Terminal SymKind = iota
	// Nonterminal symbols are rewritten by productions.
	Nonterminal
)

// Symbol is a grammar symbol: a terminal or a nonterminal. Symbols are
// comparable values and may be used as map keys.
type Symbol struct {
	Kind SymKind
	Name string
}

// T constructs a terminal symbol.
func T(name string) Symbol { return Symbol{Kind: Terminal, Name: name} }

// NT constructs a nonterminal symbol.
func NT(name string) Symbol { return Symbol{Kind: Nonterminal, Name: name} }

// IsT reports whether s is a terminal.
func (s Symbol) IsT() bool { return s.Kind == Terminal }

// IsNT reports whether s is a nonterminal.
func (s Symbol) IsNT() bool { return s.Kind == Nonterminal }

// String renders the symbol; terminals are single-quoted when they are not
// plain identifiers, so that round-tripping through ParseBNF is possible.
func (s Symbol) String() string {
	if s.Kind == Nonterminal {
		return s.Name
	}
	if isIdent(s.Name) {
		return s.Name
	}
	return quoted(s.Name)
}

// quoted renders a terminal name as a BNF quoted literal.
func quoted(name string) string {
	return "'" + strings.ReplaceAll(name, "'", `\'`) + "'"
}

// Compare orders symbols: terminals before nonterminals, then by name.
// It is the comparison the paper's Coq development performs inside its
// AVL-tree maps (compareNT of Section 6.1).
func (s Symbol) Compare(o Symbol) int {
	if s.Kind != o.Kind {
		if s.Kind == Terminal {
			return -1
		}
		return 1
	}
	return strings.Compare(s.Name, o.Name)
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// SymbolsString renders a sentential form; the empty form is "ε".
func SymbolsString(syms []Symbol) string {
	if len(syms) == 0 {
		return "ε"
	}
	parts := make([]string, len(syms))
	for i, s := range syms {
		parts[i] = s.String()
	}
	return strings.Join(parts, " ")
}

// Production is a grammar rule X → γ. Rhs may be empty (an ε-production).
type Production struct {
	Lhs string
	Rhs []Symbol
}

// String renders the production as "X -> γ".
func (p Production) String() string {
	return p.Lhs + " -> " + SymbolsString(p.Rhs)
}

// Token is a terminal paired with the literal text it was lexed from,
// (a, l) in the paper's notation.
type Token struct {
	Terminal string
	Literal  string
}

// Tok constructs a token.
func Tok(terminal, literal string) Token {
	return Token{Terminal: terminal, Literal: literal}
}

// String renders the token as terminal:"literal".
func (t Token) String() string {
	return fmt.Sprintf("%s:%q", t.Terminal, t.Literal)
}

// Grammar is an ordered sequence of productions together with a start
// nonterminal. Construct one with New (or a Builder, or ParseBNF) so that
// the internal indices are populated.
type Grammar struct {
	Start string
	Prods []Production

	terminals []string // sorted, deduplicated
	nts       []string // in order of first definition
	maxRhsLen int
	prodLines []int     // production index → 1-based source line (0 unknown)
	c         *Compiled // dense interned form; single source of truth for
	// the productions-by-LHS index (the old byLhs map is folded into it)
}

// New builds a Grammar from a start symbol and productions. The production
// slice is retained. New does not validate; call Validate for the
// well-formedness check the parser's guarantees assume. New also compiles
// the grammar: every symbol is interned to a dense ID (see Compiled), and
// the string accessors below are views over the compiled tables.
func New(start string, prods []Production) *Grammar {
	g := &Grammar{Start: start, Prods: prods}
	tset := make(map[string]bool)
	ntSeen := make(map[string]bool)
	for _, p := range prods {
		if !ntSeen[p.Lhs] {
			ntSeen[p.Lhs] = true
			g.nts = append(g.nts, p.Lhs)
		}
		if len(p.Rhs) > g.maxRhsLen {
			g.maxRhsLen = len(p.Rhs)
		}
		for _, s := range p.Rhs {
			if s.IsT() {
				tset[s.Name] = true
			}
		}
	}
	g.terminals = make([]string, 0, len(tset))
	for t := range tset {
		g.terminals = append(g.terminals, t)
	}
	sort.Strings(g.terminals)
	g.c = compile(g)
	return g
}

// Compiled returns the dense interned form of the grammar, built once by
// New. All engines run on it; the string API remains for the edges.
func (g *Grammar) Compiled() *Compiled { return g.c }

// ProductionIndices returns the indices into Prods of the productions whose
// left-hand side is nt, in grammar order. The returned slice must not be
// modified.
func (g *Grammar) ProductionIndices(nt string) []int {
	id, ok := g.c.ntIDs[nt]
	if !ok {
		return nil
	}
	return g.c.ntProds[id]
}

// RhssFor returns the right-hand sides for nt in grammar order.
func (g *Grammar) RhssFor(nt string) [][]Symbol {
	idxs := g.ProductionIndices(nt)
	rhss := make([][]Symbol, len(idxs))
	for i, j := range idxs {
		rhss[i] = g.Prods[j].Rhs
	}
	return rhss
}

// HasNT reports whether nt is defined (appears as a left-hand side).
func (g *Grammar) HasNT(nt string) bool {
	id, ok := g.c.ntIDs[nt]
	return ok && len(g.c.ntProds[id]) > 0
}

// Nonterminals returns the defined nonterminals in order of first definition.
// The returned slice must not be modified.
func (g *Grammar) Nonterminals() []string { return g.nts }

// Terminals returns the sorted set of terminals appearing in right-hand
// sides. The returned slice must not be modified.
func (g *Grammar) Terminals() []string { return g.terminals }

// MaxRhsLen returns the length of the longest right-hand side. It is the
// base (minus one) of the stackScore termination measure of Section 4.3.
func (g *Grammar) MaxRhsLen() int { return g.maxRhsLen }

// SetProdLines records the 1-based source line of each production (0 for
// unknown), for positioned diagnostics. The text front ends (ParseBNF, the
// g4 desugarer) call it; programmatic grammars have no lines. len(lines)
// must equal len(Prods); extra or missing entries are ignored rather than
// panicking, since lines are advisory. It returns g for chaining.
func (g *Grammar) SetProdLines(lines []int) *Grammar {
	if len(lines) == len(g.Prods) {
		g.prodLines = lines
	}
	return g
}

// ProdLine returns the 1-based source line production i was read from, or 0
// when unknown (programmatic grammars, out-of-range i).
func (g *Grammar) ProdLine(i int) int {
	if i < 0 || i >= len(g.prodLines) {
		return 0
	}
	return g.prodLines[i]
}

// NumProductions returns len(g.Prods).
func (g *Grammar) NumProductions() int { return len(g.Prods) }

// Stats returns the (|T|, |N|, |P|) triple reported in Figure 8 of the
// paper for each benchmark grammar.
func (g *Grammar) Stats() (numTerminals, numNonterminals, numProductions int) {
	return len(g.terminals), len(g.nts), len(g.Prods)
}

// String renders the grammar with one production per line, alternatives for
// the same nonterminal grouped with "|", start symbol first. The text
// parses back with ParseBNF to the same grammar: ParseBNF reads a bare
// identifier that is some rule's left-hand side as that nonterminal, so a
// terminal sharing its name with a nonterminal (DOT's keyword graph next
// to its rule graph) is printed quoted.
func (g *Grammar) String() string {
	var b strings.Builder
	order := make([]string, 0, len(g.nts))
	if g.HasNT(g.Start) {
		order = append(order, g.Start)
	}
	for _, nt := range g.nts {
		if nt != g.Start {
			order = append(order, nt)
		}
	}
	for _, nt := range order {
		alts := g.RhssFor(nt)
		parts := make([]string, len(alts))
		for i, rhs := range alts {
			parts[i] = g.formString(rhs)
		}
		fmt.Fprintf(&b, "%s -> %s\n", nt, strings.Join(parts, " | "))
	}
	return b.String()
}

// formString is SymbolsString for String: a terminal that shares its name
// with a nonterminal is quoted.
func (g *Grammar) formString(form []Symbol) string {
	if len(form) == 0 {
		return "ε"
	}
	parts := make([]string, len(form))
	for i, s := range form {
		parts[i] = s.String()
		if _, clash := g.c.ntIDs[s.Name]; clash && s.IsT() {
			parts[i] = quoted(s.Name)
		}
	}
	return strings.Join(parts, " ")
}

// Validate checks the well-formedness condition assumed by the parser's
// correctness guarantees:
//
//   - the start symbol is a defined nonterminal;
//   - every nonterminal occurring in a right-hand side is defined;
//   - no production's left-hand side is empty.
//
// Left recursion is deliberately NOT part of well-formedness: CoStar accepts
// left-recursive grammars and detects left recursion dynamically (Section
// 4.1). grammarlint.LeftRecursion is the static decision procedure.
func (g *Grammar) Validate() error {
	if g.Start == "" {
		return fmt.Errorf("grammar: empty start symbol")
	}
	if !g.HasNT(g.Start) {
		return fmt.Errorf("grammar: start symbol %q has no productions", g.Start)
	}
	for i, p := range g.Prods {
		if p.Lhs == "" {
			return fmt.Errorf("grammar: production %d has empty left-hand side", i)
		}
		for _, s := range p.Rhs {
			if s.IsNT() && !g.HasNT(s.Name) {
				return fmt.Errorf("grammar: production %d (%s) references undefined nonterminal %q", i, p, s.Name)
			}
			if s.Name == "" {
				return fmt.Errorf("grammar: production %d (%s) contains a symbol with an empty name", i, p)
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the grammar.
func (g *Grammar) Clone() *Grammar {
	prods := make([]Production, len(g.Prods))
	for i, p := range g.Prods {
		rhs := make([]Symbol, len(p.Rhs))
		copy(rhs, p.Rhs)
		prods[i] = Production{Lhs: p.Lhs, Rhs: rhs}
	}
	return New(g.Start, prods).SetProdLines(append([]int(nil), g.prodLines...))
}

// TerminalsOf extracts the terminal names of a word of tokens.
func TerminalsOf(w []Token) []string {
	out := make([]string, len(w))
	for i, t := range w {
		out[i] = t.Terminal
	}
	return out
}

// WordString renders a token word compactly by terminal names.
func WordString(w []Token) string {
	if len(w) == 0 {
		return "ε"
	}
	return strings.Join(TerminalsOf(w), " ")
}
