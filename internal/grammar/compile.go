package grammar

import "fmt"

// This file is the compiled-grammar layer: every symbol is interned to a
// dense integer ID once, at grammar construction, so the parsing engines
// compare and hash machine integers on the hot path instead of strings.
// The paper's §6.1 post-mortem attributes CoStar's worst slowdowns to
// string-keyed symbol comparisons (compareNT inside AVL maps); compiling
// the grammar up front removes that cost everywhere downstream — analysis
// bitsets, machine stacks, prediction subparser sets, DFA state keys.
//
// The public API stays string-based at the edges (T/NT, BNF/g4 front ends,
// pretty printers); Compiled is the session-internal currency.

// TermID is a dense terminal identifier: an index into the compiled
// terminal table. Terminal IDs follow the sorted order of Terminals().
// NoTerm marks a token whose terminal does not occur in the grammar.
type TermID int32

// NTID is a dense nonterminal identifier: an index into the compiled
// nonterminal table. Defined nonterminals come first, in definition order;
// referenced-but-undefined nonterminals (and an undefined start symbol)
// are interned after them so every name occurring anywhere has an ID.
type NTID int32

// Sentinel IDs.
const (
	// NoTerm is the TermID of a token terminal unknown to the grammar; it
	// never equals a compiled RHS symbol, so consumes against it fail.
	NoTerm TermID = -1
	// NoNT marks "no open nonterminal" (the bottom suffix frame).
	NoNT NTID = -1
)

// SymID is a compiled grammar symbol: terminals are their TermID (>= 0),
// nonterminals are the bitwise complement of their NTID (< 0). The encoding
// makes terminal/nonterminal dispatch a sign test with no table lookup.
type SymID int32

// TermSym encodes a terminal ID as a symbol.
func TermSym(t TermID) SymID { return SymID(t) }

// NTSym encodes a nonterminal ID as a symbol.
func NTSym(n NTID) SymID { return ^SymID(n) }

// IsT reports whether s encodes a terminal.
func (s SymID) IsT() bool { return s >= 0 }

// IsNT reports whether s encodes a nonterminal.
func (s SymID) IsNT() bool { return s < 0 }

// Term decodes a terminal symbol; valid only when IsT.
func (s SymID) Term() TermID { return TermID(s) }

// NT decodes a nonterminal symbol; valid only when IsNT.
func (s SymID) NT() NTID { return NTID(^s) }

// Compiled is the dense, fully interned form of a Grammar. It is built once
// by New, immutable afterwards, and safe for concurrent use. All tables are
// index-addressed: productions by index, nonterminals by NTID, terminals by
// TermID — no string hashing or comparison is needed by the engines.
type Compiled struct {
	g *Grammar

	termNames  []string // TermID → name, sorted
	ntNames    []string // NTID → name; [:numDefined] are defined
	termIDs    map[string]TermID
	ntIDs      map[string]NTID
	numDefined int

	prodLhs []NTID    // production index → LHS NTID
	prodRhs [][]SymID // production index → compiled RHS
	ntProds [][]int   // NTID → production indices (empty for undefined NTs)

	start NTID // compiled start symbol (always interned, possibly undefined)

	// cert is the attached well-formedness certificate (certificate.go):
	// nil until a static verifier certifies the grammar, write-once after.
	// It is the only mutable slot on a Compiled and is deliberately not one
	// of the tables above — the immutablecompiled analyzer enforces that
	// the tables are written only here, at construction.
	cert certSlot
}

// compile interns every name in g and builds the dense tables. Called once
// from New, after the string tables are populated.
func compile(g *Grammar) *Compiled {
	c := &Compiled{
		g:       g,
		termIDs: make(map[string]TermID, len(g.terminals)),
		ntIDs:   make(map[string]NTID, len(g.nts)),
	}
	c.termNames = g.terminals
	for i, t := range g.terminals {
		c.termIDs[t] = TermID(i)
	}
	// Defined nonterminals first, in definition order — Nonterminals() is
	// a prefix view of this table.
	c.ntNames = append([]string(nil), g.nts...)
	for i, nt := range c.ntNames {
		c.ntIDs[nt] = NTID(i)
	}
	c.numDefined = len(c.ntNames)
	internNT := func(name string) NTID {
		if id, ok := c.ntIDs[name]; ok {
			return id
		}
		id := NTID(len(c.ntNames))
		c.ntNames = append(c.ntNames, name)
		c.ntIDs[name] = id
		return id
	}
	// Referenced-but-undefined nonterminals (a validated grammar has none,
	// but the machine must be able to name them in error reports), then the
	// start symbol, which may appear nowhere else.
	for _, p := range g.Prods {
		for _, s := range p.Rhs {
			if s.IsNT() {
				internNT(s.Name)
			}
		}
	}
	c.start = internNT(g.Start)

	c.prodLhs = make([]NTID, len(g.Prods))
	c.prodRhs = make([][]SymID, len(g.Prods))
	c.ntProds = make([][]int, len(c.ntNames))
	for i, p := range g.Prods {
		lhs := c.ntIDs[p.Lhs]
		c.prodLhs[i] = lhs
		c.ntProds[lhs] = append(c.ntProds[lhs], i)
		rhs := make([]SymID, len(p.Rhs))
		for j, s := range p.Rhs {
			if s.IsT() {
				rhs[j] = TermSym(c.termIDs[s.Name])
			} else {
				rhs[j] = NTSym(c.ntIDs[s.Name])
			}
		}
		c.prodRhs[i] = rhs
	}
	return c
}

// Grammar returns the source grammar.
func (c *Compiled) Grammar() *Grammar { return c.g }

// NumTerms returns the number of distinct terminals.
func (c *Compiled) NumTerms() int { return len(c.termNames) }

// NumNTs returns the number of interned nonterminals (defined and
// referenced-only).
func (c *Compiled) NumNTs() int { return len(c.ntNames) }

// Start returns the compiled start symbol.
func (c *Compiled) Start() NTID { return c.start }

// TermIDOf resolves a terminal name; ok is false for names not in the
// grammar.
func (c *Compiled) TermIDOf(name string) (TermID, bool) {
	id, ok := c.termIDs[name]
	return id, ok
}

// NTIDOf resolves a nonterminal name; ok is false for names never interned.
func (c *Compiled) NTIDOf(name string) (NTID, bool) {
	id, ok := c.ntIDs[name]
	return id, ok
}

// TermName returns the name of a terminal ID.
func (c *Compiled) TermName(t TermID) string {
	if t < 0 || int(t) >= len(c.termNames) {
		return fmt.Sprintf("<term#%d>", int32(t))
	}
	return c.termNames[t]
}

// NTName returns the name of a nonterminal ID.
func (c *Compiled) NTName(n NTID) string {
	if n < 0 || int(n) >= len(c.ntNames) {
		return fmt.Sprintf("<nt#%d>", int32(n))
	}
	return c.ntNames[n]
}

// NTNames returns the NTID → name table itself, for tables that resolve
// labels by NTID (tree.Table). It is shared: callers must not modify it.
func (c *Compiled) NTNames() []string { return c.ntNames }

// SymName returns the name of a compiled symbol.
func (c *Compiled) SymName(s SymID) string {
	if s.IsT() {
		return c.TermName(s.Term())
	}
	return c.NTName(s.NT())
}

// SymOf converts a compiled symbol back to its string form.
func (c *Compiled) SymOf(s SymID) Symbol {
	if s.IsT() {
		return T(c.TermName(s.Term()))
	}
	return NT(c.NTName(s.NT()))
}

// SymsOf converts a compiled form back to string symbols (rendering and
// diagnostics only; the hot paths stay on IDs).
func (c *Compiled) SymsOf(form []SymID) []Symbol {
	out := make([]Symbol, len(form))
	for i, s := range form {
		out[i] = c.SymOf(s)
	}
	return out
}

// FormString renders a compiled sentential form ("ε" when empty).
func (c *Compiled) FormString(form []SymID) string {
	return SymbolsString(c.SymsOf(form))
}

// CompileForm interns a string sentential form. Symbols unknown to the
// grammar map to out-of-range IDs of the right kind — a terminal that can
// never be consumed, a nonterminal with no productions — so they fail the
// way undefined symbols should rather than colliding with a real ID.
// (TermSym(NoTerm) would NOT work here: -1 is the encoding of nonterminal
// 0.) Callers on validated grammars never hit that case.
func (c *Compiled) CompileForm(form []Symbol) []SymID {
	out := make([]SymID, len(form))
	for i, s := range form {
		if s.IsT() {
			id, ok := c.termIDs[s.Name]
			if !ok {
				id = TermID(len(c.termNames))
			}
			out[i] = TermSym(id)
		} else {
			id, ok := c.ntIDs[s.Name]
			if !ok {
				id = NTID(len(c.ntNames))
			}
			out[i] = NTSym(id)
		}
	}
	return out
}

// HasNTID reports whether n is a defined nonterminal (has productions).
func (c *Compiled) HasNTID(n NTID) bool {
	return n >= 0 && int(n) < c.numDefined
}

// ProdsFor returns the production indices for nonterminal n, in grammar
// order; nil for undefined or out-of-range IDs. The slice must not be
// modified.
func (c *Compiled) ProdsFor(n NTID) []int {
	if n < 0 || int(n) >= len(c.ntProds) {
		return nil
	}
	return c.ntProds[n]
}

// Lhs returns the left-hand side of production i.
func (c *Compiled) Lhs(i int) NTID { return c.prodLhs[i] }

// Rhs returns the compiled right-hand side of production i. The slice must
// not be modified; suffixes of it (Rest fields) alias it, which is what
// lets prediction pin a grammar position by the address of a slice element.
func (c *Compiled) Rhs(i int) []SymID { return c.prodRhs[i] }

// InternTerms maps a token word to its terminal IDs (NoTerm for terminals
// the grammar does not mention — those tokens can never be consumed).
func (c *Compiled) InternTerms(w []Token) []TermID {
	return c.InternTermsInto(make([]TermID, 0, len(w)), w)
}

// InternTermsInto is InternTerms appending into dst, so pooled cursors can
// re-intern a new word without reallocating their ID buffer.
func (c *Compiled) InternTermsInto(dst []TermID, w []Token) []TermID {
	for _, t := range w {
		id, ok := c.termIDs[t.Terminal]
		if !ok {
			id = NoTerm
		}
		dst = append(dst, id)
	}
	return dst
}
