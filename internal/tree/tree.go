// Package tree defines parse trees and forests, and makes the paper's
// derivation relations (Figure 3) executable:
//
//	Trees    v ::= Leaf(t) | Node(X, f)
//	Forests  f ::= • | v, f
//
// The Validate functions implement the judgments s —v→ w and γ —f→ w as
// checkers: a tree is a correct derivation exactly when Validate accepts it.
// These checkers are the soundness oracle used throughout the test suite.
package tree

import (
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"strings"

	"costar/internal/grammar"
)

// Tree is a parse tree: either a leaf holding a token, or an interior node
// holding a nonterminal and the forest of subtrees derived from one of its
// right-hand sides. A Tree is a handle on one node of a Table (the machine
// builds a whole parse in one); its accessors read the table.
//
// A node may also be an error node produced by recovery (IsErr): an
// interior node whose production was abandoned or synthesized (its children
// cover skipped or partially parsed spans), or a leaf whose token was
// inserted by a repair and is not present in the input. Error trees never
// validate against the grammar; Validate rejects them like any other
// non-derivation shape.
type Tree struct {
	t  *Table
	id ID
}

// Leaf constructs a leaf for token t.
func Leaf(t grammar.Token) *Tree {
	tab := &Table{}
	return tab.Tree(tab.Leaf(t))
}

// Node constructs an interior node for nonterminal nt over children. The
// new tree lives in a table of its own: children are copied into it.
func Node(nt string, children ...*Tree) *Tree { return build(nt, 0, children) }

// ErrLabel is the node label recovery uses for error nodes that group
// skipped tokens and belong to no grammar nonterminal.
const ErrLabel = "error"

// ErrorLeaf constructs a leaf for a terminal synthesized by recovery; its
// token is not part of the input word.
func ErrorLeaf(t grammar.Token) *Tree {
	tab := &Table{}
	return tab.Tree(tab.ErrorLeaf(t))
}

// ErrorNode constructs a recovery error node labeled nt covering children
// (skipped-token leaves and/or partially parsed subtrees), copied like
// Node's.
func ErrorNode(nt string, children ...*Tree) *Tree { return build(nt, errBit, children) }

func build(nt string, flags uint32, children []*Tree) *Tree {
	tab := &Table{names: []string{nt}}
	id, span := tab.node(0, len(children), flags)
	for i, c := range children {
		span[i] = tab.copyFrom(c.t, c.id)
	}
	return tab.Tree(id)
}

func (v *Tree) rec() *rec { return v.t.recs.at(v.id) }

// IsLeaf reports whether v is a leaf.
func (v *Tree) IsLeaf() bool { return v.rec().isLeaf() }

// IsErr reports whether v is an error node or leaf produced by recovery.
func (v *Tree) IsErr() bool { return v.rec().isErr() }

// NT returns an interior node's nonterminal label ("" for a leaf).
func (v *Tree) NT() string {
	r := v.rec()
	if r.isLeaf() {
		return ""
	}
	return v.t.name(r.label)
}

// Token returns a leaf's token (the zero Token for an interior node).
func (v *Tree) Token() grammar.Token {
	r := v.rec()
	if !r.isLeaf() {
		return grammar.Token{}
	}
	return *v.t.toks.at(r.first)
}

// NumChildren returns the number of children (0 for a leaf).
func (v *Tree) NumChildren() int { return len(v.t.kidsOf(v.rec())) }

// Child returns the i-th child, counting from 0.
func (v *Tree) Child(i int) *Tree { return v.t.Tree(v.t.kidsOf(v.rec())[i]) }

// HasErr reports whether any node in the tree is an error node.
func (v *Tree) HasErr() bool { return v.t.hasErr(v.id) }

func (t *Table) hasErr(id ID) bool {
	r := t.recs.at(id)
	if r.isErr() {
		return true
	}
	for _, k := range t.kidsOf(r) {
		if t.hasErr(k) {
			return true
		}
	}
	return false
}

// YieldSource returns the input tokens at the leaves of v, left to right,
// excluding tokens synthesized by recovery (Err leaves). On a recovered
// tree this is exactly the consumed-plus-skipped input word, so it
// partitions the source even though the tree is not a derivation.
func (v *Tree) YieldSource() []grammar.Token { return v.t.appendYield(nil, v.id, true) }

// Symbol returns the grammar symbol at the root of the tree.
func (v *Tree) Symbol() grammar.Symbol { return v.t.symbol(v.rec()) }

func (t *Table) symbol(r *rec) grammar.Symbol {
	if r.isLeaf() {
		return grammar.T(t.toks.at(r.first).Terminal)
	}
	return grammar.NT(t.name(r.label))
}

// Yield returns the token word at the leaves of v, left to right.
func (v *Tree) Yield() []grammar.Token { return v.t.appendYield(nil, v.id, false) }

func (t *Table) appendYield(w []grammar.Token, id ID, sourceOnly bool) []grammar.Token {
	r := t.recs.at(id)
	if r.isLeaf() {
		if !sourceOnly || !r.isErr() {
			w = append(w, *t.toks.at(r.first))
		}
		return w
	}
	for _, k := range t.kidsOf(r) {
		w = t.appendYield(w, k, sourceOnly)
	}
	return w
}

// Size returns the number of nodes (leaves and interior) in the tree.
func (v *Tree) Size() int { return v.t.size(v.id) }

func (t *Table) size(id ID) int {
	n := 1
	for _, k := range t.kidsOf(t.recs.at(id)) {
		n += t.size(k)
	}
	return n
}

// Depth returns the height of the tree; a leaf has depth 1.
func (v *Tree) Depth() int { return v.t.depth(v.id) }

func (t *Table) depth(id ID) int {
	d := 0
	for _, k := range t.kidsOf(t.recs.at(id)) {
		d = max(d, t.depth(k))
	}
	return d + 1
}

// Equal reports structural equality of two trees, including token literals
// and error flags. The trees may live in different tables.
func (v *Tree) Equal(o *Tree) bool {
	if v == nil || o == nil {
		return v == o
	}
	return equal(v.t, v.id, o.t, o.id)
}

func equal(a *Table, ai ID, b *Table, bi ID) bool {
	ra, rb := a.recs.at(ai), b.recs.at(bi)
	if ra.meta&(leafBit|errBit) != rb.meta&(leafBit|errBit) {
		return false
	}
	if ra.isLeaf() {
		return *a.toks.at(ra.first) == *b.toks.at(rb.first)
	}
	ka, kb := a.kidsOf(ra), b.kidsOf(rb)
	if len(ka) != len(kb) || a.name(ra.label) != b.name(rb.label) {
		return false
	}
	for i := range ka {
		if !equal(a, ka[i], b, kb[i]) {
			return false
		}
	}
	return true
}

// Hash returns a structural hash consistent with Equal: labels hash by
// name, so equal trees in different tables hash alike.
func (v *Tree) Hash() uint64 {
	h := fnv.New64a()
	v.t.hashInto(h, v.id)
	return h.Sum64()
}

func (t *Table) hashInto(h hash.Hash64, id ID) {
	// Error nodes hash a marker byte; ordinary trees write exactly the
	// bytes they always have, so pre-recovery hashes are unchanged.
	r := t.recs.at(id)
	if r.isErr() {
		h.Write([]byte{3})
	}
	if r.isLeaf() {
		tok := t.toks.at(r.first)
		h.Write([]byte{0})
		io.WriteString(h, tok.Terminal)
		h.Write([]byte{0xff})
		io.WriteString(h, tok.Literal)
		h.Write([]byte{0xff})
		return
	}
	h.Write([]byte{1})
	io.WriteString(h, t.name(r.label))
	h.Write([]byte{0xff})
	for _, k := range t.kidsOf(r) {
		t.hashInto(h, k)
	}
	h.Write([]byte{2})
}

// String renders the tree as an s-expression, e.g.
// (S (A b:"b") d:"d").
func (v *Tree) String() string {
	var b strings.Builder
	v.t.writeSexp(&b, v.id)
	return b.String()
}

func (t *Table) writeSexp(b *strings.Builder, id ID) {
	r := t.recs.at(id)
	if r.isLeaf() {
		if r.isErr() {
			b.WriteByte('!')
		}
		tok := t.toks.at(r.first)
		fmt.Fprintf(b, "%s:%q", tok.Terminal, tok.Literal)
		return
	}
	b.WriteByte('(')
	if r.isErr() {
		b.WriteByte('!')
	}
	b.WriteString(t.name(r.label))
	for _, k := range t.kidsOf(r) {
		b.WriteByte(' ')
		t.writeSexp(b, k)
	}
	b.WriteByte(')')
}

// Pretty renders the tree with one node per line, indented by depth.
func (v *Tree) Pretty() string {
	var b strings.Builder
	v.t.pretty(&b, v.id, 0)
	return b.String()
}

func (t *Table) pretty(b *strings.Builder, id ID, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	r := t.recs.at(id)
	if r.isLeaf() {
		tok := t.toks.at(r.first)
		if r.isErr() {
			fmt.Fprintf(b, "%s %q (inserted)\n", tok.Terminal, tok.Literal)
		} else {
			fmt.Fprintf(b, "%s %q\n", tok.Terminal, tok.Literal)
		}
		return
	}
	b.WriteString(t.name(r.label))
	if r.isErr() {
		b.WriteString(" (error)")
	}
	b.WriteByte('\n')
	for _, k := range t.kidsOf(r) {
		t.pretty(b, k, depth+1)
	}
}

// Walk visits every node of the tree in preorder. If fn returns false the
// subtree below the node is skipped.
func (v *Tree) Walk(fn func(*Tree) bool) {
	if !fn(v) {
		return
	}
	for _, k := range v.t.kidsOf(v.rec()) {
		v.t.Tree(k).Walk(fn)
	}
}

// CountNTs returns how many interior nodes are labeled nt.
func (v *Tree) CountNTs(nt string) int { return v.t.countNTs(v.id, nt) }

func (t *Table) countNTs(id ID, nt string) int {
	r := t.recs.at(id)
	if r.isLeaf() {
		return 0
	}
	n := 0
	if t.name(r.label) == nt {
		n = 1
	}
	for _, k := range t.kidsOf(r) {
		n += t.countNTs(k, nt)
	}
	return n
}

// Validate checks the judgment  s —v→ w  of Figure 3: tree v is a correct
// derivation of word w from symbol s in grammar g. It returns nil when the
// derivation holds.
//
// DerTerminal: a —Leaf(a,l)→ (a,l).
// DerNonterminal: X → γ ∈ G and γ —f→ w entail X —Node(X,f)→ w.
//
// The check is one left-to-right pass that threads the word position
// through the recursion, so each leaf is compared with the word once.
func Validate(g *grammar.Grammar, s grammar.Symbol, v *Tree, w []grammar.Token) error {
	if v == nil {
		return fmt.Errorf("tree: nil tree for symbol %s", s)
	}
	c := checker{g: g, w: w}
	end, err := c.derive(v.t, s, v.id, 0)
	if err != nil {
		return err
	}
	return c.finished(end)
}

// ValidateForest checks the judgment  γ —f→ w  of Figure 3: forest f is a
// correct derivation of word w from sentential form γ.
//
// DerNil: • —•→ ε.  DerCons: s —v→ w1 and β —f→ w2 entail sβ —v,f→ w1w2.
func ValidateForest(g *grammar.Grammar, gamma []grammar.Symbol, f []*Tree, w []grammar.Token) error {
	if len(gamma) != len(f) {
		return fmt.Errorf("tree: sentential form %s has %d symbols but forest has %d trees",
			grammar.SymbolsString(gamma), len(gamma), len(f))
	}
	c := checker{g: g, w: w}
	pos := 0
	for i, s := range gamma {
		if f[i] == nil {
			return fmt.Errorf("tree: nil tree for symbol %s", s)
		}
		var err error
		if pos, err = c.derive(f[i].t, s, f[i].id, pos); err != nil {
			return err
		}
	}
	return c.finished(pos)
}

// checker validates derivations of the word w.
type checker struct {
	g *grammar.Grammar
	w []grammar.Token
}

// derive checks that node id of t derives, from symbol s, the word starting
// at w[pos], and returns the position just past it.
func (c *checker) derive(t *Table, s grammar.Symbol, id ID, pos int) (int, error) {
	r := t.recs.at(id)
	if r.isErr() {
		return 0, fmt.Errorf("tree: error node at symbol %s is not a derivation", s)
	}
	if s.IsT() {
		if !r.isLeaf() {
			return 0, fmt.Errorf("tree: symbol %s is a terminal but tree root is node %s", s, t.name(r.label))
		}
		tok := *t.toks.at(r.first)
		if tok.Terminal != s.Name {
			return 0, fmt.Errorf("tree: leaf terminal %s does not match symbol %s", tok.Terminal, s)
		}
		if pos >= len(c.w) {
			return 0, fmt.Errorf("tree: leaf %s overruns the word at token %d", tok, pos)
		}
		if c.w[pos] != tok {
			return 0, fmt.Errorf("tree: leaf %s does not match token %d (%s)", tok, pos, c.w[pos])
		}
		return pos + 1, nil
	}
	if r.isLeaf() {
		return 0, fmt.Errorf("tree: symbol %s is a nonterminal but tree root is leaf %s", s, *t.toks.at(r.first))
	}
	if name := t.name(r.label); name != s.Name {
		return 0, fmt.Errorf("tree: node label %s does not match symbol %s", name, s)
	}
	// The node's children must correspond to one of X's right-hand sides.
	kids := t.kidsOf(r)
	rhs, ok := c.rhsOf(s.Name, t, kids)
	if !ok {
		form := make([]grammar.Symbol, len(kids))
		for i, k := range kids {
			form[i] = t.symbol(t.recs.at(k))
		}
		return 0, fmt.Errorf("tree: node %s has children %s, which is not a right-hand side of %s in the grammar",
			s.Name, grammar.SymbolsString(form), s.Name)
	}
	for i, k := range kids {
		var err error
		if pos, err = c.derive(t, rhs[i], k, pos); err != nil {
			return 0, err
		}
	}
	return pos, nil
}

// rhsOf returns the right-hand side of nt that the roots of kids spell.
func (c *checker) rhsOf(nt string, t *Table, kids []ID) ([]grammar.Symbol, bool) {
	for _, i := range c.g.ProductionIndices(nt) {
		if alt := c.g.Prods[i].Rhs; matches(t, kids, alt) {
			return alt, true
		}
	}
	return nil, false
}

// finished checks that a derivation ending at end covers the whole word.
func (c *checker) finished(end int) error {
	if end != len(c.w) {
		return fmt.Errorf("tree: derivation covers %d of %d tokens; %d remain (%s...)",
			end, len(c.w), len(c.w)-end, c.w[end])
	}
	return nil
}

// matches reports whether the roots of kids spell the symbols of alt.
func matches(t *Table, kids []ID, alt []grammar.Symbol) bool {
	if len(kids) != len(alt) {
		return false
	}
	for i, k := range kids {
		if t.symbol(t.recs.at(k)) != alt[i] {
			return false
		}
	}
	return true
}
