package tree

import (
	"strconv"
	"strings"
	"testing"

	"costar/internal/grammar"
)

func fig2() *grammar.Grammar {
	return grammar.MustParseBNF(`
		S -> A c | A d ;
		A -> a A | b
	`)
}

// fig2Tree is the final tree of Figure 2: (S (A a (A b)) d) over word "abd".
func fig2Tree() *Tree {
	return Node("S",
		Node("A",
			Leaf(grammar.Tok("a", "a")),
			Node("A", Leaf(grammar.Tok("b", "b")))),
		Leaf(grammar.Tok("d", "d")))
}

func fig2Word() []grammar.Token {
	return []grammar.Token{
		grammar.Tok("a", "a"), grammar.Tok("b", "b"), grammar.Tok("d", "d"),
	}
}

func TestYield(t *testing.T) {
	got := fig2Tree().Yield()
	want := fig2Word()
	if len(got) != len(want) {
		t.Fatalf("yield = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("yield[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSizeDepth(t *testing.T) {
	v := fig2Tree()
	if v.Size() != 6 {
		t.Errorf("Size = %d, want 6", v.Size())
	}
	if v.Depth() != 4 {
		t.Errorf("Depth = %d, want 4", v.Depth())
	}
	leaf := Leaf(grammar.Tok("x", "x"))
	if leaf.Size() != 1 || leaf.Depth() != 1 {
		t.Errorf("leaf size/depth = %d/%d", leaf.Size(), leaf.Depth())
	}
	empty := Node("E")
	if empty.Size() != 1 || empty.Depth() != 1 {
		t.Errorf("empty node size/depth = %d/%d", empty.Size(), empty.Depth())
	}
}

func TestEqualAndHash(t *testing.T) {
	a, b := fig2Tree(), fig2Tree()
	if !a.Equal(b) {
		t.Error("identical trees not Equal")
	}
	if a.Hash() != b.Hash() {
		t.Error("identical trees hash differently")
	}
	c := Node("S", fig2Tree().Child(0), Leaf(grammar.Tok("c", "c")))
	if a.Equal(c) {
		t.Error("different trees compared Equal")
	}
	if a.Hash() == c.Hash() {
		t.Error("different trees hash equal (collision on trivial case)")
	}
	// Literal differences matter.
	d := Node("S",
		Node("A",
			Leaf(grammar.Tok("a", "other")),
			Node("A", Leaf(grammar.Tok("b", "b")))),
		Leaf(grammar.Tok("d", "d")))
	if a.Equal(d) {
		t.Error("literal difference not detected")
	}
	// Shape matters even when the leaves read the same:
	// (X (Y a b)) vs (X (Y a) b).
	e := Node("X", Node("Y", Leaf(grammar.Tok("a", "a")), Leaf(grammar.Tok("b", "b"))))
	f := Node("X", Node("Y", Leaf(grammar.Tok("a", "a"))), Leaf(grammar.Tok("b", "b")))
	if e.Equal(f) {
		t.Error("shape difference not detected")
	}
	// Error flags matter.
	if Leaf(grammar.Tok("a", "a")).Equal(ErrorLeaf(grammar.Tok("a", "a"))) ||
		Node("E").Equal(ErrorNode("E")) {
		t.Error("error flag not compared")
	}
	if Leaf(grammar.Tok("a", "a")).Hash() == ErrorLeaf(grammar.Tok("a", "a")).Hash() {
		t.Error("error flag not hashed")
	}
	var nilTree *Tree
	if nilTree.Equal(a) || a.Equal(nil) {
		t.Error("nil comparisons wrong")
	}
	if !nilTree.Equal(nil) {
		t.Error("nil.Equal(nil) should hold")
	}
}

func TestHashDistinguishesShape(t *testing.T) {
	// (X (Y a b)) vs (X (Y a) b) — concatenated leaf content is identical,
	// so the hash must encode structure.
	a := Node("X", Node("Y", Leaf(grammar.Tok("a", "a")), Leaf(grammar.Tok("b", "b"))))
	b := Node("X", Node("Y", Leaf(grammar.Tok("a", "a"))), Leaf(grammar.Tok("b", "b")))
	if a.Hash() == b.Hash() {
		t.Error("hash does not distinguish tree shape")
	}
}

// TestEqualAcrossTables compares a tree built in a parse-style table,
// whose labels are NT IDs into a shared name table and whose error label
// is the reserved ErrNT, with the same tree built by hand.
func TestEqualAcrossTables(t *testing.T) {
	tab := NewTable([]string{"S", "A"})
	a := tab.Leaf(grammar.Tok("a", "a"))
	inner := tab.Node(1, []ID{tab.Leaf(grammar.Tok("b", "b"))})
	outerA := tab.Node(1, []ID{a, inner})
	root := tab.Node(0, []ID{outerA, tab.Leaf(grammar.Tok("d", "d"))})
	if v := tab.Tree(root); !v.Equal(fig2Tree()) || v.Hash() != fig2Tree().Hash() || v.String() != fig2Tree().String() {
		t.Errorf("table tree %s differs from hand-built %s", v, fig2Tree())
	}
	skip := tab.ErrorNode(ErrNT, []ID{tab.Leaf(grammar.Tok("x", "x"))})
	want := ErrorNode(ErrLabel, Leaf(grammar.Tok("x", "x")))
	if v := tab.Tree(skip); !v.Equal(want) || v.NT() != ErrLabel || !v.IsErr() {
		t.Errorf("error node %s, want %s", v, want)
	}
}

// TestTableChunks grows every column past its inline chunk headers and
// gives one node a child span longer than a chunk, then reads it all back.
func TestTableChunks(t *testing.T) {
	tab := NewTable([]string{"L"})
	const n = 3 * maxChunk
	kids := make([]ID, n)
	for i := range kids {
		kids[i] = tab.Leaf(grammar.Tok("a", strconv.Itoa(i)))
	}
	root := tab.Tree(tab.Node(0, kids))
	if root.NumChildren() != n || root.Size() != n+1 || root.Depth() != 2 {
		t.Fatalf("root has %d children, size %d, depth %d", root.NumChildren(), root.Size(), root.Depth())
	}
	for i, tok := range root.Yield() {
		if tok.Literal != strconv.Itoa(i) {
			t.Fatalf("leaf %d holds %s", i, tok)
		}
	}
	if got := root.Child(n - 1).Token().Literal; got != strconv.Itoa(n-1) {
		t.Errorf("last child holds %q", got)
	}
}

func TestStringAndPretty(t *testing.T) {
	v := fig2Tree()
	want := `(S (A a:"a" (A b:"b")) d:"d")`
	if got := v.String(); got != want {
		t.Errorf("String = %s, want %s", got, want)
	}
	p := v.Pretty()
	if !strings.Contains(p, "S\n") || !strings.Contains(p, `  a "a"`) {
		t.Errorf("Pretty output unexpected:\n%s", p)
	}
	lines := strings.Count(p, "\n")
	if lines != v.Size() {
		t.Errorf("Pretty has %d lines, want %d", lines, v.Size())
	}
}

func TestWalkAndCount(t *testing.T) {
	v := fig2Tree()
	var visited []string
	v.Walk(func(n *Tree) bool {
		if n.IsLeaf() {
			visited = append(visited, n.Token().Terminal)
		} else {
			visited = append(visited, n.NT())
		}
		return true
	})
	want := []string{"S", "A", "a", "A", "b", "d"}
	if strings.Join(visited, " ") != strings.Join(want, " ") {
		t.Errorf("preorder = %v, want %v", visited, want)
	}
	if got := v.CountNTs("A"); got != 2 {
		t.Errorf("CountNTs(A) = %d, want 2", got)
	}
	// Walk pruning: stop below S.
	count := 0
	v.Walk(func(n *Tree) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("pruned walk visited %d nodes, want 1", count)
	}
}

func TestValidateAccepts(t *testing.T) {
	g := fig2()
	if err := Validate(g, grammar.NT("S"), fig2Tree(), fig2Word()); err != nil {
		t.Errorf("correct derivation rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	g := fig2()
	w := fig2Word()
	cases := []struct {
		name string
		s    grammar.Symbol
		v    *Tree
		w    []grammar.Token
	}{
		{"nil tree", grammar.NT("S"), nil, w},
		{"wrong root label", grammar.NT("A"), fig2Tree(), w},
		{"leaf for nonterminal", grammar.NT("S"), Leaf(grammar.Tok("a", "a")), w[:1]},
		{"node for terminal", grammar.T("a"), Node("S"), w},
		{"wrong word", grammar.NT("S"), fig2Tree(), fig2Word()[:2]},
		{"not a rhs", grammar.NT("S"), Node("S", Leaf(grammar.Tok("a", "a"))), w[:1]},
		{"wrong leaf terminal", grammar.T("a"), Leaf(grammar.Tok("b", "b")), []grammar.Token{grammar.Tok("b", "b")}},
		{"leaf token mismatch", grammar.T("a"), Leaf(grammar.Tok("a", "a")), []grammar.Token{grammar.Tok("a", "other")}},
	}
	for _, c := range cases {
		if err := Validate(g, c.s, c.v, c.w); err == nil {
			t.Errorf("%s: Validate accepted an incorrect derivation", c.name)
		}
	}
}

func TestValidateDeepMismatch(t *testing.T) {
	g := fig2()
	// Correct shape but the inner A derives "a" via A -> b? No: make the
	// inner child a leaf 'a' under A, which is not an RHS of A.
	v := Node("S",
		Node("A", Leaf(grammar.Tok("a", "a"))),
		Leaf(grammar.Tok("d", "d")))
	w := []grammar.Token{grammar.Tok("a", "a"), grammar.Tok("d", "d")}
	if err := Validate(g, grammar.NT("S"), v, w); err == nil {
		t.Error("deep invalid derivation accepted")
	}
}

func TestValidateForestEpsilon(t *testing.T) {
	g := grammar.MustParseBNF(`S -> A ; A -> %empty`)
	v := Node("S", Node("A"))
	if err := Validate(g, grammar.NT("S"), v, nil); err != nil {
		t.Errorf("ε-derivation rejected: %v", err)
	}
	if err := ValidateForest(g, nil, nil, nil); err != nil {
		t.Errorf("DerNil rejected: %v", err)
	}
	if err := ValidateForest(g, nil, nil, fig2Word()); err == nil {
		t.Error("DerNil with leftover tokens accepted")
	}
}

func TestValidateForestArityMismatch(t *testing.T) {
	g := fig2()
	err := ValidateForest(g, []grammar.Symbol{grammar.T("a")}, nil, nil)
	if err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestSymbolOfTree(t *testing.T) {
	if got := fig2Tree().Symbol(); got != grammar.NT("S") {
		t.Errorf("Symbol = %v", got)
	}
	if got := Leaf(grammar.Tok("a", "x")).Symbol(); got != grammar.T("a") {
		t.Errorf("leaf Symbol = %v", got)
	}
}
