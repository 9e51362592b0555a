package source

import (
	"errors"
	"testing"

	"costar/internal/grammar"
)

func testCompiled(t *testing.T) *grammar.Compiled {
	t.Helper()
	g, err := grammar.ParseBNF(`S -> a S b | c`)
	if err != nil {
		t.Fatal(err)
	}
	return g.Compiled()
}

func word(names ...string) []grammar.Token {
	w := make([]grammar.Token, len(names))
	for i, n := range names {
		w[i] = grammar.Tok(n, n)
	}
	return w
}

func pullOf(w []grammar.Token) Pull {
	i := 0
	return func() (grammar.Token, bool, error) {
		if i >= len(w) {
			return grammar.Token{}, false, nil
		}
		i++
		return w[i-1], true, nil
	}
}

// drain consumes the whole stream, checking Peek/Token/Pos coherence
// against the expected word.
func drain(t *testing.T, s *Cursor, w []grammar.Token, c *grammar.Compiled) {
	t.Helper()
	base := s.Pos()
	for i := range w {
		if s.Pos() != base+i {
			t.Fatalf("Pos = %d, want %d", s.Pos(), base+i)
		}
		id, ok := s.Peek(0)
		if !ok {
			t.Fatalf("Peek(0) ended early at %d", i)
		}
		want, known := c.TermIDOf(w[i].Terminal)
		if !known {
			want = grammar.NoTerm
		}
		if id != want {
			t.Fatalf("Peek(0) at %d = %d, want %d", i, id, want)
		}
		tok, ok := s.Token(0)
		if !ok || tok != w[i] {
			t.Fatalf("Token(0) at %d = %v ok=%v, want %v", i, tok, ok, w[i])
		}
		s.Advance()
	}
	if _, ok := s.Peek(0); ok {
		t.Fatal("Peek(0) succeeded past end of input")
	}
	if s.Err() != nil {
		t.Fatalf("Err = %v on a clean stream", s.Err())
	}
}

func TestSliceAndPullCursorsAgree(t *testing.T) {
	c := testCompiled(t)
	w := word("a", "a", "c", "b", "unknown", "b")
	drain(t, FromTokens(c, w), w, c)
	drain(t, FromPull(c, pullOf(w)), w, c)
}

// idPullOf is pullOf handing out each token's terminal ID, as a lexer bound
// to c does; fail, when non-nil, ends the stream with that error.
func idPullOf(c *grammar.Compiled, w []grammar.Token, fail error) IDPull {
	i := 0
	return func() (grammar.Token, grammar.TermID, bool, error) {
		if i >= len(w) {
			return grammar.Token{}, grammar.NoTerm, false, fail
		}
		i++
		id, ok := c.TermIDOf(w[i-1].Terminal)
		if !ok {
			id = grammar.NoTerm
		}
		return w[i-1], id, true, nil
	}
}

// TestIDPullCursorAgrees: a cursor fed terminal IDs by its producer
// delivers what a named pull delivers, NoTerm included, across compactions,
// keeps a producer failure sticky, and a pooled cursor flips between the
// two producers.
func TestIDPullCursorAgrees(t *testing.T) {
	c := testCompiled(t)
	var w []grammar.Token
	for i := 0; i < 3*compactAt; i++ {
		w = append(w, word("a", "unknown", "c", "b")[i%4])
	}
	var s Cursor
	s.ResetIDPull(c, idPullOf(c, w, nil))
	drain(t, &s, w, c)
	s.ResetPull(c, pullOf(w))
	drain(t, &s, w, c)
	boom := errors.New("boom")
	s.ResetIDPull(c, idPullOf(c, w[:2], boom))
	if _, ok := s.Peek(2); ok || s.Err() != boom {
		t.Fatalf("Peek past a failed producer: ok=%v err=%v", ok, s.Err())
	}
	if _, ok := s.Peek(3); ok || s.Err() != boom {
		t.Fatalf("producer failure not sticky: ok=%v err=%v", ok, s.Err())
	}
}

func TestPeekAheadAndEOF(t *testing.T) {
	c := testCompiled(t)
	w := word("a", "c", "b")
	for _, s := range []*Cursor{FromTokens(c, w), FromPull(c, pullOf(w))} {
		if id, ok := s.Peek(2); !ok || c.TermName(id) != "b" {
			t.Fatalf("Peek(2) = %d, %v", id, ok)
		}
		if _, ok := s.Peek(3); ok {
			t.Fatal("Peek(3) succeeded past end of input")
		}
		// Peeking must not consume.
		if id, ok := s.Peek(0); !ok || c.TermName(id) != "a" {
			t.Fatalf("Peek(0) after deep peek = %d, %v", id, ok)
		}
		if s.Pos() != 0 {
			t.Fatalf("Pos = %d after peeks", s.Pos())
		}
	}
}

func TestAdvancePastEOFIsNoop(t *testing.T) {
	c := testCompiled(t)
	s := FromPull(c, pullOf(word("c")))
	s.Advance() // no peek first: Advance must fetch nothing, head == len
	if s.Pos() != 0 {
		t.Fatalf("Pos = %d; Advance with an empty window must not move", s.Pos())
	}
	if _, ok := s.Peek(0); !ok {
		t.Fatal("stream ended before its one token")
	}
	s.Advance()
	s.Advance()
	if s.Pos() != 1 {
		t.Fatalf("Pos = %d after advancing past EOF, want 1", s.Pos())
	}
}

func TestWindowStaysBounded(t *testing.T) {
	c := testCompiled(t)
	const n = 10000
	w := make([]grammar.Token, n)
	for i := range w {
		w[i] = grammar.Tok("a", "a")
	}
	s := FromPull(c, pullOf(w))
	const look = 5
	for i := 0; i < n; i++ {
		k := look
		if rest := n - i; rest < k {
			k = rest
		}
		s.Peek(k - 1)
		s.Advance()
	}
	if s.Pos() != n {
		t.Fatalf("Pos = %d, want %d", s.Pos(), n)
	}
	if peak := s.PeakWindow(); peak > look+compactAt {
		t.Fatalf("PeakWindow = %d, want <= lookahead %d + slack %d", peak, look, compactAt)
	}
	if s.Window() != 0 {
		t.Fatalf("Window = %d at EOF, want 0", s.Window())
	}
}

func TestPullErrorIsSticky(t *testing.T) {
	c := testCompiled(t)
	boom := errors.New("boom")
	i := 0
	s := FromPull(c, func() (grammar.Token, bool, error) {
		if i >= 2 {
			return grammar.Token{}, false, boom
		}
		i++
		return grammar.Tok("a", "a"), true, nil
	})
	if _, ok := s.Peek(1); !ok {
		t.Fatal("first two tokens should be fine")
	}
	if _, ok := s.Peek(2); ok {
		t.Fatal("Peek(2) should hit the producer error")
	}
	if !errors.Is(s.Err(), boom) {
		t.Fatalf("Err = %v, want boom", s.Err())
	}
	s.Advance()
	s.Advance()
	if _, ok := s.Peek(0); ok || !errors.Is(s.Err(), boom) {
		t.Fatal("error must stay sticky after the window drains")
	}
}

func TestMaterialize(t *testing.T) {
	c := testCompiled(t)
	w := word("a", "a", "c", "b", "b")
	s := FromPull(c, pullOf(w))
	s.Advance() // fetches nothing (empty window): no-op
	if _, ok := s.Peek(0); !ok {
		t.Fatal("unexpected EOF")
	}
	s.Advance()
	rest := s.Materialize()
	if len(rest) != 4 {
		t.Fatalf("Materialize returned %d IDs, want 4", len(rest))
	}
	if name := c.TermName(rest[0]); name != "a" {
		t.Fatalf("rest[0] = %s, want a", name)
	}
	// The cursor still works after materializing.
	drain(t, s, w[1:], c)
}
