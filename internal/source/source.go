// Package source provides the demand-driven token cursor that feeds the
// parsing machine. Every engine layer above the lexer consumes input through
// a Cursor instead of a materialized token slice, which is what lets the
// machine parse from an io.Reader in bounded memory: ALL(*) lookahead is
// demand-driven by construction (adaptivePredict pulls tokens only until a
// decision resolves), so the cursor needs to retain just the tokens between
// the parse position and the deepest outstanding peek — a sliding window of
// size O(max lookahead), not O(|w|).
//
// A Cursor is either slice-backed (the whole word is already resident;
// FromTokens) or pull-backed (tokens arrive on demand from an incremental
// lexer or any other producer; FromPull). Both present the same contract:
//
//	Peek(k)   terminal ID of the k-th unconsumed token, false at end of input
//	Token(k)  the token itself (literals feed parse-tree leaves)
//	Advance() consume one token
//	Pos()     absolute position = number of tokens consumed
//	Err()     the producer failure that ended the stream, if any
//
// Each token in the window carries its terminal ID in the compiled grammar,
// so the hot paths downstream stay on dense int32 comparisons exactly as on
// the slice path. A named producer (Pull) has each name looked up as its
// token enters the window; a producer that already knows the IDs (IDPull,
// a lexer bound to the grammar) hands them over with the tokens.
//
// A Cursor is a mutable, single-consumer value: the machine threads one
// cursor linearly through its states. It is not safe for concurrent use —
// concurrent parses each build their own cursor (the shared piece is the
// SLL DFA cache, which lives elsewhere).
package source

import "costar/internal/grammar"

// Pull produces the next token of a stream. ok=false ends the stream: with
// a nil error the input is exhausted; with a non-nil error the producer
// failed (reader error, incremental lexing failure) and the stream is
// truncated at that point.
type Pull func() (grammar.Token, bool, error)

// IDPull is a Pull that also names each token's terminal ID in the cursor's
// grammar (grammar.NoTerm for a terminal the grammar lacks), so the cursor
// looks no name up. lexer.Binding's Pull is one.
type IDPull func() (grammar.Token, grammar.TermID, bool, error)

// compactAt bounds the dead prefix a pull-backed window may accumulate
// before consumed entries are copied away. It is the "O(1) slack" in the
// window-retention bound: retained entries <= max lookahead + compactAt.
const compactAt = 64

// Cursor is the demand-driven token cursor. The zero value is not useful;
// construct with FromTokens or FromPull.
type Cursor struct {
	c      *grammar.Compiled
	toks   []grammar.Token  // window; toks[head:] are fetched but unconsumed
	ids    []grammar.TermID // terminal IDs, parallel to toks
	head   int              // cursor index into the window
	pos    int              // absolute position (tokens consumed)
	pull   Pull             // named producer; nil when slice-backed or idPull is set
	idPull IDPull           // producer with terminal IDs
	eof    bool             // producer exhausted (or failed)
	err    error            // sticky producer failure
	peak   int              // peak window occupancy (diagnostics)
	own    bool             // toks is cursor-allocated (reusable), not the caller's word
}

// FromTokens builds a slice-backed cursor over w. The entire word is the
// window (it is already resident), interned once up front — byte-for-byte
// the cost profile of the former []Token/[]TermID state fields.
func FromTokens(c *grammar.Compiled, w []grammar.Token) *Cursor {
	return &Cursor{c: c, toks: w, ids: c.InternTerms(w), eof: true, peak: len(w)}
}

// FromPull builds a pull-backed cursor: tokens are fetched from pull on
// demand, interned against c as they arrive, and dropped from the window
// once consumed and out of reach of any outstanding peek.
//
// The cursor and the first pullWindow entries of its window are one
// allocation.
func FromPull(c *grammar.Compiled, pull Pull) *Cursor {
	sc := &seededCursor{Cursor: Cursor{c: c, pull: pull, own: true}}
	sc.toks, sc.ids = sc.tok0[:0], sc.id0[:0]
	return &sc.Cursor
}

// pullWindow is how many tokens a new pull-backed cursor's window holds
// before it grows: most lookahead stays within a few tokens.
const pullWindow = 8

// seededCursor is a pull-backed Cursor allocated with its window's first
// entries.
type seededCursor struct {
	Cursor
	tok0 [pullWindow]grammar.Token
	id0  [pullWindow]grammar.TermID
}

// ResetTokens re-initializes s as a slice-backed cursor over w (the
// FromTokens configuration), reusing s's interned-ID buffer so pooled
// cursors re-intern a new word with zero allocations once warm.
func (s *Cursor) ResetTokens(c *grammar.Compiled, w []grammar.Token) {
	ids := c.InternTermsInto(s.ids[:0], w)
	*s = Cursor{c: c, toks: w, ids: ids, eof: true, peak: len(w)}
}

// ResetPull re-initializes s as a pull-backed cursor (the FromPull
// configuration), reusing s's window buffers when they are cursor-owned (a
// previous slice-backed word is the caller's memory and is not recycled).
func (s *Cursor) ResetPull(c *grammar.Compiled, pull Pull) {
	var toks []grammar.Token
	if s.own {
		clear(s.toks[:cap(s.toks)]) // compaction leaves stale tokens past len
		toks = s.toks[:0]
	}
	*s = Cursor{c: c, toks: toks, ids: s.ids[:0], pull: pull, own: true}
}

// ResetIDPull is ResetPull over a producer that names each token's
// terminal ID itself.
func (s *Cursor) ResetIDPull(c *grammar.Compiled, pull IDPull) {
	s.ResetPull(c, nil)
	s.idPull = pull
}

// Clear drops every reference to caller-owned data — the token slice of a
// slice-backed cursor, the pull function, buffered token literals, the
// producer error — while keeping the cursor's own buffers, so a pooled
// cursor retains only reusable capacity between parses.
func (s *Cursor) Clear() {
	var toks []grammar.Token
	if s.own {
		clear(s.toks[:cap(s.toks)]) // compaction leaves stale tokens past len
		toks = s.toks[:0]
	}
	*s = Cursor{toks: toks, ids: s.ids[:0], own: s.own}
}

// Peek returns the terminal ID of the k-th token past the cursor (k = 0 is
// the next token to consume) without consuming anything. ok is false when
// the stream ends before k tokens ahead — cleanly at end of input, or
// because the producer failed (distinguish with Err).
func (s *Cursor) Peek(k int) (grammar.TermID, bool) {
	if i := s.head + k; i < len(s.ids) {
		return s.ids[i], true
	}
	if !s.fetch(k) {
		return grammar.NoTerm, false
	}
	return s.ids[s.head+k], true
}

// Token returns the k-th token past the cursor, under the same contract as
// Peek.
func (s *Cursor) Token(k int) (grammar.Token, bool) {
	if i := s.head + k; i < len(s.toks) {
		return s.toks[i], true
	}
	if !s.fetch(k) {
		return grammar.Token{}, false
	}
	return s.toks[s.head+k], true
}

// fetch grows the window until the k-th token past the cursor is resident;
// it reports false when the stream ends first.
func (s *Cursor) fetch(k int) bool {
	for s.head+k >= len(s.ids) {
		if s.eof {
			return false
		}
		var (
			t   grammar.Token
			id  grammar.TermID
			ok  bool
			err error
		)
		if s.idPull != nil {
			t, id, ok, err = s.idPull()
		} else if t, ok, err = s.pull(); ok {
			var known bool
			if id, known = s.c.TermIDOf(t.Terminal); !known {
				id = grammar.NoTerm
			}
		}
		if err != nil {
			s.eof, s.err = true, err
			return false
		}
		if !ok {
			s.eof = true
			return false
		}
		s.toks = append(s.toks, t)
		s.ids = append(s.ids, id)
	}
	if w := len(s.ids) - s.head; w > s.peak {
		s.peak = w
	}
	return true
}

// Advance consumes one token. Advancing at end of input is a no-op (the
// machine never does; callers need not guard). On pull-backed cursors,
// consumed entries are periodically compacted away so the window retains
// only tokens still reachable by lookahead, plus at most compactAt slack.
func (s *Cursor) Advance() {
	if s.head >= len(s.ids) {
		return
	}
	s.head++
	s.pos++
	if s.pull == nil && s.idPull == nil {
		return // slice-backed: the input is resident anyway, just slide
	}
	if s.head == len(s.ids) {
		s.toks, s.ids, s.head = s.toks[:0], s.ids[:0], 0
		return
	}
	if s.head >= compactAt {
		n := copy(s.toks, s.toks[s.head:])
		copy(s.ids, s.ids[s.head:])
		s.toks, s.ids, s.head = s.toks[:n], s.ids[:n], 0
	}
}

// Pos returns the absolute token position: how many tokens have been
// consumed since the start of the input.
func (s *Cursor) Pos() int { return s.pos }

// Err returns the producer failure that truncated the stream, or nil. A
// false Peek with a nil Err is a clean end of input.
func (s *Cursor) Err() error { return s.err }

// Window returns the current window occupancy (fetched, unconsumed tokens).
func (s *Cursor) Window() int { return len(s.ids) - s.head }

// PeakWindow returns the maximum window occupancy ever reached — the
// bounded-memory claim is PeakWindow <= max lookahead + O(1) on pull-backed
// cursors. Slice-backed cursors report |w|: the input was resident by
// construction.
func (s *Cursor) PeakWindow() int { return s.peak }

// Materialize forces the rest of the stream into the window and returns the
// terminal IDs from the cursor position to the end of input, defeating the
// sliding window. Diagnostics and test oracles only.
func (s *Cursor) Materialize() []grammar.TermID {
	for s.fetch(len(s.ids) - s.head) {
	}
	return append([]grammar.TermID(nil), s.ids[s.head:]...)
}
