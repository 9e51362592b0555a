package lexer

import (
	"io"
	"strings"
	"unicode/utf8"

	"costar/internal/grammar"
	"costar/internal/rx"
)

// fillChunk is how many bytes a Scanner asks the reader for at a time.
const fillChunk = 4096

// errSnippet is how many bytes of context a lexing error carries, matching
// the batch Scan path.
const errSnippet = 12

// Scanner tokenizes input incrementally over a retained string window.
// Token literals are zero-copy: each Lexeme's Tok.Literal is a slice of the
// window — a (pointer, length) view, no per-token byte copy — and keeps
// exactly its window string alive. On the batch path (ScanString / Scan)
// the window is the input itself, so lexing performs zero literal copies;
// on the reader path each refill folds the unconsumed tail and one read
// into a fresh window string. A read asks for as many bytes as the tail
// holds, and never fewer than one 4 KiB chunk, so a token longer than a
// chunk doubles the window at each refill and costs copying linear in its
// length. The scanner retains only the bytes of the token currently being
// matched plus at most as many again, or one chunk, preserving the
// bounded-memory streaming guarantee. It produces exactly the lexemes —
// and exactly the errors — that Scan produces on the same bytes; Scan
// itself is implemented as a drain of a Scanner, so the equivalence holds
// by construction.
//
// A Scanner is single-use and not safe for concurrent use.
type Scanner struct {
	l   *Lexer
	r   io.Reader // nil on the batch path: the window is the whole input
	tmp []byte    // reusable read chunk of fillChunk bytes

	text  string // current window; text[start:] are unconsumed bytes
	start int    // consumption offset into text
	atEOF bool   // r reported io.EOF (or another terminal error)
	ioErr error  // terminal reader error other than io.EOF
	zero  int    // consecutive (0, nil) reads, to detect stuck readers

	line, col int // 1-based position of the next token
	offset    int // absolute byte offset of the next token
	modeStack []int

	done bool
	err  error // sticky: first error returned by Next
}

// ScanReader starts an incremental scan of r. The scanner, its first mode
// and its read chunk are one allocation.
func (l *Lexer) ScanReader(r io.Reader) *Scanner {
	rs := &readScanner{Scanner: Scanner{l: l, r: r, line: 1, col: 1}}
	rs.tmp = rs.buf[:]
	rs.modeStack = rs.modes[:]
	return &rs.Scanner
}

// readScanner is a reader-path Scanner allocated with its mode stack's
// first slot and its read chunk, which holds no pointers and comes last.
type readScanner struct {
	Scanner
	modes [1]int
	buf   [fillChunk]byte
}

// ScanString starts a scan over resident src. The window is src itself —
// already complete — so the scanner never reads, never copies, and every
// lexeme's literal is a slice of src.
func (l *Lexer) ScanString(src string) *Scanner {
	return &Scanner{
		l:         l,
		text:      src,
		atEOF:     true,
		line:      1,
		col:       1,
		modeStack: []int{0},
	}
}

// fill reads from the reader and rebases the window: the unconsumed tail
// and what was read become a fresh string, so lexemes already produced keep
// referencing their old window while the scan moves on. It asks for as many
// bytes as the tail holds and at least fillChunk, so the refills under one
// long token grow the window geometrically. It returns a non-nil error only
// for terminal reader failures (never io.EOF, which just marks the window
// as final).
func (s *Scanner) fill() error {
	if s.atEOF {
		return s.ioErr
	}
	buf := s.tmp
	if tail := len(s.text) - s.start; tail > fillChunk {
		buf = make([]byte, tail) // only under a token longer than a chunk
	}
	n, err := s.r.Read(buf)
	if n > 0 {
		var b strings.Builder
		b.Grow(len(s.text) - s.start + n)
		b.WriteString(s.text[s.start:])
		b.Write(buf[:n])
		s.text = b.String()
		s.start = 0
		s.zero = 0
	} else if err == nil {
		// A reader may legitimately return (0, nil) occasionally, but a
		// reader that does so forever would stall the scan.
		if s.zero++; s.zero >= 100 {
			s.atEOF, s.ioErr = true, io.ErrNoProgress
			return s.ioErr
		}
	}
	if err != nil {
		s.atEOF = true
		if err != io.EOF {
			s.ioErr = err
			return err
		}
	}
	return nil
}

// want grows the window until it holds at least n unconsumed bytes or the
// reader is exhausted.
func (s *Scanner) want(n int) error {
	for len(s.text)-s.start < n && !s.atEOF {
		if err := s.fill(); err != nil {
			return err
		}
	}
	return nil
}

// match runs the current mode's DFA over the window, refilling as the match
// frontier approaches the window end, and returns the longest match (byte
// length and pattern index) — maximal munch, with the DFA's accepting
// states breaking ties by rule priority. An ASCII byte steps the DFA with
// one table load (rx.MultiDFA.NextByte); only a byte ≥ 0x80 starts a rune
// that is decoded and stepped by range search. The loop refills rather than
// decode a rune split across chunks (utf8.FullRuneInString); once the window
// is final (at true end of input, and from the start on the ScanString path)
// it decodes truncated bytes to (RuneError, 1). The index i is relative to
// s.start, which fill rebases to 0 with the tail's order preserved, so i
// survives refills unadjusted.
func (s *Scanner) match(m *rx.MultiDFA) (length, pattern int, ok bool, err error) {
	st := m.Start()
	best, bestPat, found := 0, -1, false
	if r := m.Accept(st); r >= 0 {
		bestPat, found = r, true
	}
	text, i := s.text[s.start:], 0
	for {
		// Step the window's ASCII bytes, one table load each.
		for ; i < len(text) && text[i] < utf8.RuneSelf; i++ {
			if st = m.NextByte(st, text[i]); st < 0 {
				return best, bestPat, found, nil
			}
			if rule := m.Accept(st); rule >= 0 {
				best, bestPat, found = i+1, rule, true
			}
		}
		if !s.atEOF && !utf8.FullRuneInString(text[i:]) {
			if err := s.fill(); err != nil {
				return 0, 0, false, err
			}
			text = s.text[s.start:]
			continue
		}
		if i >= len(text) {
			break
		}
		r, size := utf8.DecodeRuneInString(text[i:])
		if st = m.Next(st, r); st < 0 {
			break
		}
		i += size
		if rule := m.Accept(st); rule >= 0 {
			best, bestPat, found = i, rule, true
		}
	}
	return best, bestPat, found, nil
}

// scan is the one scan step under Next and the pulls: it matches the next
// lexeme, moves the position past it and applies its rule's mode action.
// It returns the mode the lexeme matched in, its pattern index there (the
// rule is s.l.modes[mode].rules[pat]) and its text, a zero-copy slice of
// the window. ok is false at end of input or on error; errors are sticky.
func (s *Scanner) scan() (mode, pat int, text string, ok bool, err error) {
	if s.err != nil {
		return 0, 0, "", false, s.err
	}
	if s.done {
		return 0, 0, "", false, nil
	}
	if s.start >= len(s.text) {
		if err := s.want(1); err != nil {
			s.err = err
			return 0, 0, "", false, err
		}
		if s.start >= len(s.text) {
			s.done = true
			return 0, 0, "", false, nil
		}
	}
	mode = s.modeStack[len(s.modeStack)-1]
	cur := &s.l.modes[mode]
	n, pat, ok, err := s.match(cur.dfa)
	if err != nil {
		s.err = err
		return 0, 0, "", false, err
	}
	if !ok || n == 0 {
		if err := s.want(errSnippet); err != nil {
			s.err = err
			return 0, 0, "", false, err
		}
		end := s.start + errSnippet
		if end > len(s.text) {
			end = len(s.text)
		}
		// The snippet is a slice of the window, not a copy — see Error.
		s.err = &Error{Line: s.line, Col: s.col, Offset: s.offset, Snippet: s.text[s.start:end]}
		return 0, 0, "", false, s.err
	}
	text = s.text[s.start : s.start+n]
	if nl := strings.Count(text, "\n"); nl > 0 {
		s.line += nl
		s.col = 1 + utf8.RuneCountInString(text[strings.LastIndexByte(text, '\n')+1:])
	} else {
		s.col += utf8.RuneCountInString(text)
	}
	s.offset += n
	s.start += n
	if s.start == len(s.text) && s.r != nil {
		// Window fully consumed on the reader path: drop the reference so
		// the next fill starts a fresh window and this one's lifetime is
		// governed solely by the lexemes that slice it.
		s.text, s.start = "", 0
	}
	r := &cur.rules[pat]
	switch {
	case r.push >= 0:
		s.modeStack = append(s.modeStack, r.push)
	case r.set >= 0:
		s.modeStack[len(s.modeStack)-1] = r.set
	case r.pop:
		if len(s.modeStack) == 1 {
			// The triggering lexeme is still delivered; the error surfaces
			// on the next call (the batch adapter discards both, matching
			// Scan's historical behavior).
			s.err = &Error{Line: s.line, Col: s.col, Offset: s.offset, Snippet: "popMode on an empty mode stack"}
		} else {
			s.modeStack = s.modeStack[:len(s.modeStack)-1]
		}
	}
	return mode, pat, text, true, nil
}

// token is scan with skip lexemes passed over: the next lexeme a parser
// sees.
func (s *Scanner) token() (mode, pat int, text string, ok bool, err error) {
	for {
		mode, pat, text, ok, err = s.scan()
		if !ok || !s.l.modes[mode].rules[pat].skip {
			return mode, pat, text, ok, err
		}
	}
}

// Next returns the next lexeme (including skip lexemes). The second result
// is false at end of input or on error; errors are sticky. The lexeme's
// literal is a zero-copy slice of the scanner's current window.
func (s *Scanner) Next() (Lexeme, bool, error) {
	line, col, offset := s.line, s.col, s.offset
	mode, pat, text, ok, err := s.scan()
	if !ok {
		return Lexeme{}, false, err
	}
	r := &s.l.modes[mode].rules[pat]
	return Lexeme{Tok: grammar.Tok(r.name, text), Line: line, Col: col, Offset: offset, Skip: r.skip}, true, nil
}

// Pull returns a demand-driven token source over r: each call lexes just
// enough input to produce the next non-skip token. The returned function
// has the shape source.Pull expects, so a cursor can be built directly on
// top of it; the cursor then looks each token's terminal name up in its
// grammar. A Binding's Pull hands the cursor the terminal IDs instead.
func (l *Lexer) Pull(r io.Reader) func() (grammar.Token, bool, error) {
	sc := l.ScanReader(r)
	return func() (grammar.Token, bool, error) {
		mode, pat, text, ok, err := sc.token()
		if !ok {
			return grammar.Token{}, false, err
		}
		return grammar.Tok(l.modes[mode].rules[pat].name, text), true, nil
	}
}

// scanAll drains a Scanner into a slice; Scan builds on this so the batch
// and streaming paths cannot drift apart.
func scanAll(sc *Scanner) ([]Lexeme, error) {
	var out []Lexeme
	for {
		lx, ok, err := sc.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, lx)
	}
}
