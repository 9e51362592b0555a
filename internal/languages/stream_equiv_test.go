package languages_test

// Stream/slice equivalence: for every bundled language, parsing through the
// demand-driven reader pipeline (incremental lexing + streaming layout +
// cursor-fed machine) must produce exactly the result of the batch pipeline
// (lex everything, then parse the slice) — same result kind, same tree,
// same ambiguity, same consumed count — for every chunking of the input
// bytes, including 1-byte reads that split multi-byte runes and multi-rune
// tokens across reader calls. A language without a layout pass is also
// parsed through Parser.ParseReader, where the lexer hands the cursor each
// token's terminal ID, under the same contract.

import (
	"io"
	"reflect"
	"testing"

	"costar/internal/languages/dotlang"
	"costar/internal/languages/jsonlang"
	"costar/internal/languages/langkit"
	"costar/internal/languages/pylang"
	"costar/internal/languages/xmllang"
	"costar/internal/parser"
)

// chunkReader serves a string n bytes at a time, forcing the streaming
// pipeline through arbitrary token- and rune-splitting read boundaries.
type chunkReader struct {
	s    string
	i, n int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if r.i >= len(r.s) {
		return 0, io.EOF
	}
	n := r.n
	if n > len(p) {
		n = len(p)
	}
	if r.i+n > len(r.s) {
		n = len(r.s) - r.i
	}
	copy(p, r.s[r.i:r.i+n])
	r.i += n
	return n, nil
}

type streamLang struct {
	name     string
	l        *langkit.Language
	generate func(int64, int) string
	// reader: the language has no layout pass, so its lexer alone feeds
	// ParseReader.
	reader bool
}

func streamLangs() []streamLang {
	return []streamLang{
		{"json", jsonlang.Lang, jsonlang.Generate, true},
		{"xml", xmllang.Lang, xmllang.Generate, true},
		{"dot", dotlang.Lang, dotlang.Generate, true},
		{"python", pylang.Lang, pylang.Generate, false},
	}
}

var chunkSizes = []int{1, 3, 7, 64, 4096}

// checkEquivalence parses src both ways under every chunking and enforces
// the contract: if the batch pipeline lexes src, the streaming results must
// deep-equal the slice result; if batch lexing fails, streaming must reject
// or error (the lexing failure surfaces mid-parse), never accept. Streaming
// runs through the language's cursor and, for a language without a layout
// pass, through ParseReader too.
func checkEquivalence(t *testing.T, l streamLang, p *parser.Parser, src, label string) {
	t.Helper()
	toks, lexErr := l.l.Tokenize(src)
	var sliceRes parser.Result
	if lexErr == nil {
		sliceRes = p.Parse(toks)
	}
	same := func(path string, cs int, streamRes parser.Result) bool {
		t.Helper()
		if lexErr != nil {
			if streamRes.Kind == parser.Unique || streamRes.Kind == parser.Ambig {
				t.Errorf("%s %s %s chunk %d: slice lexing fails (%v) but stream accepted", l.name, label, path, cs, lexErr)
			}
			return false
		}
		if streamRes.Kind != sliceRes.Kind {
			t.Errorf("%s %s %s chunk %d: stream %s, slice %s", l.name, label, path, cs, streamRes.Kind, sliceRes.Kind)
			return false
		}
		if streamRes.Consumed != sliceRes.Consumed {
			t.Errorf("%s %s %s chunk %d: consumed %d, slice %d", l.name, label, path, cs, streamRes.Consumed, sliceRes.Consumed)
		}
		if !reflect.DeepEqual(streamRes.Tree, sliceRes.Tree) {
			t.Errorf("%s %s %s chunk %d: trees differ", l.name, label, path, cs)
		}
		return true
	}
	for _, cs := range chunkSizes {
		cur := l.l.Cursor(&chunkReader{s: src, n: cs})
		streamRes := p.ParseSource(cur)
		// The acceptance bound on the sliding window: the cursor may retain
		// at most the deepest lookahead any prediction used plus the O(1)
		// compaction slack — never anything proportional to the input.
		if same("cursor", cs, streamRes) {
			if bound := streamRes.Stats.MaxLookahead + 64 + 2; cur.PeakWindow() > bound {
				t.Errorf("%s %s chunk %d: peak window %d exceeds lookahead+slack bound %d",
					l.name, label, cs, cur.PeakWindow(), bound)
			}
		}
		if l.reader {
			same("ParseReader", cs, p.ParseReader(l.l.Lexer(), &chunkReader{s: src, n: cs}))
		}
	}
}

func TestStreamMatchesSliceParse(t *testing.T) {
	for _, l := range streamLangs() {
		p := parser.MustNew(l.l.Grammar(), parser.Options{})
		for seed := int64(1); seed <= 3; seed++ {
			src := l.generate(seed, 250)
			checkEquivalence(t, l, p, src, "generated")
			// Truncation can land mid-token and mid-line; both pipelines
			// must still agree (typically on a Reject).
			checkEquivalence(t, l, p, src[:len(src)/2], "truncated")
		}
	}
}

func TestStreamMatchesSliceOnInvalidInputs(t *testing.T) {
	ls := streamLangs()
	cases := []struct {
		l   streamLang
		src string
	}{
		{ls[0], `{"a": 1,}`},                // trailing comma
		{ls[0], `{"a" 1}`},                  // missing colon
		{ls[0], "{\"k\": \x01}"},            // unlexable byte
		{ls[0], `{"a`},                      // truncated mid-token
		{ls[0], ""},                         // empty input
		{ls[1], `<a><b></b>`},               // unclosed root
		{ls[2], `digraph { -> n1; }`},       // dangling edge
		{ls[3], "def f(:\n    pass\n"},      // bad parameter list
		{ls[3], "if x:\n        y\n   z\n"}, // layout error (bad dedent)
		{ls[3], "x = 1\n\xff\xfe"},          // invalid UTF-8 tail
	}
	for _, c := range cases {
		p := parser.MustNew(c.l.l.Grammar(), parser.Options{})
		checkEquivalence(t, c.l, p, c.src, "invalid")
	}
}
