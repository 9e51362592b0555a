package costar

// Facade-level tests of the streaming pipeline: the streaming quickstart,
// the TokenSource building blocks, and the acceptance bound — on a million-
// token input, the sliding window must retain only max-lookahead + O(1)
// tokens, never anything proportional to the input.

import (
	"context"
	"errors"
	"strings"
	"testing"

	"costar/internal/languages/jsonlang"
)

func TestParseReaderQuickstart(t *testing.T) {
	// The README example: grammar + lexer from one .g4 source, input from
	// any io.Reader.
	g, lex := MustLoadG4(`
		grammar Calc;
		e : NUM ('+' NUM)* ;
		NUM : [0-9]+ ;
		WS : [ ]+ -> skip ;
	`)
	p := MustNewParser(g, Options{})
	parse := func(text string) Result {
		return p.ParseInput(context.Background(), Input{Start: "e", Pull: lex.Pull(strings.NewReader(text))})
	}
	res := parse("1 + 22 + 333")
	if res.Kind != Unique {
		t.Fatalf("result = %s", res)
	}
	if res.Consumed != 5 {
		t.Errorf("consumed = %d, want 5", res.Consumed)
	}
	if res := parse("1 + + 2"); res.Kind != Reject {
		t.Errorf("bad input: %s", res)
	}
	// Unlexable bytes surface as an Error result, never a false accept.
	if res := parse("1 + \x01"); res.Kind != Error {
		t.Errorf("unlexable input: %s", res)
	}
}

func TestTokenSourceHelpers(t *testing.T) {
	g := MustParseBNF(`S -> A c | A d ; A -> a A | b`)
	p := MustNewParser(g, Options{})

	w := Words("a", "a", "b", "d")
	if res := p.ParseInput(context.Background(), Input{Tokens: w}); res.Kind != Unique {
		t.Fatalf("slice source: %s", res)
	}

	i := 0
	pull := func() (Token, bool, error) {
		if i >= len(w) {
			return Token{}, false, nil
		}
		tok := w[i]
		i++
		return tok, true, nil
	}
	if res := p.ParseSource(NewTokenSource(g, pull)); res.Kind != Unique {
		t.Fatalf("pull source: %s", res)
	}

	// A failing pull becomes an Error result carrying the cause.
	boom := errors.New("disk on fire")
	fail := func() (Token, bool, error) { return Token{}, false, boom }
	res := p.ParseSource(NewTokenSource(g, fail))
	if res.Kind != Error || !strings.Contains(res.Err.Error(), "disk on fire") {
		t.Fatalf("failing source: %s", res)
	}
}

// TestStreamingWindowBoundedOnHugeInput is the headline acceptance check:
// parse a generated JSON document of over a million tokens through the
// reader pipeline and assert the peak resident window stayed within the
// deepest lookahead any prediction used plus the constant compaction slack.
func TestStreamingWindowBoundedOnHugeInput(t *testing.T) {
	if testing.Short() {
		t.Skip("million-token corpus in -short mode")
	}
	src := jsonlang.Generate(3, 1_200_000)
	g := jsonlang.Grammar()
	p := MustNewParser(g, Options{})
	cur := jsonlang.Lang.Cursor(strings.NewReader(src))
	res := p.ParseSource(cur)
	if res.Kind != Unique {
		t.Fatalf("result = %s", res)
	}
	if res.Consumed < 1_000_000 {
		t.Fatalf("corpus too small to be conclusive: %d tokens", res.Consumed)
	}
	bound := res.Stats.MaxLookahead + 64 + 2 // max lookahead + compaction slack
	if cur.PeakWindow() > bound {
		t.Errorf("peak window %d exceeds bound %d on a %d-token input",
			cur.PeakWindow(), bound, res.Consumed)
	}
	t.Logf("%d tokens parsed; peak window %d (max lookahead %d)",
		res.Consumed, cur.PeakWindow(), res.Stats.MaxLookahead)
}
