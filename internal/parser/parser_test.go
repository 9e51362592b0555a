package parser

import (
	"context"
	"strings"
	"testing"

	"costar/internal/grammar"
	"costar/internal/grammarlint"
	"costar/internal/tree"
)

func word(terms ...string) []grammar.Token {
	w := make([]grammar.Token, len(terms))
	for i, t := range terms {
		w[i] = grammar.Tok(t, t)
	}
	return w
}

func fig2() *grammar.Grammar {
	return grammar.MustParseBNF(`S -> A c | A d ; A -> a A | b`)
}

func TestParseUnique(t *testing.T) {
	p := MustNew(fig2(), Options{CheckInvariants: true})
	res := p.Parse(word("a", "b", "d"))
	if res.Kind != Unique {
		t.Fatalf("result = %s", res)
	}
	if res.Tree.String() != `(S (A a:"a" (A b:"b")) d:"d")` {
		t.Errorf("tree = %s", res.Tree)
	}
	if res.Steps == 0 {
		t.Error("Steps not recorded")
	}
	if !strings.HasPrefix(res.String(), "Unique(") {
		t.Errorf("String = %q", res.String())
	}
}

func TestParseReject(t *testing.T) {
	p := MustNew(fig2(), Options{})
	res := p.Parse(word("a", "b"))
	if res.Kind != Reject || res.Reason == "" {
		t.Fatalf("result = %s", res)
	}
	if !strings.HasPrefix(res.String(), "Reject(") {
		t.Errorf("String = %q", res.String())
	}
}

func TestParseAmbig(t *testing.T) {
	g := grammar.MustParseBNF(`S -> X | Y ; X -> a ; Y -> a`)
	p := MustNew(g, Options{CheckInvariants: true})
	res := p.Parse(word("a"))
	if res.Kind != Ambig {
		t.Fatalf("result = %s", res)
	}
	if !strings.HasPrefix(res.String(), "Ambig(") {
		t.Errorf("String = %q", res.String())
	}
}

func TestParseErrorOnLeftRecursion(t *testing.T) {
	g := grammar.MustParseBNF(`E -> E plus n | n`)
	p := MustNew(g, Options{})
	if got := grammarlint.LeftRecursion(g); len(got) != 1 || got[0].NT != "E" {
		t.Errorf("grammarlint.LeftRecursion = %v, want E alone", got)
	}
	res := p.Parse(word("n"))
	if res.Kind != Error || res.Err == nil {
		t.Fatalf("result = %s", res)
	}
	if !strings.HasPrefix(res.String(), "Error(") {
		t.Errorf("String = %q", res.String())
	}
}

func TestNewRejectsMalformedGrammar(t *testing.T) {
	bad := grammar.New("S", []grammar.Production{
		{Lhs: "S", Rhs: []grammar.Symbol{grammar.NT("Missing")}},
	})
	if _, err := New(bad, Options{}); err == nil {
		t.Error("New accepted a malformed grammar")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on malformed grammar")
		}
	}()
	MustNew(bad, Options{})
}

func TestParseFrom(t *testing.T) {
	p := MustNew(fig2(), Options{})
	res := p.ParseInput(context.Background(), Input{Start: "A", Tokens: word("a", "a", "b")})
	if res.Kind != Unique {
		t.Fatalf("ParseInput(A) = %s", res)
	}
	if res.Tree.NT() != "A" {
		t.Errorf("root = %s", res.Tree.NT())
	}
	if res := p.ParseInput(context.Background(), Input{Start: "Ghost"}); res.Kind != Error {
		t.Errorf("ParseInput(Ghost) = %s", res)
	}
	// Input{} is the empty word; Tokens and Pull together are an Error.
	if res := p.ParseInput(context.Background(), Input{}); res.Kind != Reject || res.Consumed != 0 {
		t.Errorf("ParseInput(Input{}) = %s", res)
	}
	eof := func() (grammar.Token, bool, error) { return grammar.Token{}, false, nil }
	if res := p.ParseInput(context.Background(), Input{Tokens: word("b", "c"), Pull: eof}); res.Kind != Error {
		t.Errorf("ParseInput with Tokens and Pull = %s", res)
	}
}

func TestOneShotParse(t *testing.T) {
	res := Parse(fig2(), "S", word("b", "c"))
	if res.Kind != Unique {
		t.Fatalf("Parse = %s", res)
	}
	bad := grammar.New("S", []grammar.Production{
		{Lhs: "S", Rhs: []grammar.Symbol{grammar.NT("Missing")}},
	})
	if res := Parse(bad, "S", nil); res.Kind != Error {
		t.Errorf("Parse on malformed grammar = %s", res)
	}
}

func TestAccepts(t *testing.T) {
	p := MustNew(fig2(), Options{})
	if !p.Accepts(word("b", "d")) {
		t.Error("Accepts(bd) = false")
	}
	if p.Accepts(word("b")) {
		t.Error("Accepts(b) = true")
	}
}

func TestSessionCacheAccumulation(t *testing.T) {
	p := MustNew(fig2(), Options{})
	p.Parse(word("a", "b", "d"))
	s1, st1 := p.CacheSize()
	if s1 == 0 || st1 == 0 {
		t.Fatal("cache empty after a parse")
	}
	missesAfterFirst := p.Stats().CacheMisses
	p.Parse(word("a", "b", "d"))
	if p.Stats().CacheMisses != missesAfterFirst {
		t.Error("second parse recomputed DFA edges despite session cache")
	}
	if p.Stats().CacheHits == 0 {
		t.Error("no cache hits recorded")
	}
	p.ResetCache()
	if s, st := p.CacheSize(); s != 0 || st != 0 {
		t.Error("ResetCache did not clear")
	}
}

func TestFreshCachePerParse(t *testing.T) {
	p := MustNew(fig2(), Options{FreshCachePerParse: true})
	p.Parse(word("a", "b", "d"))
	m1 := p.Stats().CacheMisses
	p.Parse(word("a", "b", "d"))
	if p.Stats().CacheMisses <= m1 {
		t.Error("FreshCachePerParse should recompute the DFA every parse")
	}
	if s, st := p.CacheSize(); s != 0 || st != 0 {
		t.Error("session cache should stay empty with FreshCachePerParse")
	}
}

func TestDisableSLLOption(t *testing.T) {
	p := MustNew(fig2(), Options{DisableSLL: true})
	res := p.Parse(word("a", "b", "c"))
	if res.Kind != Unique {
		t.Fatalf("result = %s", res)
	}
	if p.Stats().SLLCalls != 0 {
		t.Error("SLL ran despite DisableSLL")
	}
}

func TestMaxStepsOption(t *testing.T) {
	p := MustNew(fig2(), Options{Limits: Limits{MaxSteps: 2}})
	res := p.Parse(word("a", "b", "d"))
	if res.Kind != Error {
		t.Fatalf("MaxSteps ignored: %s", res)
	}
}

func TestTreeYieldMatchesInput(t *testing.T) {
	p := MustNew(fig2(), Options{})
	w := word("a", "a", "b", "c")
	res := p.Parse(w)
	if res.Kind != Unique {
		t.Fatal(res)
	}
	y := res.Tree.Yield()
	if len(y) != len(w) {
		t.Fatalf("yield length %d, want %d", len(y), len(w))
	}
	for i := range w {
		if y[i] != w[i] {
			t.Errorf("yield[%d] = %v, want %v", i, y[i], w[i])
		}
	}
	if err := tree.Validate(p.Grammar(), grammar.NT("S"), res.Tree, w); err != nil {
		t.Error(err)
	}
}

func TestAnalysisAccessor(t *testing.T) {
	p := MustNew(fig2(), Options{})
	if p.Analysis() == nil || p.Analysis().Nullable("S") {
		t.Error("analysis accessor broken")
	}
	if p.Grammar().Start != "S" {
		t.Error("grammar accessor broken")
	}
}

func TestRejectExpectedSet(t *testing.T) {
	p := MustNew(fig2(), Options{})
	// After "a b", the machine expects c or d.
	// Prediction scans ahead and rejects at the very first decision, so
	// the machine never consumed a token: the expected set is FIRST(S) and
	// the reason pinpoints how deep the lookahead survived.
	res := p.Parse(word("a", "b"))
	if res.Kind != Reject {
		t.Fatalf("kind = %v", res.Kind)
	}
	if len(res.Expected) != 2 || res.Expected[0] != "a" || res.Expected[1] != "b" {
		t.Errorf("Expected = %v, want [a b]", res.Expected)
	}
	if !strings.Contains(res.Reason, "tokens ahead") {
		t.Errorf("Reason should report the farthest lookahead failure: %q", res.Reason)
	}
	if !strings.Contains(res.Reason, "expected one of: a, b") {
		t.Errorf("Reason = %q", res.Reason)
	}
	// A consume-level mismatch reports the precise expected terminals.
	res = p.Parse(word("b", "x"))
	if res.Kind != Reject {
		t.Fatalf("kind = %v", res.Kind)
	}
	// Trailing garbage: everything consumed, so only end-of-input fits.
	res = p.Parse(word("b", "c", "c"))
	if res.Kind != Reject {
		t.Fatalf("kind = %v", res.Kind)
	}
	if len(res.Expected) != 1 || res.Expected[0] != "<end of input>" {
		t.Errorf("Expected = %v, want [<end of input>]", res.Expected)
	}
}
