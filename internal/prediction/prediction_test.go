package prediction

import (
	"strings"
	"testing"

	"costar/internal/grammar"
	"costar/internal/machine"
	"costar/internal/source"
	"costar/internal/tree"
)

func word(terms ...string) []grammar.Token {
	w := make([]grammar.Token, len(terms))
	for i, t := range terms {
		w[i] = grammar.Tok(t, t)
	}
	return w
}

func parse(g *grammar.Grammar, ap *AdaptivePredictor, w []grammar.Token) machine.Result {
	return machine.Multistep(g, ap, machine.Init(g, g.Start, w), machine.Options{CheckInvariants: true})
}

func fig2() *grammar.Grammar {
	return grammar.MustParseBNF(`S -> A c | A d ; A -> a A | b`)
}

func TestFig2EndToEnd(t *testing.T) {
	g := fig2()
	ap := New(g, Options{})
	cases := []struct {
		w    []grammar.Token
		want machine.ResultKind
	}{
		{word("a", "b", "d"), machine.Unique},
		{word("b", "c"), machine.Unique},
		{word("a", "a", "a", "b", "c"), machine.Unique},
		{word("a", "b", "x"), machine.Reject},
		{word("a", "b"), machine.Reject},
		{word(), machine.Reject},
	}
	for _, c := range cases {
		res := parse(g, ap, c.w)
		if res.Kind != c.want {
			t.Errorf("%s: got %v (%s %v), want %v",
				grammar.WordString(c.w), res.Kind, res.Reason, res.Err, c.want)
			continue
		}
		if res.Kind == machine.Unique {
			if err := tree.Validate(g, grammar.NT(g.Start), res.Tree, c.w); err != nil {
				t.Errorf("%s: invalid tree: %v", grammar.WordString(c.w), err)
			}
		}
	}
	if ap.Stats.LLFallbacks != 0 {
		t.Errorf("fig2 is SLL-decidable; LL fallbacks = %d", ap.Stats.LLFallbacks)
	}
}

func TestUnboundedLookahead(t *testing.T) {
	// Not LL(k) for any k: deciding between S's alternatives requires
	// scanning past arbitrarily many a's — the XML elt situation of §6.1.
	g := grammar.MustParseBNF(`S -> X c | X d ; X -> a X | b`)
	ap := New(g, Options{})
	var toks []grammar.Token
	for i := 0; i < 50; i++ {
		toks = append(toks, grammar.Tok("a", "a"))
	}
	toks = append(toks, grammar.Tok("b", "b"), grammar.Tok("d", "d"))
	res := parse(g, ap, toks)
	if res.Kind != machine.Unique {
		t.Fatalf("result = %v (%s %v)", res.Kind, res.Reason, res.Err)
	}
	if ap.Stats.MaxLookahead < 50 {
		t.Errorf("MaxLookahead = %d, expected deep lookahead", ap.Stats.MaxLookahead)
	}
	if err := tree.Validate(g, grammar.NT("S"), res.Tree, toks); err != nil {
		t.Errorf("invalid tree: %v", err)
	}
}

func TestAmbiguityViaLLFallback(t *testing.T) {
	g := grammar.MustParseBNF(`S -> X | Y ; X -> a ; Y -> a`)
	ap := New(g, Options{})
	res := parse(g, ap, word("a"))
	if res.Kind != machine.Ambig {
		t.Fatalf("result = %v, want Ambig", res.Kind)
	}
	if ap.Stats.LLFallbacks == 0 {
		t.Error("ambiguity must be confirmed in LL mode (SLL AmbigP fails over)")
	}
	// ANTLR-style resolution: lowest-numbered alternative.
	if res.Tree.Child(0).NT() != "X" {
		t.Errorf("ambiguity should resolve to the first alternative, got %s", res.Tree)
	}
}

func TestSLLConflictButUnambiguous(t *testing.T) {
	// SLL's overapproximated return contexts make both alternatives of A
	// survive to EOF on "d a t", but LL (knowing the true context) proves
	// alternative 1 unique. The final result must be Unique, via fallback.
	g := grammar.MustParseBNF(`
		S -> c A t | d A ;
		A -> a | a t
	`)
	ap := New(g, Options{})
	res := parse(g, ap, word("d", "a", "t"))
	if res.Kind != machine.Unique {
		t.Fatalf("result = %v (%s %v), want Unique", res.Kind, res.Reason, res.Err)
	}
	if ap.Stats.LLFallbacks == 0 {
		t.Error("expected an SLL→LL fallback on the overapproximation conflict")
	}
	if err := tree.Validate(g, grammar.NT("S"), res.Tree, word("d", "a", "t")); err != nil {
		t.Errorf("invalid tree: %v", err)
	}
	// The same decision through the other context stays SLL-pure.
	res2 := parse(g, ap, word("c", "a", "t"))
	if res2.Kind != machine.Unique {
		t.Fatalf("c a t: %v", res2.Kind)
	}
}

func TestLeftRecursionError(t *testing.T) {
	g := grammar.MustParseBNF(`E -> E plus n | n`)
	ap := New(g, Options{})
	res := parse(g, ap, word("n", "plus", "n"))
	if res.Kind != machine.ResultError {
		t.Fatalf("result = %v, want Error", res.Kind)
	}
	if res.Err.Kind != machine.ErrLeftRecursive || res.Err.NT != "E" {
		t.Errorf("err = %v, want LeftRecursive(E)", res.Err)
	}
}

func TestIndirectLeftRecursionError(t *testing.T) {
	g := grammar.MustParseBNF(`
		A -> B x | a ;
		B -> A y | b
	`)
	ap := New(g, Options{})
	res := parse(g, ap, word("a", "y", "x"))
	if res.Kind != machine.ResultError || res.Err.Kind != machine.ErrLeftRecursive {
		t.Fatalf("result = %v / %v, want LeftRecursive", res.Kind, res.Err)
	}
}

func TestNullableSiblingPrediction(t *testing.T) {
	g := grammar.MustParseBNF(`S -> A A ; A -> %empty | a`)
	ap := New(g, Options{})
	res := parse(g, ap, word("a"))
	if res.Kind != machine.Ambig {
		t.Fatalf("'a' has two derivations; result = %v (%v)", res.Kind, res.Err)
	}
	if err := tree.Validate(g, grammar.NT("S"), res.Tree, word("a")); err != nil {
		t.Errorf("invalid tree: %v", err)
	}
	res2 := parse(g, ap, word("a", "a"))
	if res2.Kind != machine.Unique {
		t.Fatalf("'a a' result = %v, want Unique", res2.Kind)
	}
	res3 := parse(g, ap, word("a", "a", "a"))
	if res3.Kind != machine.Reject {
		t.Fatalf("'a a a' result = %v, want Reject", res3.Kind)
	}
}

func TestCacheReuseAcrossInputs(t *testing.T) {
	g := fig2()
	ap := New(g, Options{})
	w := word("a", "a", "b", "d")
	parse(g, ap, w)
	misses1 := ap.Stats.CacheMisses
	hits1 := ap.Stats.CacheHits
	parse(g, ap, w)
	if ap.Stats.CacheMisses != misses1 {
		t.Errorf("second identical parse computed new DFA edges: %d -> %d",
			misses1, ap.Stats.CacheMisses)
	}
	if ap.Stats.CacheHits <= hits1 {
		t.Error("second identical parse did not hit the cache")
	}
	starts, states := ap.Cache().Size()
	if starts == 0 || states == 0 {
		t.Errorf("cache empty after parsing: %d/%d", starts, states)
	}
	// Sharing an explicit cache between predictors keeps it warm.
	ap2 := New(g, Options{Cache: ap.Cache()})
	parse(g, ap2, w)
	if ap2.Stats.CacheMisses != 0 {
		t.Errorf("pre-warmed predictor recomputed %d edges", ap2.Stats.CacheMisses)
	}
	// Reset empties it.
	ap.Cache().Reset()
	if s, st := ap.Cache().Size(); s != 0 || st != 0 {
		t.Error("Reset did not clear the cache")
	}
}

func TestDisableSLLAblation(t *testing.T) {
	g := fig2()
	ap := New(g, Options{DisableSLL: true})
	res := parse(g, ap, word("a", "b", "d"))
	if res.Kind != machine.Unique {
		t.Fatalf("LL-only parse failed: %v", res.Kind)
	}
	if ap.Stats.SLLCalls != 0 || ap.Stats.CacheHits != 0 {
		t.Errorf("SLL ran despite DisableSLL: %+v", ap.Stats)
	}
}

func TestClosureBudgetExhaustionSurfaces(t *testing.T) {
	// A one-expansion closure budget cannot resolve the S decision; the
	// parse must fail with a structured budget error — not a false Reject —
	// and the predictor's stats must count the exhaustion.
	g := fig2()
	w := word("a", "a", "a", "a", "a", "a", "a", "a", "a", "a", "b", "d")
	ap := New(g, Options{})
	ap.eng.budget = 1
	res := parse(g, ap, w)
	if res.Kind != machine.ResultError {
		t.Fatalf("want Error, got %v (%s)", res.Kind, res.Reason)
	}
	if !strings.Contains(res.Err.Error(), "budget") {
		t.Errorf("error does not mention the budget: %v", res.Err)
	}
	if ap.Stats.BudgetExhaustions == 0 {
		t.Error("Stats.BudgetExhaustions not incremented")
	}
	// The default budget parses the same input fine.
	if res := parse(g, New(g, Options{}), w); res.Kind != machine.Unique {
		t.Fatalf("default budget: %v (%v)", res.Kind, res.Err)
	}
}

func TestTrivialDecisions(t *testing.T) {
	g := grammar.MustParseBNF(`S -> a B ; B -> b`)
	ap := New(g, Options{})
	res := parse(g, ap, word("a", "b"))
	if res.Kind != machine.Unique {
		t.Fatalf("result = %v", res.Kind)
	}
	if ap.Stats.TrivialCalls != 2 || ap.Stats.SLLCalls != 0 {
		t.Errorf("single-alternative decisions should skip prediction: %+v", ap.Stats)
	}
}

func TestPredictUndefinedNT(t *testing.T) {
	// An NTID outside the compiled tables (never interned) has no
	// productions; prediction must reject rather than panic.
	g := fig2()
	ap := New(g, Options{})
	la := source.FromTokens(g.Compiled(), nil)
	p := ap.Predict(grammar.NTID(999), machine.Init(g, "S", nil).Suffix, la)
	if p.Kind != machine.PredReject {
		t.Errorf("undefined NT prediction = %v, want Reject", p.Kind)
	}
	if p := ap.Predict(grammar.NoNT, machine.Init(g, "S", nil).Suffix, la); p.Kind != machine.PredReject {
		t.Errorf("NoNT prediction = %v, want Reject", p.Kind)
	}
}

func TestDeepNestingStaysSane(t *testing.T) {
	// Balanced brackets: deep recursion during both prediction and parsing.
	g := grammar.MustParseBNF(`S -> '(' S ')' | x`)
	ap := New(g, Options{})
	var toks []grammar.Token
	depth := 200
	for i := 0; i < depth; i++ {
		toks = append(toks, grammar.Tok("(", "("))
	}
	toks = append(toks, grammar.Tok("x", "x"))
	for i := 0; i < depth; i++ {
		toks = append(toks, grammar.Tok(")", ")"))
	}
	res := parse(g, ap, toks)
	if res.Kind != machine.Unique {
		t.Fatalf("deep nesting: %v (%s %v)", res.Kind, res.Reason, res.Err)
	}
	if res.Tree.CountNTs("S") != depth+1 {
		t.Errorf("tree has %d S nodes, want %d", res.Tree.CountNTs("S"), depth+1)
	}
}

func TestEpsilonOnlyGrammar(t *testing.T) {
	g := grammar.MustParseBNF(`S -> %empty | a`)
	ap := New(g, Options{})
	if res := parse(g, ap, nil); res.Kind != machine.Unique {
		t.Errorf("ε: %v", res.Kind)
	}
	if res := parse(g, ap, word("a")); res.Kind != machine.Unique {
		t.Errorf("a: %v", res.Kind)
	}
	if res := parse(g, ap, word("a", "a")); res.Kind != machine.Reject {
		t.Errorf("aa: %v", res.Kind)
	}
}

func TestStatsLookaheadAccounting(t *testing.T) {
	g := fig2()
	ap := New(g, Options{})
	parse(g, ap, word("a", "b", "d"))
	if ap.Stats.TokensScanned == 0 {
		t.Error("no lookahead recorded")
	}
	if ap.Stats.MaxLookahead < 2 {
		t.Errorf("MaxLookahead = %d; deciding S needs ≥ 3 tokens on 'a b d'", ap.Stats.MaxLookahead)
	}
}
