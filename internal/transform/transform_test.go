package transform

import (
	"math/rand"
	"strings"
	"testing"

	"costar/internal/earley"
	"costar/internal/grammar"
	"costar/internal/grammarlint"
	"costar/internal/machine"
	"costar/internal/parser"
)

func TestRemoveUseless(t *testing.T) {
	g := grammar.MustParseBNF(`
		S -> A | Loop ;
		A -> a ;
		Loop -> Loop x ;
		Dead -> d
	`)
	out := RemoveUseless(g)
	if out.HasNT("Dead") {
		t.Error("unreachable nonterminal kept")
	}
	if out.HasNT("Loop") {
		t.Error("unproductive nonterminal kept")
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	if !earley.Recognize(out, "S", []string{"a"}) {
		t.Error("language damaged")
	}
}

func TestRemoveUselessEmptyLanguage(t *testing.T) {
	g := grammar.MustParseBNF(`S -> S x`)
	out := RemoveUseless(g)
	if err := out.Validate(); err != nil {
		t.Fatalf("empty-language result must still validate: %v", err)
	}
	if earley.Recognize(out, "S", []string{"x"}) {
		t.Error("empty language grew words")
	}
}

func TestEliminateDirectLeftRecursion(t *testing.T) {
	g := grammar.MustParseBNF(`
		E -> E plus T | T ;
		T -> T star F | F ;
		F -> num | lparen E rparen
	`)
	out, err := EliminateLeftRecursion(g)
	if err != nil {
		t.Fatal(err)
	}
	if lr := grammarlint.LeftRecursion(out); len(lr) != 0 {
		t.Fatalf("still left-recursive: %v\n%s", ntNames(lr), out)
	}
	// CoStar can now parse what it previously errored on.
	p := parser.MustNew(out, parser.Options{})
	w := words("num", "plus", "num", "star", "num")
	res := p.Parse(w)
	if res.Kind != machine.Unique {
		t.Fatalf("transformed grammar parse: %s", res)
	}
	// And the original grammar errors (sanity that the transform matters).
	orig := parser.MustNew(g, parser.Options{})
	if r := orig.Parse(w); r.Kind != machine.ResultError {
		t.Fatalf("original grammar should error, got %v", r.Kind)
	}
}

func TestEliminateIndirectLeftRecursion(t *testing.T) {
	g := grammar.MustParseBNF(`
		A -> B x | a ;
		B -> C y | b ;
		C -> A z | c
	`)
	out, err := EliminateLeftRecursion(g)
	if err != nil {
		t.Fatal(err)
	}
	if lr := grammarlint.LeftRecursion(out); len(lr) != 0 {
		t.Fatalf("still left-recursive: %v\n%s", ntNames(lr), out)
	}
}

func TestEliminateNoOpOnCleanGrammar(t *testing.T) {
	g := grammar.MustParseBNF(`S -> a S | b`)
	out, err := EliminateLeftRecursion(g)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != RemoveUseless(g).String() {
		t.Errorf("clean grammar rewritten:\n%s", out)
	}
}

func TestEliminateRefusesHardCases(t *testing.T) {
	cases := []string{
		`A -> A | a`,                       // unit cycle
		`A -> A x | %empty`,                // nullable + left-recursive
		`A -> N A x | a ; N -> %empty | n`, // hidden left recursion
		`A -> A x`,                         // only-recursive productions... removed as unproductive first
	}
	for _, src := range cases {
		g := grammar.MustParseBNF(src)
		out, err := EliminateLeftRecursion(g)
		if err == nil {
			// Acceptable only if the result really is non-left-recursive
			// and the language is preserved on small words (e.g. the
			// unproductive case collapses to an empty language).
			if lr := grammarlint.LeftRecursion(out); len(lr) != 0 {
				t.Errorf("%q: silently produced a left-recursive grammar", src)
			}
			continue
		}
		if !strings.Contains(err.Error(), "transform:") {
			t.Errorf("%q: unexpected error %v", src, err)
		}
	}
}

// TestEliminationPreservesLanguage: differential check against Earley over
// all words up to length 6 for a battery of grammars.
func TestEliminationPreservesLanguage(t *testing.T) {
	grammars := []string{
		`E -> E plus T | T ; T -> num`,
		`E -> E plus T | T ; T -> T star F | F ; F -> num | lparen E rparen`,
		`A -> B x | a ; B -> C y | b ; C -> A z | c`,
		`L -> L comma x | x`,
		`S -> S a | S b | c`,
	}
	for _, src := range grammars {
		g := grammar.MustParseBNF(src)
		out, err := EliminateLeftRecursion(g)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		terms := g.Terminals()
		var enumerate func(prefix []string, depth int)
		enumerate = func(prefix []string, depth int) {
			inOld := earley.Recognize(g, g.Start, prefix)
			inNew := earley.Recognize(out, out.Start, prefix)
			if inOld != inNew {
				t.Fatalf("%q: language changed on %v: old=%v new=%v\nnew grammar:\n%s",
					src, prefix, inOld, inNew, out)
			}
			if depth == 0 {
				return
			}
			for _, tm := range terms {
				enumerate(append(prefix, tm), depth-1)
			}
		}
		maxLen := 5
		if len(terms) > 3 {
			maxLen = 4
		}
		enumerate(nil, maxLen)
	}
}

// TestEliminationRandomized: random left-recursive-or-not grammars; when
// elimination succeeds, the result must be LR-free and language-equivalent
// on sampled words.
func TestEliminationRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tried, succeeded := 0, 0
	for tried < 250 {
		g := randomGrammar(rng)
		if g.Validate() != nil {
			continue
		}
		tried++
		out, err := EliminateLeftRecursion(g)
		if err != nil {
			continue // hard case, correctly refused
		}
		succeeded++
		if lr := grammarlint.LeftRecursion(out); len(lr) != 0 {
			t.Fatalf("residual left recursion %v\nfrom:\n%s\nto:\n%s", ntNames(lr), g, out)
		}
		for i := 0; i < 30; i++ {
			w := randomWord(rng, g.Terminals(), 6)
			if earley.Recognize(g, g.Start, w) != earley.Recognize(out, out.Start, w) {
				t.Fatalf("language changed on %v\nfrom:\n%s\nto:\n%s", w, g, out)
			}
		}
	}
	if succeeded < tried/4 {
		t.Errorf("elimination succeeded on only %d/%d grammars; guards may be too aggressive", succeeded, tried)
	}
	t.Logf("elimination: %d/%d random grammars transformed", succeeded, tried)
}

func randomGrammar(rng *rand.Rand) *grammar.Grammar {
	nts := []string{"S", "A", "B"}
	ts := []string{"a", "b"}
	b := grammar.NewBuilder("S")
	for _, nt := range nts {
		for i := 0; i < 1+rng.Intn(2); i++ {
			n := 1 + rng.Intn(3)
			rhs := make([]grammar.Symbol, 0, n)
			for j := 0; j < n; j++ {
				if rng.Intn(3) == 0 {
					rhs = append(rhs, grammar.NT(nts[rng.Intn(len(nts))]))
				} else {
					rhs = append(rhs, grammar.T(ts[rng.Intn(len(ts))]))
				}
			}
			b.Add(nt, rhs...)
		}
	}
	return b.Grammar()
}

func randomWord(rng *rand.Rand, terms []string, maxLen int) []string {
	if len(terms) == 0 {
		return nil
	}
	n := rng.Intn(maxLen + 1)
	w := make([]string, n)
	for i := range w {
		w[i] = terms[rng.Intn(len(terms))]
	}
	return w
}

func words(names ...string) []grammar.Token {
	w := make([]grammar.Token, len(names))
	for i, n := range names {
		w[i] = grammar.Tok(n, n)
	}
	return w
}
