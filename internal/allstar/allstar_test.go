package allstar

import (
	"math/rand"
	"testing"

	"costar/internal/grammar"
	"costar/internal/grammarlint"
	"costar/internal/machine"
	"costar/internal/parser"
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

func TestFig2(t *testing.T) {
	p := MustNew(fig2(), Options{})
	res := p.Parse(word("a", "b", "d"))
	if res.Kind != machine.Unique {
		t.Fatalf("result = %v (%s)", res.Kind, res.Reason)
	}
	want := tree.Node("S",
		tree.Node("A", tree.Leaf(grammar.Tok("a", "a")),
			tree.Node("A", tree.Leaf(grammar.Tok("b", "b")))),
		tree.Leaf(grammar.Tok("d", "d")))
	if !res.Tree.Equal(want) {
		t.Errorf("tree = %s", res.Tree)
	}
}

func TestRejects(t *testing.T) {
	p := MustNew(fig2(), Options{})
	for _, w := range [][]grammar.Token{
		{}, word("b"), word("a", "b"), word("b", "c", "c"), word("x"),
	} {
		res := p.Parse(w)
		if res.Kind != machine.Reject {
			t.Errorf("%s: %v, want Reject", grammar.WordString(w), res.Kind)
		}
		if res.Reason == "" {
			t.Errorf("%s: empty reject reason", grammar.WordString(w))
		}
	}
}

func TestAmbiguityDetection(t *testing.T) {
	g := grammar.MustParseBNF(`S -> X | Y ; X -> a ; Y -> a`)
	p := MustNew(g, Options{})
	res := p.Parse(word("a"))
	if res.Kind != machine.Ambig {
		t.Fatalf("result = %v, want Ambig", res.Kind)
	}
	if res.Tree.Child(0).NT() != "X" {
		t.Errorf("should resolve to lowest alternative: %s", res.Tree)
	}
}

func TestEarlyConflictDetection(t *testing.T) {
	// Ambiguity deep inside a long input: early conflict detection should
	// not need to scan to the end (we can't observe lookahead directly
	// here, but the result must still be Ambig and correct).
	g := grammar.MustParseBNF(`
		S -> P t t t t t t t t ;
		P -> X | Y ;
		X -> a ;
		Y -> a
	`)
	p := MustNew(g, Options{})
	res := p.Parse(word("a", "t", "t", "t", "t", "t", "t", "t", "t"))
	if res.Kind != machine.Ambig {
		t.Fatalf("result = %v", res.Kind)
	}
}

func TestLeftRecursionErrors(t *testing.T) {
	g := grammar.MustParseBNF(`E -> E plus n | n`)
	p := MustNew(g, Options{})
	res := p.Parse(word("n", "plus", "n"))
	if res.Kind != machine.ResultError {
		t.Fatalf("result = %v, want Error (baseline has no LR support)", res.Kind)
	}
	// Single-production left recursion bypasses prediction; the stack
	// bound must catch it.
	g2 := grammar.MustParseBNF(`A -> A x ; B -> b`)
	g2 = grammar.New("A", g2.Prods)
	p2 := MustNew(g2, Options{})
	res2 := p2.Parse(word("x"))
	if res2.Kind != machine.ResultError {
		t.Fatalf("single-prod LR: %v, want Error", res2.Kind)
	}
}

func TestCacheBehaviour(t *testing.T) {
	p := MustNew(fig2(), Options{})
	p.Parse(word("a", "b", "d"))
	s1, st1 := p.CacheSize()
	if s1 == 0 || st1 == 0 {
		t.Fatal("cache empty after parse")
	}
	p.Parse(word("a", "b", "d"))
	s2, st2 := p.CacheSize()
	if s2 != s1 || st2 != st1 {
		t.Errorf("cache grew on identical input: %d/%d -> %d/%d", s1, st1, s2, st2)
	}
	p.ResetCache()
	if s, st := p.CacheSize(); s != 0 || st != 0 {
		t.Error("ResetCache did not clear")
	}
	fresh := MustNew(fig2(), Options{FreshCachePerParse: true})
	fresh.Parse(word("a", "b", "d"))
	fresh.Parse(word("a", "b", "d"))
	// With fresh caches the sizes stay at the footprint of one parse.
	fs, fst := fresh.CacheSize()
	if fs != s1 || fst != st1 {
		t.Errorf("fresh-cache footprint %d/%d, want %d/%d", fs, fst, s1, st1)
	}
	// WarmUp is Parse-and-discard.
	p.WarmUp(word("b", "c"), word("a", "b", "d"))
	if s, _ := p.CacheSize(); s == 0 {
		t.Error("WarmUp did not build the cache")
	}
}

func TestUnknownTerminalRejects(t *testing.T) {
	p := MustNew(fig2(), Options{})
	res := p.Parse([]grammar.Token{grammar.Tok("unknown", "?")})
	if res.Kind != machine.Reject {
		t.Errorf("unknown terminal: %v", res.Kind)
	}
}

func TestNewValidates(t *testing.T) {
	bad := grammar.New("S", []grammar.Production{
		{Lhs: "S", Rhs: []grammar.Symbol{grammar.NT("Ghost")}},
	})
	if _, err := New(bad, Options{}); err == nil {
		t.Error("malformed grammar accepted")
	}
}

// TestDifferentialAgainstVerified: on random non-left-recursive grammars,
// the imperative baseline and the verified-style engine must agree on
// result kind and (for unique results) on the exact tree — this is what
// licenses the Figure 10 performance comparison.
func TestDifferentialAgainstVerified(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	done := 0
	for done < 150 {
		g := genGrammar(rng)
		if g.Validate() != nil || len(grammarlint.LeftRecursion(g)) > 0 {
			continue
		}
		done++
		base := MustNew(g, Options{})
		ref := parser.MustNew(g, parser.Options{Limits: parser.Limits{MaxSteps: 200000}})
		for i := 0; i < 12; i++ {
			w := genWord(rng, g)
			br := base.Parse(w)
			rr := ref.Parse(w)
			if br.Kind != rr.Kind {
				t.Fatalf("kind mismatch on %s: baseline %v vs verified %v\ngrammar:\n%s",
					grammar.WordString(w), br.Kind, rr.Kind, g)
			}
			switch br.Kind {
			case machine.Unique:
				if !br.Tree.Equal(rr.Tree) {
					t.Fatalf("tree mismatch on %s:\n%s\nvs\n%s\ngrammar:\n%s",
						grammar.WordString(w), br.Tree, rr.Tree, g)
				}
			case machine.Ambig:
				// Both must return *a* valid tree; the choice may differ in
				// principle, though both use lowest-alternative resolution.
				if err := tree.Validate(g, grammar.NT(g.Start), br.Tree, w); err != nil {
					t.Fatalf("baseline ambig tree invalid: %v", err)
				}
			}
		}
	}
}

func genGrammar(rng *rand.Rand) *grammar.Grammar {
	nts := []string{"S", "A", "B", "C"}[:2+rng.Intn(3)]
	ts := []string{"a", "b", "c"}[:1+rng.Intn(3)]
	b := grammar.NewBuilder("S")
	for _, nt := range nts {
		alts := 1 + rng.Intn(3)
		for i := 0; i < alts; i++ {
			n := rng.Intn(4)
			rhs := make([]grammar.Symbol, 0, n)
			for j := 0; j < n; j++ {
				if rng.Intn(3) == 0 && j > 0 {
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

func genWord(rng *rand.Rand, g *grammar.Grammar) []grammar.Token {
	ts := g.Terminals()
	if rng.Intn(2) == 0 || len(ts) == 0 {
		// Derived word.
		form := []grammar.Symbol{grammar.NT(g.Start)}
		var out []grammar.Token
		for steps := 0; len(form) > 0 && steps < 150 && len(out) < 12; steps++ {
			s := form[0]
			form = form[1:]
			if s.IsT() {
				out = append(out, grammar.Tok(s.Name, s.Name))
				continue
			}
			rhss := g.RhssFor(s.Name)
			rhs := rhss[rng.Intn(len(rhss))]
			form = append(append([]grammar.Symbol{}, rhs...), form...)
		}
		if len(form) == 0 {
			return out
		}
	}
	n := rng.Intn(6)
	w := make([]grammar.Token, n)
	for i := range w {
		name := ts[rng.Intn(len(ts))]
		w[i] = grammar.Tok(name, name)
	}
	return w
}
