package parser

// Session concurrency tests: one Parser used from many goroutines, the
// ParseInputs worker pool, and the determinism-under-parallelism property —
// a concurrently-warmed SLL DFA must yield results identical to a
// sequentially-warmed one. Run with -race; the differential generators
// (genGrammar/genWords) supply the random grammar/word corpus.

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"costar/internal/earley"
	"costar/internal/grammar"
	"costar/internal/grammarlint"
	"costar/internal/languages/jsonlang"
)

// multiStartGrammar has several independent decision nonterminals so that
// concurrent ParseInput calls with distinct start symbols exercise the lazy
// per-start targets map.
func multiStartGrammar() *grammar.Grammar {
	return grammar.MustParseBNF(`
		S -> A c | A d ;
		A -> a A | b ;
		L -> x L | x ;
		P -> l P r | m
	`)
}

func TestConcurrentParseFromDistinctStarts(t *testing.T) {
	g := multiStartGrammar()
	p := MustNew(g, Options{})
	cases := []struct {
		start string
		w     []grammar.Token
		want  Kind
	}{
		{"S", word("a", "a", "b", "c"), Unique},
		{"A", word("a", "b"), Unique},
		{"L", word("x", "x", "x"), Unique},
		{"P", word("l", "l", "m", "r", "r"), Unique},
		{"S", word("b"), Reject},
		{"P", word("l", "m"), Reject},
	}
	const rounds = 50
	var wg sync.WaitGroup
	for k := range cases {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := cases[k]
			for i := 0; i < rounds; i++ {
				if res := p.ParseInput(context.Background(), Input{Start: c.start, Tokens: c.w}); res.Kind != c.want {
					t.Errorf("ParseInput(%s, %s) = %v, want %v", c.start, grammar.WordString(c.w), res.Kind, c.want)
					return
				}
			}
		}(k)
	}
	// Concurrent readers of session state while the parses run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			s := p.Stats()
			if s.SLLCalls < 0 {
				t.Error("negative SLLCalls")
				return
			}
			if starts, states := p.CacheSize(); starts < 0 || states < 0 {
				t.Error("negative cache size")
				return
			}
		}
	}()
	wg.Wait()
	if s := p.Stats(); s.SLLCalls == 0 {
		t.Error("no SLL activity accumulated across concurrent parses")
	}
}

func TestParseAllMatchesSequential(t *testing.T) {
	g := multiStartGrammar()
	words := [][]grammar.Token{
		word("a", "b", "c"),
		word("b", "d"),
		word("a", "a", "a", "b", "d"),
		word("b"), // reject
		nil,       // reject (empty)
		word("a", "b", "c"),
	}
	seq := MustNew(g, Options{})
	want := make([]Result, len(words))
	for i, w := range words {
		want[i] = seq.Parse(w)
	}
	for _, workers := range []int{0, 1, 2, 4, 8} {
		par := MustNew(g, Options{})
		got := parseWords(par, words, workers)
		if len(got) != len(words) {
			t.Fatalf("workers=%d: %d results for %d words", workers, len(got), len(words))
		}
		for i := range got {
			assertSameResult(t, got[i], want[i], g, words[i])
		}
	}
}

func TestParseAllOneShot(t *testing.T) {
	g := multiStartGrammar()
	words := [][]grammar.Token{word("b", "c"), word("x")}
	res := parseWords(MustNew(g, Options{}), words, 2)
	if res[0].Kind != Unique || res[1].Kind != Reject {
		t.Errorf("results = %v, %v", res[0], res[1])
	}
	// A batch from a start symbol the grammar lacks fails every item.
	res = MustNew(g, Options{}).ParseInputs(context.Background(), len(words), func(i int) (Input, func(), error) {
		return Input{Start: "Undefined", Tokens: words[i]}, nil, nil
	}, 2)
	if len(res) != 2 || res[0].Kind != Error || res[1].Kind != Error {
		t.Errorf("unknown start results = %v", res)
	}
	if out := parseWords(MustNew(g, Options{}), nil, 4); len(out) != 0 {
		t.Errorf("empty batch returned %d results", len(out))
	}
}

// parseWords batch-parses resident words through ParseInputs.
func parseWords(p *Parser, words [][]grammar.Token, workers int) []Result {
	return p.ParseInputs(context.Background(), len(words), func(i int) (Input, func(), error) {
		return Input{Tokens: words[i]}, nil, nil
	}, workers)
}

// assertSameResult checks the observable parse outcome fields match —
// everything except Stats, whose cache hit/miss split legitimately depends
// on warm-up order.
func assertSameResult(t *testing.T, got, want Result, g *grammar.Grammar, w []grammar.Token) {
	t.Helper()
	if got.Kind != want.Kind {
		t.Fatalf("kind %v != %v\ngrammar:\n%sword: %s", got.Kind, want.Kind, g, grammar.WordString(w))
	}
	if got.Steps != want.Steps || got.Consumed != want.Consumed {
		t.Fatalf("steps/consumed (%d,%d) != (%d,%d) on %s", got.Steps, got.Consumed, want.Steps, want.Consumed, grammar.WordString(w))
	}
	if got.Reason != want.Reason {
		t.Fatalf("reason %q != %q", got.Reason, want.Reason)
	}
	if (got.Tree == nil) != (want.Tree == nil) {
		t.Fatalf("tree presence differs on %s", grammar.WordString(w))
	}
	if got.Tree != nil && !got.Tree.Equal(want.Tree) {
		t.Fatalf("trees differ on %s:\n%s\nvs\n%s", grammar.WordString(w), got.Tree, want.Tree)
	}
	if len(got.Expected) != len(want.Expected) {
		t.Fatalf("expected-set size differs on %s: %v vs %v", grammar.WordString(w), got.Expected, want.Expected)
	}
	for i := range got.Expected {
		if got.Expected[i] != want.Expected[i] {
			t.Fatalf("expected sets differ on %s: %v vs %v", grammar.WordString(w), got.Expected, want.Expected)
		}
	}
}

// TestConcurrentWarmDeterminism is the determinism-under-parallelism
// property: over random non-left-recursive grammars, a session whose cache
// is warmed by 8 goroutines racing over the word set returns results
// identical to a sequentially-warmed session — and both agree with the
// Earley oracle on membership. This is the executable statement that the
// concurrent cache is semantically transparent.
func TestConcurrentWarmDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(8086))
	grammars := 0
	target := 40
	if testing.Short() {
		target = 8
	}
	for grammars < target {
		g := genGrammar(rng)
		if g.Validate() != nil || len(grammarlint.LeftRecursion(g)) > 0 {
			continue
		}
		grammars++
		words := genWords(rng, g, 10)

		seq := MustNew(g, Options{Limits: Limits{MaxSteps: 200000}})
		want := make([]Result, len(words))
		for i, w := range words {
			want[i] = seq.Parse(w)
		}

		par := MustNew(g, Options{Limits: Limits{MaxSteps: 200000}})
		got := parseWords(par, words, 8)
		for i := range words {
			assertSameResult(t, got[i], want[i], g, words[i])
			// Oracle cross-check: parallel warm-up must not flip membership.
			if got[i].Kind == Unique || got[i].Kind == Ambig {
				if !earley.Classify(g, g.Start, words[i]).Member {
					t.Fatalf("parallel parse accepted a non-member\ngrammar:\n%sword: %s", g, grammar.WordString(words[i]))
				}
			}
		}

		// A second, now fully warm, parallel pass must be stable too.
		again := parseWords(par, words, 4)
		for i := range words {
			assertSameResult(t, again[i], want[i], g, words[i])
		}
	}
}

// TestParseReaderSharedLexerTwoGrammars feeds one lexer through ParseReader
// to two sessions at once. jsonlang's session and a BNF session over a
// subset of JSON's terminals, interned in another order, bind the same
// lexer rules to different terminal IDs, and the BNF session binds the
// rules its grammar lacks to NoTerm. Each reader result must equal that
// session's slice parse of the batch-lexed word. Binding is per session:
// writing the IDs into the shared lexer instead is a data race, which this
// test reports under -race.
func TestParseReaderSharedLexerTwoGrammars(t *testing.T) {
	lex := jsonlang.Lexer()
	nums := grammar.MustParseBNF(`
		list -> NUMBER | '[' ']' | '[' list more ']' ;
		more -> %empty | ',' list more
	`)
	jc, nc := jsonlang.Grammar().Compiled(), nums.Compiled()
	if a, _ := jc.TermIDOf("NUMBER"); a == mustTermID(t, nc, "NUMBER") {
		t.Fatalf("NUMBER has ID %d in both grammars; the test needs different interning orders", a)
	}
	if _, ok := nc.TermIDOf("STRING"); ok {
		t.Fatal("the subset grammar must lack STRING")
	}
	docs := []string{
		`[1, [2, 3], [], [[4]]]`,
		`[1, 2`,
		`[1 2]`,
		`-7.5e3`,
		`{"a": [1, 2]}`,
		`[1, "two", 3]`,
		jsonlang.Generate(5, 300),
		jsonlang.Generate(6, 600),
	}
	sessions := []*Parser{MustNew(jsonlang.Grammar(), Options{}), MustNew(nums, Options{})}
	want := make([][]Result, len(sessions))
	for k, p := range sessions {
		for _, d := range docs {
			toks, err := jsonlang.Tokenize(d)
			if err != nil {
				t.Fatal(err)
			}
			want[k] = append(want[k], p.Parse(toks))
		}
	}
	if want[0][0].Kind != Unique || want[1][0].Kind != Unique || want[1][4].Kind != Reject {
		t.Fatalf("premise: want Unique, Unique, Reject; got %v, %v, %v", want[0][0].Kind, want[1][0].Kind, want[1][4].Kind)
	}
	const rounds = 20
	got := make([][]Result, 2*len(sessions))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := sessions[g%len(sessions)]
			for i := 0; i < rounds; i++ {
				for _, d := range docs {
					got[g] = append(got[g], p.ParseReader(lex, strings.NewReader(d)))
				}
			}
		}(g)
	}
	wg.Wait()
	for g, rs := range got {
		k := g % len(sessions)
		for i, res := range rs {
			w := want[k][i%len(docs)]
			if res.Kind != w.Kind || res.Consumed != w.Consumed || !slices.Equal(res.Expected, w.Expected) ||
				(res.Tree == nil) != (w.Tree == nil) || (res.Tree != nil && !res.Tree.Equal(w.Tree)) {
				t.Fatalf("session %d doc %d: reader %v after %d tokens (expected %v), slice %v after %d (expected %v)",
					k, i%len(docs), res.Kind, res.Consumed, res.Expected, w.Kind, w.Consumed, w.Expected)
			}
		}
	}
}

func mustTermID(t *testing.T, c *grammar.Compiled, name string) grammar.TermID {
	t.Helper()
	id, ok := c.TermIDOf(name)
	if !ok {
		t.Fatalf("no terminal %q", name)
	}
	return id
}
