package parser

// Lifetime tests for the pooled per-parse scratch (parseScratch) and the
// Result-scoped tree table: parse trees must stay valid for the Result's
// whole life no matter how much the session's pool is churned afterwards,
// pooled reuse must be safe under ParseInputs concurrency (run these with
// -race), and aborted parses — panics injected at the token source,
// cancellation mid-parse — must never return a half-mutated scratch to the
// pool. A FreshCachePerParse session's parse-private DFA rides in the same
// scratch and must come back empty.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"costar/internal/faultinject"
	"costar/internal/grammar"
	"costar/internal/languages/jsonlang"
	"costar/internal/languages/pylang"
	"costar/internal/machine"
	"costar/internal/source"
	"costar/internal/tree"
)

// jsonWords builds n distinct valid JSON token words of varying size.
func jsonWords(t testing.TB, n int) [][]grammar.Token {
	t.Helper()
	out := make([][]grammar.Token, n)
	for i := range out {
		toks, err := jsonlang.Lang.Tokenize(jsonlang.Generate(int64(i)+1, 200+137*i))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = toks
	}
	return out
}

// TestPooledTreeLifetime parses many words through one session, retaining
// every Result, then churns the pool further and only afterwards checks
// each retained tree — structure, yield, and full grammar validation. If
// pooled reuse ever reclaimed or rewrote a Result-scoped tree node, the
// late validation would see the corruption.
func TestPooledTreeLifetime(t *testing.T) {
	words := jsonWords(t, 12)
	g := jsonlang.Lang.Grammar()
	p := MustNew(g, Options{})
	results := make([]Result, len(words))
	for i, w := range words {
		results[i] = p.Parse(w)
		if results[i].Kind != Unique {
			t.Fatalf("word %d: %v (%s)", i, results[i].Kind, results[i].Reason)
		}
	}
	// Churn: every parse here recycles the same pooled scratch the retained
	// results were built with.
	for i := 0; i < 20; i++ {
		if res := p.Parse(words[i%len(words)]); res.Kind != Unique {
			t.Fatalf("churn parse %d: %v", i, res.Kind)
		}
	}
	fresh := MustNew(g, Options{})
	for i, res := range results {
		want := fresh.Parse(words[i])
		if !res.Tree.Equal(want.Tree) {
			t.Fatalf("word %d: retained tree diverged from a fresh parse after pool churn", i)
		}
		if err := tree.Validate(g, grammar.NT(g.Start), res.Tree, words[i]); err != nil {
			t.Fatalf("word %d: retained tree no longer validates: %v", i, err)
		}
	}
}

// pyWords tokenizes n generated Python files of roughly size tokens each.
func pyWords(t testing.TB, n, size int) [][]grammar.Token {
	t.Helper()
	out := make([][]grammar.Token, n)
	for i := range out {
		toks, err := pylang.Lang.Tokenize(pylang.Generate(int64(i)+7, size))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = toks
	}
	return out
}

// assertSameColdParse checks that got is the parse want is: the same kind,
// tree and steps, and the same prediction Stats, cache hits and misses
// included — which holds only if both parses started from an empty DFA.
func assertSameColdParse(t *testing.T, got, want Result) {
	t.Helper()
	if got.Kind != Unique || want.Kind != Unique {
		t.Fatalf("kinds %v and %v, want Unique (%s%s)", got.Kind, want.Kind, got.Reason, want.Reason)
	}
	if !got.Tree.Equal(want.Tree) || got.Steps != want.Steps {
		t.Fatalf("tree or steps (%d vs %d) differ from a parse on a new session", got.Steps, want.Steps)
	}
	if got.Stats != want.Stats {
		t.Fatalf("prediction stats %+v, want %+v as on a new session", got.Stats, want.Stats)
	}
}

// TestFreshCacheClearedOnRelease checks the lifetime of a FreshCachePerParse
// session's parse-private DFA, which lives in the pooled scratch and is
// cleared when its parse ends: after a ~3k-token Python parse fills it, the
// pooled DFA must export as empty, and a short parse on the same session
// must start from an empty DFA, exactly as a new session parsing the short
// file alone does.
func TestFreshCacheClearedOnRelease(t *testing.T) {
	g := pylang.Lang.Grammar()
	long, short := pyWords(t, 1, 1700)[0], pyWords(t, 1, 60)[0]
	if len(long) < 2500 {
		t.Fatalf("long input has %d tokens, want about 3k", len(long))
	}
	p := MustNew(g, Options{FreshCachePerParse: true})
	if res := p.Parse(long); res.Kind != Unique {
		t.Fatalf("long parse: %v (%s)", res.Kind, res.Reason)
	}
	// The pool may drop the scratch (it does at random under -race); when
	// it comes back, its DFA must hold nothing: no start, and no state left
	// in any shard's table.
	if sc := p.getScratch(); sc.cache != nil {
		snap, err := sc.cache.Export(g.Compiled())
		if err != nil || len(snap.Starts) != 0 || len(snap.States) != 0 {
			t.Fatalf("released parse-private DFA exports %d starts and %d states (err %v), want none",
				len(snap.Starts), len(snap.States), err)
		}
		p.release(sc)
	}
	got := p.Parse(short)
	want := MustNew(g, Options{FreshCachePerParse: true}).Parse(short)
	if want.Stats.CacheMisses == 0 {
		t.Fatal("the short parse builds no DFA state; it cannot tell a cleared cache from a stale one")
	}
	assertSameColdParse(t, got, want)
}

// TestFreshCacheParseAll runs batches on a FreshCachePerParse session: each
// worker's pooled scratch carries its own parse-private DFA, so every
// result must equal parsing that word alone on a new session. Run with
// -race; it also guards against two parses ever sharing one private DFA.
func TestFreshCacheParseAll(t *testing.T) {
	words := pyWords(t, 12, 150)
	g := pylang.Lang.Grammar()
	want := make([]Result, len(words))
	for i, w := range words {
		want[i] = MustNew(g, Options{FreshCachePerParse: true}).Parse(w)
	}
	p := MustNew(g, Options{FreshCachePerParse: true})
	for round := 0; round < 3; round++ {
		for i, res := range parseWords(p, words, 4) {
			assertSameColdParse(t, res, want[i])
		}
	}
}

// TestPooledReuseConcurrent races pooled scratch through ParseInputs: many
// goroutines draw from the session pool at once, repeatedly, and every
// result must match a sequential reference. Run with -race; it also guards
// against two parses ever sharing one scratch.
func TestPooledReuseConcurrent(t *testing.T) {
	words := jsonWords(t, 16)
	p := MustNew(jsonlang.Lang.Grammar(), Options{})
	ref := MustNew(jsonlang.Lang.Grammar(), Options{})
	want := make([]Result, len(words))
	for i, w := range words {
		want[i] = ref.Parse(w)
	}
	for round := 0; round < 4; round++ {
		results := parseWords(p, words, 8)
		for i, res := range results {
			if res.Kind != Unique {
				t.Fatalf("round %d word %d: %v (%s)", round, i, res.Kind, res.Reason)
			}
			if !res.Tree.Equal(want[i].Tree) {
				t.Fatalf("round %d word %d: concurrent pooled parse built a different tree", round, i)
			}
		}
	}
}

// TestAbortedParseDoesNotPoisonPool injects panics and failures at the
// token source mid-parse — which abandon or early-release the pooled
// scratch — and checks that subsequent parses on the same session are
// still correct.
func TestAbortedParseDoesNotPoisonPool(t *testing.T) {
	src := jsonlang.Generate(7, 500)
	toks, err := jsonlang.Lang.Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	p := MustNew(jsonlang.Lang.Grammar(), Options{})
	want := p.Parse(toks)
	if want.Kind != Unique {
		t.Fatalf("baseline: %v", want.Kind)
	}
	c := jsonlang.Lang.Grammar().Compiled()
	for i := 0; i < 8; i++ {
		// A hostile pull that panics mid-parse: the parse must contain it
		// and abandon its scratch.
		pull := faultinject.WrapPull(jsonlang.Lang.Pull(strings.NewReader(src)),
			faultinject.PanicAt(50+i, fmt.Sprintf("injected %d", i)))
		res := p.ParseSource(source.FromPull(c, pull))
		if res.Kind != Error {
			t.Fatalf("panic injection %d: got %v, want Error", i, res.Kind)
		}
		// A failing pull: the parse surfaces a structured error and releases
		// its scratch normally.
		pull = faultinject.WrapPull(jsonlang.Lang.Pull(strings.NewReader(src)),
			faultinject.FailAtToken(30+i, nil))
		if res := p.ParseSource(source.FromPull(c, pull)); res.Kind != Error {
			t.Fatalf("fail injection %d: got %v, want Error", i, res.Kind)
		}
		// A canceled parse.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if res := p.ParseInput(ctx, Input{Tokens: toks}); !res.Canceled() {
			t.Fatalf("cancel %d: got %v, want canceled error", i, res)
		}
		// After each abort, a normal parse through the (possibly recycled)
		// scratch must still be exact.
		res = p.Parse(toks)
		if res.Kind != Unique || !res.Tree.Equal(want.Tree) {
			t.Fatalf("parse after abort %d diverged: %v", i, res.Kind)
		}
	}
}

// TestPooledStreamingReuse alternates slice-backed and pull-backed parses
// through one session so the pooled cursor flips between ResetTokens and
// ResetPull, checking the word-ownership rule: a caller's token slice must
// never be scribbled on by a later pull-backed parse reusing the cursor.
func TestPooledStreamingReuse(t *testing.T) {
	src := jsonlang.Generate(3, 400)
	toks, err := jsonlang.Lang.Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]grammar.Token(nil), toks...)
	p := MustNew(jsonlang.Lang.Grammar(), Options{})
	want := p.Parse(toks)
	if want.Kind != Unique {
		t.Fatalf("baseline: %v", want.Kind)
	}
	for i := 0; i < 6; i++ {
		if res := p.Parse(toks); res.Kind != Unique || !res.Tree.Equal(want.Tree) {
			t.Fatalf("slice parse %d diverged", i)
		}
		if res := p.ParseReader(jsonlang.Lang.Lexer(), strings.NewReader(src)); res.Kind != machine.Unique || !res.Tree.Equal(want.Tree) {
			t.Fatalf("reader parse %d diverged: %v", i, res.Kind)
		}
	}
	for i := range toks {
		if toks[i] != snapshot[i] {
			t.Fatalf("caller-owned token %d was mutated by pooled cursor reuse", i)
		}
	}
}
