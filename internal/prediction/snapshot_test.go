package prediction

// Tests for the snapshot's stack budget — Export and Import accept the same
// snapshots, up to exactly stackSymbolsPerEntry stack symbols per stored
// frame or config — and for exporting a recycled cache.

import (
	"reflect"
	"testing"

	"costar/internal/grammar"
	"costar/internal/languages/pylang"
	"costar/internal/machine"
)

// TestSnapshotStackBudget builds one state of n configs on the top of an
// n-frame chain of frames with empty Rest, so each config names n stack
// symbols, n² in all, against a budget of 64·2n. At n = 128 the snapshot
// sits exactly on the budget: Import accepts it and Export writes it back
// unchanged. At n = 129 it is past the budget: Import refuses the snapshot
// and Export refuses the same state built in a cache.
func TestSnapshotStackBudget(t *testing.T) {
	cg := fig2().Compiled()
	s, _ := cg.NTIDOf("S")
	for _, tc := range []struct {
		n  int
		ok bool
	}{{128, true}, {129, false}} {
		snap := CacheSnapshot{
			Frames: make([]FrameSnapshot, tc.n),
			States: []StateSnapshot{{Configs: make([]ConfigSnapshot, tc.n)}},
		}
		for i := range snap.Frames {
			snap.Frames[i] = FrameSnapshot{Lhs: s, Prod: -1, Below: int32(i - 1)}
		}
		for i := range snap.States[0].Configs {
			snap.States[0].Configs[i] = ConfigSnapshot{Alt: 0, Top: int32(tc.n - 1)}
		}
		c := NewCache(cg)
		err := c.Import(cg, snap)
		if (err == nil) != tc.ok {
			t.Fatalf("n=%d: Import = %v, want accepted %v", tc.n, err, tc.ok)
		}
		if tc.ok {
			back, err := c.Export(cg)
			if err != nil {
				t.Fatalf("n=%d: Export of the imported cache: %v", tc.n, err)
			}
			if !reflect.DeepEqual(back, snap) {
				t.Fatalf("n=%d: Export after Import differs from the snapshot", tc.n)
			}
			continue
		}

		chain := make([]machine.SuffixStack, tc.n)
		for i := range chain {
			chain[i].F = machine.SuffixFrame{Lhs: s}
			if i > 0 {
				chain[i].Below = &chain[i-1]
			}
		}
		cfgs := make([]config, tc.n)
		for i := range cfgs {
			cfgs[i] = config{alt: 0, stack: &chain[tc.n-1]}
		}
		var kb keyBuf
		h := keyHash(kb.build(false, cfgs))
		g := c.gen.Load()
		sh := g.shard(h)
		sh.file(h, sh.mem.newDFAState(cfgs, []int{0}, nil, false, cg.NumTerms()))
		g.nStates.Add(1)
		if _, err := c.Export(cg); err == nil {
			t.Fatalf("n=%d: Export wrote a snapshot Import refuses", tc.n)
		}
	}
}

// TestClearedCacheRebuildsFreshDFA recycles one cache the way a
// FreshCachePerParse session does: parse A, Clear, parse B. The DFA B
// leaves must export equal to the one a new cache builds from B alone, so
// no edge row or start slot carved from the recycled slabs carries a
// state of A's DFA.
func TestClearedCacheRebuildsFreshDFA(t *testing.T) {
	g := pylang.Lang.Grammar()
	cg := g.Compiled()
	tokens := func(seed int64, size int) []grammar.Token {
		toks, err := pylang.Lang.Tokenize(pylang.Generate(seed, size))
		if err != nil {
			t.Fatal(err)
		}
		return toks
	}
	a, b := tokens(1, 1500), tokens(2, 400)
	dfaOf := func(c *Cache, words ...[]grammar.Token) CacheSnapshot {
		t.Helper()
		ap := New(g, Options{Cache: c})
		for i, w := range words {
			if i > 0 {
				c.Clear()
			}
			if res := parse(g, ap, w); res.Kind != machine.Unique {
				t.Fatalf("word %d: %v (%s)", i, res.Kind, res.Reason)
			}
		}
		snap, err := c.Export(cg)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	recycled := NewCache(cg)
	got := dfaOf(recycled, a, b)
	want := dfaOf(NewCache(cg), b)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the recycled cache's DFA (%d states, %d starts) differs from a new cache's (%d, %d)",
			len(got.States), len(got.Starts), len(want.States), len(want.Starts))
	}
	if starts, states := recycled.Size(); starts != len(want.Starts) || states != len(want.States) {
		t.Fatalf("Size = (%d, %d) after recycling, want (%d, %d)", starts, states, len(want.Starts), len(want.States))
	}
}

// TestImportRefusesAnotherGrammarsSizes: a cache's slots are sized for the
// grammar it was made for, so Import refuses a grammar of other sizes
// before reading the snapshot.
func TestImportRefusesAnotherGrammarsSizes(t *testing.T) {
	c := NewCache(fig2().Compiled())
	if err := c.Import(pylang.Lang.Grammar().Compiled(), CacheSnapshot{}); err == nil {
		t.Fatal("a cache made for fig2 imported a snapshot of the Python grammar")
	}
	if err := c.Import(fig2().Compiled(), CacheSnapshot{}); err != nil {
		t.Fatalf("empty snapshot of the cache's own grammar: %v", err)
	}
}
