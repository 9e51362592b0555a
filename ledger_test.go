package costar

import (
	"context"
	"strings"
	"testing"

	"costar/internal/languages"
)

// ledgerRow is what parsing one language's ledger corpus costs in one
// session configuration. Counts are summed over the corpus; StackDepth,
// PeakWindow and MaxLookahead are high-water marks, so they take the max.
type ledgerRow struct {
	Lang  string
	Fresh bool // Options.FreshCachePerParse

	Steps int

	StackDepth, ClosureWork, TreeNodes, PeakWindow, Tokens int // Usage

	SLLCalls, CacheHits, CacheMisses, LLFallbacks, TrivialCalls, MaxLookahead, TokensScanned int // Stats

	Starts, States int // CacheSize after the corpus
}

// ledger holds the golden counts, one row per built-in language and
// session configuration.
var ledger = []ledgerRow{
	// Lang, Fresh, Steps,
	// StackDepth, ClosureWork, TreeNodes, PeakWindow, Tokens,
	// SLLCalls, CacheHits, CacheMisses, LLFallbacks, TrivialCalls, MaxLookahead, TokensScanned,
	// Starts, States
	{"dot", false, 24885, 171, 3045, 14433, 12, 3984, 8316, 10049, 64, 0, 2133, 12, 10113, 20, 81},
	{"dot", true, 24885, 171, 9001, 14433, 12, 3984, 8316, 9923, 190, 0, 2133, 12, 10113, 0, 0},
	{"json", false, 12888, 35, 249, 8694, 2, 4503, 3382, 3852, 21, 0, 809, 2, 3873, 5, 22},
	{"json", true, 12888, 35, 747, 8694, 2, 4503, 3382, 3810, 63, 0, 809, 2, 3873, 0, 0},
	{"python", false, 157867, 125, 68744, 83345, 2, 8826, 46935, 46571, 446, 0, 27584, 2, 47017, 79, 500},
	{"python", true, 157867, 125, 202765, 83345, 2, 8826, 46935, 45734, 1283, 0, 27584, 2, 47017, 0, 0},
	{"xml", false, 14196, 130, 364, 9425, 12, 4657, 3942, 6986, 33, 0, 826, 12, 7019, 6, 32},
	{"xml", true, 14196, 130, 1092, 9425, 12, 4657, 3942, 6920, 99, 0, 826, 12, 7019, 0, 0},
}

// measureLedger parses three generated files (seeds 1-3, about 1,500
// target tokens each) of the built-in language name through its frontend,
// in order, on one session.
func measureLedger(t *testing.T, name string, fresh bool) ledgerRow {
	fe, err := languages.Builtin(name)
	if err != nil {
		t.Fatal(err)
	}
	p := MustNewParser(fe.Grammar, Options{FreshCachePerParse: fresh})
	row := ledgerRow{Lang: name, Fresh: fresh}
	for seed := int64(1); seed <= 3; seed++ {
		src := fe.Generate(seed, 1500)
		res := p.ParseInput(context.Background(), Input{Pull: fe.Pull(strings.NewReader(src))})
		if res.Kind != Unique {
			t.Fatalf("%s seed %d: %s", name, seed, res)
		}
		u, s := res.Usage, res.Stats
		row.Steps += res.Steps
		row.StackDepth = max(row.StackDepth, u.StackDepth)
		row.ClosureWork += u.ClosureWork
		row.TreeNodes += u.TreeNodes
		row.PeakWindow = max(row.PeakWindow, u.PeakWindow)
		row.Tokens += u.Tokens
		row.SLLCalls += s.SLLCalls
		row.CacheHits += s.CacheHits
		row.CacheMisses += s.CacheMisses
		row.LLFallbacks += s.LLFallbacks
		row.TrivialCalls += s.TrivialCalls
		row.MaxLookahead = max(row.MaxLookahead, s.MaxLookahead)
		row.TokensScanned += s.TokensScanned
	}
	row.Starts, row.States = p.CacheSize()
	return row
}

// TestCostLedger pins what a parse costs in deterministic counts: machine
// steps, resource high-water marks, prediction work and DFA size, for every
// built-in language on a warm session and in the paper's fresh-cache
// configuration. They are the counts behind perfbench's traced machine.*
// and prediction.* metrics, and unlike a clock they are exact, so tier-1
// can gate them. A change that moves a count updates the table above and
// says why in CHANGES.md.
func TestCostLedger(t *testing.T) {
	if want := 2 * len(languages.Names()); len(ledger) != want {
		t.Fatalf("ledger has %d rows, want %d (each built-in language, warm and fresh)", len(ledger), want)
	}
	for _, want := range ledger {
		if got := measureLedger(t, want.Lang, want.Fresh); got != want {
			t.Errorf("cost ledger moved:\n got  %+v\n want %+v", got, want)
		}
	}
}
