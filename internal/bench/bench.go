// Package bench is the evaluation harness: it regenerates every table and
// figure of the paper's Section 6 on synthetic corpora — Figure 8 (grammar
// and data-set sizes), Figure 9 (input size vs. parse time with regression
// and LOWESS), Figure 10 (slowdown of the verified engine relative to the
// imperative baseline, parser-only and full pipeline), and Figure 11 (the
// baseline's cold- vs. warmed-cache behaviour on Python) — plus the
// ablation studies listed in DESIGN.md §5.
package bench

import (
	"fmt"
	"math"
	"time"

	"costar/internal/allstar"
	"costar/internal/grammar"
	"costar/internal/languages/dotlang"
	"costar/internal/languages/jsonlang"
	"costar/internal/languages/pylang"
	"costar/internal/languages/xmllang"
	"costar/internal/machine"
	"costar/internal/parser"
	"costar/internal/stats"
)

// Lang bundles one benchmark language for the harness.
type Lang struct {
	Name     string
	Grammar  *grammar.Grammar
	Tokenize func(string) ([]grammar.Token, error)
	Generate func(seed int64, targetTokens int) string
	// Files and MB mirror the Figure 8 data-set columns for the default
	// corpus (number of files in the paper's sets: 25/1260/48/169 — ours
	// are scaled down but keep the spirit).
	DefaultFiles int
}

// Languages returns the four benchmark languages in Figure 8 order.
func Languages() []Lang {
	return []Lang{
		{"json", jsonlang.Grammar(), jsonlang.Tokenize, jsonlang.Generate, 25},
		{"xml", xmllang.Grammar(), xmllang.Tokenize, xmllang.Generate, 40},
		{"dot", dotlang.Grammar(), dotlang.Tokenize, dotlang.Generate, 48},
		{"python", pylang.Grammar(), pylang.Tokenize, pylang.Generate, 30},
	}
}

// Config scales the experiments.
type Config struct {
	Files     int // files per language (0 = per-language default)
	MinTokens int // smallest corpus file target
	MaxTokens int // largest corpus file target
	Trials    int // timing repetitions per data point (paper: 5)
}

// Quick is a configuration sized for CI and `go test`.
func Quick() Config { return Config{Files: 8, MinTokens: 200, MaxTokens: 4000, Trials: 2} }

// Full is a configuration sized like the paper's plots.
func Full() Config { return Config{MinTokens: 500, MaxTokens: 60000, Trials: 5} }

func (c Config) files(l Lang) int {
	if c.Files > 0 {
		return c.Files
	}
	return l.DefaultFiles
}

// File is one corpus file: source text plus its token word.
type File struct {
	Seed   int64
	Source string
	Tokens []grammar.Token
}

// Corpus generates the deterministic corpus for l: log-spaced sizes between
// MinTokens and MaxTokens.
func Corpus(l Lang, cfg Config) ([]File, error) {
	n := cfg.files(l)
	out := make([]File, 0, n)
	for i := 0; i < n; i++ {
		frac := float64(i) / float64(max(n-1, 1))
		target := float64(cfg.MinTokens) * math.Pow(float64(cfg.MaxTokens)/float64(cfg.MinTokens), frac)
		src := l.Generate(int64(i)+1, int(target))
		toks, err := l.Tokenize(src)
		if err != nil {
			return nil, fmt.Errorf("bench: %s seed %d: %w", l.Name, i+1, err)
		}
		out = append(out, File{Seed: int64(i) + 1, Source: src, Tokens: toks})
	}
	return out, nil
}

// timeIt runs fn trials times and returns the mean duration and per-trial
// durations (for standard deviations).
func timeIt(trials int, fn func()) (time.Duration, []float64) {
	if trials < 1 {
		trials = 1
	}
	samples := make([]float64, trials)
	var total time.Duration
	for i := 0; i < trials; i++ {
		t0 := time.Now()
		fn()
		el := time.Since(t0)
		total += el
		samples[i] = float64(el)
	}
	return total / time.Duration(trials), samples
}

// mustUnique parses and panics unless the result is Unique — corpus files
// are valid by construction, so anything else is a harness bug.
func mustUnique(kind machine.ResultKind, lang string, seed int64, detail string) {
	if kind != machine.Unique {
		panic(fmt.Sprintf("bench: %s corpus seed %d parsed as %v (%s)", lang, seed, kind, detail))
	}
}

// newCoStar builds a verified-engine session in the paper's benchmark
// configuration (fresh prediction cache per parse, like each CoStar trial).
func newCoStar(g *grammar.Grammar, freshCache bool) *parser.Parser {
	return parser.MustNew(g, parser.Options{FreshCachePerParse: freshCache})
}

// newBaseline builds the imperative baseline.
func newBaseline(g *grammar.Grammar, freshCache bool) *allstar.Parser {
	return allstar.MustNew(g, allstar.Options{FreshCachePerParse: freshCache})
}

// LexTime measures pure tokenization time for the file's source.
func lexTime(l Lang, f File, trials int) time.Duration {
	mean, _ := timeIt(trials, func() {
		if _, err := l.Tokenize(f.Source); err != nil {
			panic(err)
		}
	})
	return mean
}

// seriesOf converts (tokens, seconds) rows into stats points.
func seriesOf(tokens []int, secs []float64) []stats.Point {
	pts := make([]stats.Point, len(tokens))
	for i := range tokens {
		pts[i] = stats.Point{X: float64(tokens[i]), Y: secs[i]}
	}
	return pts
}
