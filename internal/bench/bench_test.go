package bench

import (
	"strings"
	"testing"
)

// tiny is a configuration small enough for unit tests.
// tiny keeps the corpora small but uses several trials per point: the
// figure points are best-of-trials, so extra trials buy robustness to
// scheduler noise (these assertions run under -race in CI).
func tiny() Config { return Config{Files: 5, MinTokens: 100, MaxTokens: 1200, Trials: 5} }

func TestCorpusDeterministicAndSized(t *testing.T) {
	for _, l := range Languages() {
		a, err := Corpus(l, tiny())
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		b, err := Corpus(l, tiny())
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != 5 {
			t.Fatalf("%s: %d files", l.Name, len(a))
		}
		for i := range a {
			if a[i].Source != b[i].Source {
				t.Errorf("%s: corpus not deterministic at file %d", l.Name, i)
			}
		}
		if len(a[len(a)-1].Tokens) < 3*len(a[0].Tokens) {
			t.Errorf("%s: sizes not spread: %d .. %d tokens",
				l.Name, len(a[0].Tokens), len(a[len(a)-1].Tokens))
		}
	}
}

func TestFig8(t *testing.T) {
	rows, err := Fig8(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || rows[0].Benchmark != "json" || rows[3].Benchmark != "python" {
		t.Fatalf("rows = %+v", rows)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].P <= rows[i-1].P {
			t.Errorf("production counts must rank json < xml < dot < python: %+v", rows)
		}
	}
	var sb strings.Builder
	PrintFig8(&sb, rows)
	if !strings.Contains(sb.String(), "python") || !strings.Contains(sb.String(), "|P|") {
		t.Errorf("output:\n%s", sb.String())
	}
}

// fig9Config is tiny with a wider size spread and more trials. With a fresh
// cache per parse, Python's DFA warm-up is a fixed cost of tens of
// milliseconds, and across tiny's sizes the per-token part of the line is
// smaller than scheduler noise, so the sign of the slope would be a coin
// toss on a loaded machine.
func fig9Config() Config {
	cfg := tiny()
	cfg.MaxTokens = 6000
	cfg.Trials = 7
	return cfg
}

func TestFig9(t *testing.T) {
	series, err := Fig9(fig9Config())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 5 {
			t.Errorf("%s: %d points", s.Benchmark, len(s.Points))
		}
		if s.Fit.Slope <= 0 {
			t.Errorf("%s: non-positive slope %v", s.Benchmark, s.Fit.Slope)
		}
		// Linearity: the headline claim. Small corpora are noisy — and
		// `go test ./...` runs this concurrently with every other package
		// on shared cores — so the bound is loose here; the full run
		// tightens it.
		if s.LowessDeviation > 0.45 {
			t.Errorf("%s: lowess deviation %.3f suggests nonlinearity", s.Benchmark, s.LowessDeviation)
		}
	}
	var sb strings.Builder
	PrintFig9(&sb, series)
	if !strings.Contains(sb.String(), "lowess-deviation") {
		t.Errorf("output:\n%s", sb.String())
	}
}

func TestFig10(t *testing.T) {
	rows, err := Fig10(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.ParserSlowdown < 1 {
			t.Errorf("%s: verified engine faster than baseline (%.2fx)? suspicious", r.Benchmark, r.ParserSlowdown)
		}
		if r.PipelineSlowdown > r.ParserSlowdown+0.5 {
			t.Errorf("%s: pipeline slowdown (%.1f) should not exceed parser-only (%.1f) — lexing is shared",
				r.Benchmark, r.PipelineSlowdown, r.ParserSlowdown)
		}
	}
	var sb strings.Builder
	PrintFig10(&sb, rows)
	if !strings.Contains(sb.String(), "slowdown") {
		t.Errorf("output:\n%s", sb.String())
	}
}

func TestFig11(t *testing.T) {
	res, err := Fig11(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.WarmSeconds > p.ColdSeconds*1.5 {
			t.Errorf("warm cache slower than cold at %d tokens: %.6f vs %.6f",
				p.Tokens, p.WarmSeconds, p.ColdSeconds)
		}
	}
	// Cold per-token time must fall with file size more than warm does
	// (warm-up amortization — the Figure 11 bend).
	coldDrop := res.ColdPerTokenFirst - res.ColdPerTokenLast
	warmDrop := res.WarmPerTokenFirst - res.WarmPerTokenLast
	if coldDrop <= 0 {
		t.Errorf("cold per-token time did not fall: %.2f -> %.2f µs",
			res.ColdPerTokenFirst, res.ColdPerTokenLast)
	}
	if warmDrop > coldDrop {
		t.Errorf("warm cache shows a bigger bend (%.2f) than cold (%.2f)", warmDrop, coldDrop)
	}
	var sb strings.Builder
	PrintFig11(&sb, res)
	if !strings.Contains(sb.String(), "nonlinearity disappears") {
		t.Errorf("output:\n%s", sb.String())
	}
}
