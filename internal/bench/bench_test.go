package bench

import (
	"strings"
	"testing"
)

// tiny is a configuration small enough for unit tests. It keeps the
// corpora small but uses several trials per point: the figure points are
// best-of-trials, so extra trials buy the perf-gate timing checks
// robustness to scheduler noise.
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

// shapeOnly is cfg with one trial per point: the figure tests below check
// shapes and headers, which no trial count changes. Their timing claims are
// asserted by the perf-gate tests (perfgate_test.go, `make perf-gate`).
func shapeOnly(cfg Config) Config {
	cfg.Trials = 1
	return cfg
}

func TestFig9(t *testing.T) {
	series, err := Fig9(shapeOnly(fig9Config()))
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
	}
	var sb strings.Builder
	PrintFig9(&sb, series)
	if !strings.Contains(sb.String(), "lowess-deviation") {
		t.Errorf("output:\n%s", sb.String())
	}
}

func TestFig10(t *testing.T) {
	rows, err := Fig10(shapeOnly(tiny()))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.ParserSlowdown <= 0 || r.PipelineSlowdown <= 0 || r.InPlaceSlowdown <= 0 {
			t.Errorf("%s: a Figure 10 arm measured nothing: %+v", r.Benchmark, r)
		}
	}
	var sb strings.Builder
	PrintFig10(&sb, rows)
	if !strings.Contains(sb.String(), "lexer+parser slowdown") || !strings.Contains(sb.String(), "in-place slowdown") {
		t.Errorf("output:\n%s", sb.String())
	}
}

func TestFig11(t *testing.T) {
	res, err := Fig11(shapeOnly(tiny()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("points = %d", len(res.Points))
	}
	var sb strings.Builder
	PrintFig11(&sb, res)
	if !strings.Contains(sb.String(), "nonlinearity disappears") {
		t.Errorf("output:\n%s", sb.String())
	}
}
