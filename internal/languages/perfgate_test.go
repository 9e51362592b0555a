//go:build perfgate && !race

package languages_test

import (
	"testing"
	"time"

	"costar/internal/languages/jsonlang"
	"costar/internal/languages/pylang"
	"costar/internal/parser"
)

// TestScalingSmoke is a rough linearity guard on warm sessions: 16x the
// tokens must cost well under 64x the time. A wall-clock ratio, so it runs
// only in `make perf-gate`.
func TestScalingSmoke(t *testing.T) {
	pp := parser.MustNew(pylang.Grammar(), parser.Options{})
	pj := parser.MustNew(jsonlang.Grammar(), parser.Options{})
	type row struct {
		n  int
		el time.Duration
	}
	var pyRows, jsRows []row
	for _, n := range []int{2000, 8000, 32000} {
		src := pylang.Generate(3, n)
		toks, err := pylang.Tokenize(src)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		res := pp.Parse(toks)
		el := time.Since(start)
		if res.Kind != parser.Unique {
			t.Fatalf("py %d: %v", n, res.Kind)
		}
		pyRows = append(pyRows, row{len(toks), el})
		t.Logf("py  %6d toks in %v", len(toks), el)

		js := jsonlang.Generate(3, n)
		jt, err := jsonlang.Tokenize(js)
		if err != nil {
			t.Fatal(err)
		}
		start = time.Now()
		res = pj.Parse(jt)
		el = time.Since(start)
		if res.Kind != parser.Unique {
			t.Fatalf("json %d: %v", n, res.Kind)
		}
		jsRows = append(jsRows, row{len(jt), el})
		t.Logf("json %6d toks in %v", len(jt), el)
	}
	// Rough linearity guard: 16x tokens should cost well under 64x time.
	for _, lang := range []struct {
		name string
		rows []row
	}{{"py", pyRows}, {"json", jsRows}} {
		first, last := lang.rows[0], lang.rows[len(lang.rows)-1]
		perTokFirst := float64(first.el) / float64(first.n)
		perTokLast := float64(last.el) / float64(last.n)
		t.Logf("%s per-token time grew %.2fx (gate <= 4x)", lang.name, perTokLast/perTokFirst)
		if perTokLast > 4*perTokFirst {
			t.Errorf("per-token time grew %0.1fx (%v/tok -> %v/tok): superlinear",
				perTokLast/perTokFirst,
				time.Duration(perTokFirst), time.Duration(perTokLast))
		}
	}
}
