//go:build perfgate && !race

package allstar

import (
	"runtime"
	"testing"
	"time"

	"costar/internal/grammar"
	"costar/internal/languages/jsonlang"
	"costar/internal/languages/pylang"
	"costar/internal/machine"
	"costar/internal/parser"
)

// TestFasterThanVerified checks the premise of Figure 10: the imperative
// baseline must beat the verified-style engine by a clear margin once both
// caches are warm (the paper reports roughly 4-11x for ANTLR vs CoStar).
// A wall-clock ratio, so it runs only in `make perf-gate`.
func TestFasterThanVerified(t *testing.T) {
	jt, err := jsonlang.Tokenize(jsonlang.Generate(5, 6000))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := pylang.Tokenize(pylang.Generate(5, 6000))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		g    *grammar.Grammar
		toks []grammar.Token
	}{
		{"json", jsonlang.Grammar(), jt},
		{"python", pylang.Grammar(), pt},
	}
	for _, c := range cases {
		base := MustNew(c.g, Options{})
		ref := parser.MustNew(c.g, parser.Options{})
		if r := base.Parse(c.toks); r.Kind != machine.Unique {
			t.Fatalf("%s baseline: %v %s", c.name, r.Kind, r.Reason)
		}
		if r := ref.Parse(c.toks); r.Kind != machine.Unique {
			t.Fatalf("%s verified: %v", c.name, r.Kind)
		}
		// Best-of-trials per engine, with the engines interleaved so drift
		// hits both. Each trial starts behind a GC barrier, so neither engine
		// is charged the other's garbage, followed by one untimed parse: the
		// barrier drains pooled scratch, which a warm session would have.
		// Interference only ever adds time, so the minimum is the estimate
		// least distorted by a loaded machine.
		const trials = 7
		timeOnce := func(parse func()) time.Duration {
			runtime.GC()
			parse()
			t0 := time.Now()
			parse()
			return time.Since(t0)
		}
		baseT, refT := time.Duration(1<<63-1), time.Duration(1<<63-1)
		for i := 0; i < trials; i++ {
			baseT = min(baseT, timeOnce(func() { base.Parse(c.toks) }))
			refT = min(refT, timeOnce(func() { ref.Parse(c.toks) }))
		}
		slow := float64(refT) / float64(baseT)
		t.Logf("%s: %d tokens, baseline %v, verified %v, slowdown %.1fx (gate >= 1.5x)",
			c.name, len(c.toks), baseT, refT, slow)
		if slow < 1.5 {
			t.Errorf("%s: verified engine should be clearly slower than the baseline (got %.2fx)", c.name, slow)
		}
	}
}
