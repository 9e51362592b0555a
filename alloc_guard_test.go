package costar

// Allocation-regression guards for the arena/pool allocation work: a warm
// session (scratch pool and SLL DFA primed) must parse with a near-zero
// steady-state allocation rate. The ceilings are deliberately loose —
// roughly 10x the measured rates (BenchmarkStreamingWindow's allocs/op, and
// perfbench's allocs_per_token on the stream workloads) — so they
// absorb GC-emptied pool refills and allocator noise while still failing
// loudly if per-node heap allocation ever creeps back into the machine loop
// (the pre-arena rate was ~15 allocs/token).
//
// The ceilings are skipped under -race (see race_off_test.go): the race
// detector inflates allocation counts. The correctness companions — arena
// lifetime, pooled reuse under concurrency — run raced in
// internal/parser/pool_test.go.

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"costar/internal/languages/jsonlang"
	"costar/internal/languages/pylang"
	"costar/internal/machine"
	"costar/internal/parser"
	"costar/internal/serve"
)

// allocGuard measures steady-state allocs/token for op on a warm session
// and fails if it exceeds ceiling.
func allocGuard(t *testing.T, tokens int, ceiling float64, op func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation ceilings are not meaningful under -race")
	}
	for i := 0; i < 3; i++ {
		op() // prime analyses, the SLL DFA, and the scratch pool
	}
	perOp := testing.AllocsPerRun(10, op)
	perTok := perOp / float64(tokens)
	t.Logf("%.1f allocs/op over %d tokens = %.4f allocs/token (ceiling %.2f)", perOp, tokens, perTok, ceiling)
	if perTok > ceiling {
		t.Errorf("warm parse allocates %.4f allocs/token, ceiling %.2f — per-node allocation is back in the hot path", perTok, ceiling)
	}
}

// bytesGuard measures steady-state heap bytes/token for op on a warm
// session — runtime.MemStats.TotalAlloc over repeated parses — and fails if
// it exceeds ceiling. It runs after allocGuard, so the session is primed.
func bytesGuard(t *testing.T, tokens int, ceiling float64, op func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("byte ceilings are not meaningful under -race")
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	perTok := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(tokens)
	t.Logf("%.0f B/token over %d tokens (ceiling %.0f)", perTok, tokens, ceiling)
	if perTok > ceiling {
		t.Errorf("warm parse allocates %.0f B/token, ceiling %.0f — per-node tree allocation is back", perTok, ceiling)
	}
}

// TestAllocGuardWarmJSONParse guards the slice path: parse a pre-tokenized
// JSON word on a warm session. Its byte ceiling (~1.3x the measured
// 85 B/token) fails a return to per-node pointer trees, which allocated
// 241 B/token.
func TestAllocGuardWarmJSONParse(t *testing.T) {
	src := jsonlang.Generate(42, 3000)
	toks, err := jsonlang.Lang.Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	p := parser.MustNew(jsonlang.Lang.Grammar(), parser.Options{})
	op := func() {
		if res := p.Parse(toks); res.Kind != machine.Unique {
			t.Fatal(res.Reason)
		}
	}
	allocGuard(t, len(toks), 0.06, op)
	bytesGuard(t, len(toks), 110, op)
}

// TestAllocGuardWarmJSONStream guards the end-to-end reader pipeline:
// incremental zero-copy lexing plus a cursor-fed parse.
func TestAllocGuardWarmJSONStream(t *testing.T) {
	src := jsonlang.Generate(42, 3000)
	toks, err := jsonlang.Lang.Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	p := parser.MustNew(jsonlang.Lang.Grammar(), parser.Options{})
	allocGuard(t, len(toks), 0.1, func() {
		if res := p.ParseSource(jsonlang.Lang.Cursor(strings.NewReader(src))); res.Kind != machine.Unique {
			t.Fatal(res.Reason)
		}
	})
}

// TestAllocGuardWarmPythonStream guards the streamed layout pipeline: the
// Python layout pass used to pop its token queue by reslicing, stranding
// the consumed prefix and reallocating on nearly every refill (~1 extra
// alloc/token; 1.016 allocs/token streamed at the time), and
// the pooled machine arenas used to abandon full slabs at grow time, so
// every parse re-allocated its whole slab chain (~0.023 allocs/token on
// Python). With the rewinding queue, slab retention across Reset, and the
// pre-sized layout state the measured rate is ~0.009 allocs/token — the
// residue is the parse's tree table (its column chunks; each parse builds
// its own by design) plus the zero-copy scanner's per-refill window fold.
// The alloc ceiling is the usual ~10x headroom over the measurement. The
// byte ceiling is ~1.25x the measured 240 B/token, 9.4 tree nodes per
// token at 16 bytes each plus one 32-byte token per leaf; per-node pointer
// trees allocated 850 B/token.
func TestAllocGuardWarmPythonStream(t *testing.T) {
	src := pylang.Generate(42, 3000)
	toks, err := pylang.Lang.Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	p := parser.MustNew(pylang.Lang.Grammar(), parser.Options{})
	op := func() {
		if res := p.ParseSource(pylang.Lang.Cursor(strings.NewReader(src))); res.Kind != machine.Unique {
			t.Fatal(res.Reason)
		}
	}
	allocGuard(t, len(toks), 0.12, op)
	bytesGuard(t, len(toks), 300, op)
}

// TestAllocGuardColdPythonParse guards the SLL miss path in the paper's
// configuration, a fresh DFA per parse, where every decision interns new
// states. Interning used to deep-copy each state node by node and build its
// key in fresh buffers (49.6 allocs/token on this input); states are now
// carved from slabs with keys built and hashed in scratch, no key is
// stored, and the parse-private DFA is recycled with the pooled scratch:
// measured at 0.36 allocs/token (0.51 while each state kept its key string
// and each parse built a new DFA). The ceiling is the usual ~10x headroom.
func TestAllocGuardColdPythonParse(t *testing.T) {
	src := pylang.Generate(42, 3000)
	toks, err := pylang.Lang.Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	p := parser.MustNew(pylang.Lang.Grammar(), parser.Options{FreshCachePerParse: true})
	allocGuard(t, len(toks), 5, func() {
		if res := p.Parse(toks); res.Kind != machine.Unique {
			t.Fatal(res.Reason)
		}
	})
}

// TestAllocGuardWarmServeSession guards the costar serve request path: a
// warmed built-in JSON session parses a ~1k-token body through
// Session.Parse, which lexes into the session parser's pooled cursor.
// Measured at 19 allocations per request (testing.AllocsPerRun, 50 runs,
// 1,001 tokens); building a fresh cursor per request cost 25. The ceiling
// of 22 leaves 3 allocations (~15 %) of headroom and fails a return to
// per-request cursors.
func TestAllocGuardWarmServeSession(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings are not meaningful under -race")
	}
	sess, err := serve.NewRegistry().AddLanguage("json", parser.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := jsonlang.Generate(7, 1000)
	op := func() {
		if res := sess.Parse(context.Background(), strings.NewReader(src)); res.Kind != machine.Unique {
			t.Fatalf("%v: %s", res.Kind, res.Reason)
		}
	}
	for i := 0; i < 3; i++ {
		op() // prime the scratch pool
	}
	const ceiling = 22
	perReq := testing.AllocsPerRun(50, op)
	t.Logf("%.1f allocs/request (ceiling %d)", perReq, ceiling)
	if perReq > ceiling {
		t.Errorf("warm serve session allocates %.1f per request, ceiling %d — requests no longer reuse the pooled cursor", perReq, ceiling)
	}
}
