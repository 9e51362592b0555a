package bench

// BenchmarkColdStart and the cold-start CI gate behind BENCH_cold.json:
// time-to-first-warm-parse for the source path (compile + analysis + corpus
// warm) versus the artifact path (decode + verified realize) per bundled
// language.

import (
	"runtime"
	"testing"
	"time"

	"costar/internal/artifact"
	"costar/internal/grammar"
	"costar/internal/parser"
)

// coldSetup prepares one language's cold-start comparison: the warm corpus,
// the dense tables a fresh grammar is rebuilt from per compile trial, and
// the encoded artifact for the load trials.
func coldSetup(tb testing.TB, l Lang, cfg Config) (compileWarm func() *parser.Parser, data []byte) {
	files, err := Corpus(l, cfg)
	if err != nil {
		tb.Fatalf("%s corpus: %v", l.Name, err)
	}
	tables := l.Grammar.Compiled().Tables()
	compileWarm = func() *parser.Parser {
		g, err := grammar.FromTables(tables)
		if err != nil {
			tb.Fatalf("%s: %v", l.Name, err)
		}
		p := parser.MustNew(g, parser.Options{})
		for _, f := range files {
			mustUnique(p.Parse(f.Tokens).Kind, l.Name, f.Seed, "cold-start warm")
		}
		return p
	}
	a, err := compileWarm().ExportArtifact(l.Name, "")
	if err != nil {
		tb.Fatalf("%s export: %v", l.Name, err)
	}
	return compileWarm, artifact.Encode(a)
}

func loadArtifact(tb testing.TB, data []byte) *parser.Parser {
	a, err := artifact.Decode(data)
	if err != nil {
		tb.Fatalf("decode: %v", err)
	}
	p, err := parser.NewFromArtifact(a, parser.Options{})
	if err != nil {
		tb.Fatalf("realize: %v", err)
	}
	return p
}

// BenchmarkColdStart/<lang>/{compile-warm,artifact-load} is the benchmark
// form of `costar-bench -fig cold` (ns to a servable warm session).
func BenchmarkColdStart(b *testing.B) {
	for _, l := range Languages() {
		compileWarm, data := coldSetup(b, l, Quick())
		b.Run(l.Name+"/compile-warm", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				compileWarm()
			}
		})
		b.Run(l.Name+"/artifact-load", func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				loadArtifact(b, data)
			}
		})
	}
}

// timeOnce times one call of fn after a GC barrier, so the garbage left by
// earlier work is not charged to fn. Both cold-start arms build fresh
// sessions, so the barrier drains no pooled scratch either arm would reuse.
func timeOnce(fn func()) time.Duration {
	runtime.GC()
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// TestColdStartGate pins the headline BENCH_cold.json claim: on Python (the
// largest bundled grammar and DFA snapshot), realizing a session from an
// artifact is at least 5x faster than compiling and warming one from
// source. The arms are interleaved so drift hits both, every trial starts
// behind a GC barrier so compile+warm's garbage is not charged to the load
// that follows it, and best-of-trials on both sides keeps the gate robust
// to scheduler noise; the recorded figure uses means and reports higher.
func TestColdStartGate(t *testing.T) {
	if raceEnabled {
		t.Skip("cold-start ratio is not meaningful under -race")
	}
	if testing.Short() {
		t.Skip("cold-start gate compiles Python repeatedly; skipped in -short")
	}
	var py *Lang
	for _, l := range Languages() {
		if l.Name == "python" {
			py = &l
			break
		}
	}
	if py == nil {
		t.Fatal("python not among bundled languages")
	}
	compileWarm, data := coldSetup(t, *py, Quick())

	// Both arms get the same number of timed samples, so neither minimum is
	// favoured by a larger draw.
	const trials = 7
	tCompile, tLoad := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for i := 0; i < trials; i++ {
		tCompile = min(tCompile, timeOnce(func() { compileWarm() }))
		tLoad = min(tLoad, timeOnce(func() { loadArtifact(t, data) }))
	}

	const gate = 5.0
	ratio := float64(tCompile) / float64(max64(tLoad, 1))
	t.Logf("python cold start: compile+warm %v, artifact load %v, speedup %.1fx (gate %.0fx)",
		tCompile, tLoad, ratio, gate)
	if ratio < gate {
		t.Errorf("artifact load is only %.1fx faster than compile+warm (gate %.0fx)", ratio, gate)
	}
}

// TestFigCold exercises the figure end to end at test size: four rows,
// identical session observables are already pinned by the root differential
// suite, so here the shape and the speedup>1 invariant are enough.
func TestFigCold(t *testing.T) {
	rows, err := FigCold(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.States <= 0 || r.ArtifactBytes <= 0 {
			t.Errorf("%s: empty artifact in cold-start row: %+v", r.Lang, r)
		}
		if r.Speedup <= 1 {
			t.Errorf("%s: artifact load not faster than compile+warm: %+v", r.Lang, r)
		}
	}
}
