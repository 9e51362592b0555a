package bench

// BenchmarkColdStart and the set-up shared with the cold-start perf gate
// (TestColdStartGate in perfgate_test.go): time to a servable warm session
// for the source path (compile + analysis + corpus warm) versus the
// artifact path (decode + verified realize) per bundled language. Both end
// in observably identical sessions (the root artifact differentials pin
// that), so the ratio is pure start-up cost.

import (
	"testing"

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

// BenchmarkColdStart/<lang>/{compile-warm,artifact-load} reports ns to a
// servable warm session on each path.
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
