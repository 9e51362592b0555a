package artifact_test

// Round-trip properties of the ahead-of-time artifact: for every bundled
// language (and a population of randomized grammars), build a session, warm
// it, export, encode, decode, realize — and at every stage the result must
// reproduce the original exactly: identical bytes on re-encode, a DeepEqual
// Artifact on decode, identical fingerprints and DFA snapshots after a
// second export from the realized session (export∘import is a fixed point).

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"costar/internal/artifact"
	"costar/internal/bench"
	"costar/internal/grammar"
	"costar/internal/grammarlint"
	"costar/internal/machine"
	"costar/internal/parser"
)

// warmSession builds a certified session for l and warms its DFA on a small
// corpus.
func warmSession(t testing.TB, l bench.Lang) *parser.Parser {
	t.Helper()
	g := l.Grammar
	if g.Compiled().Certificate() == nil {
		if _, _, err := grammarlint.Certify(g); err != nil {
			t.Fatalf("%s: certify: %v", l.Name, err)
		}
	}
	p := parser.MustNew(g, parser.Options{})
	files, err := bench.Corpus(l, bench.Config{Files: 4, MinTokens: 100, MaxTokens: 800, Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if res := p.Parse(f.Tokens); res.Kind != machine.Unique {
			t.Fatalf("%s: warm corpus seed %d: %v", l.Name, f.Seed, res.Kind)
		}
	}
	return p
}

// export snapshots p into an artifact.
func export(t testing.TB, p *parser.Parser, name string) *artifact.Artifact {
	t.Helper()
	a, err := p.ExportArtifact(name, "")
	if err != nil {
		t.Fatalf("%s: export: %v", name, err)
	}
	return a
}

// TestRoundTripBundledLanguages: encode/decode must reproduce the artifact
// value exactly, and a session realized from the artifact must re-export an
// identical artifact (same fingerprint, same tables, same DFA snapshot) —
// so artifacts are a fixed point, not a lossy approximation.
func TestRoundTripBundledLanguages(t *testing.T) {
	for _, l := range bench.Languages() {
		l := l
		t.Run(l.Name, func(t *testing.T) {
			p := warmSession(t, l)
			a := export(t, p, l.Name)
			if a.Cert == nil {
				t.Fatalf("bundled grammar exported without certificate")
			}
			if len(a.Cache.States) == 0 {
				t.Fatalf("warm session exported an artifact with no DFA states")
			}

			data := artifact.Encode(a)
			if l.Name == "python" {
				checkPythonSize(t, a, data)
			}
			back, err := artifact.Decode(data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(a, back) {
				t.Fatalf("decode(encode(a)) differs from a")
			}
			if again := artifact.Encode(back); !bytes.Equal(data, again) {
				t.Fatalf("re-encode differs: %d vs %d bytes", len(data), len(again))
			}

			p2, err := parser.NewFromArtifact(back, parser.Options{})
			if err != nil {
				t.Fatalf("NewFromArtifact: %v", err)
			}
			if !p2.Certified() {
				t.Fatalf("artifact session lost certified mode")
			}
			a2 := export(t, p2, l.Name)
			if !reflect.DeepEqual(a, a2) {
				t.Fatalf("export after import differs from original export")
			}
		})
	}
}

// TestRoundTripColdSession: a freshly built session (empty DFA cache)
// round-trips too — the artifact then carries the tables (and the
// certificate, when the grammar has one) only.
func TestRoundTripColdSession(t *testing.T) {
	l := bench.Languages()[0]
	p := parser.MustNew(l.Grammar, parser.Options{})
	a := export(t, p, l.Name)
	if len(a.Cache.States) != 0 {
		t.Fatalf("cold session exported %d DFA states", len(a.Cache.States))
	}
	back, err := artifact.Decode(artifact.Encode(a))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, back) {
		t.Fatal("cold artifact does not round-trip")
	}
	if _, err := parser.NewFromArtifact(back, parser.Options{}); err != nil {
		t.Fatal(err)
	}
}

// randomGrammar builds a random (valid) grammar over a handful of
// terminals and nonterminals; used to round-trip grammars with shapes the
// bundled languages do not exercise (empty RHS runs, unreachable rules,
// heavy alternation).
func randomGrammar(rng *rand.Rand) *grammar.Grammar {
	nts := []string{"S", "A", "B", "C", "D"}
	ts := []string{"a", "b", "c", "x", "y"}
	b := grammar.NewBuilder("S")
	for _, nt := range nts[:2+rng.Intn(4)] {
		for i := 0; i < 1+rng.Intn(4); i++ {
			n := rng.Intn(5)
			rhs := make([]grammar.Symbol, 0, n)
			for j := 0; j < n; j++ {
				if rng.Intn(3) == 0 {
					rhs = append(rhs, grammar.NT(nts[rng.Intn(len(nts))]))
				} else {
					rhs = append(rhs, grammar.T(ts[rng.Intn(len(ts))]))
				}
			}
			b.Add(nt, rhs...)
		}
	}
	return b.Grammar()
}

// TestRoundTripRandomGrammars: randomized grammars — warmed by parsing
// random words (accepted or rejected, both drive the SLL DFA) — must
// round-trip bit-exactly through encode/decode and re-export.
func TestRoundTripRandomGrammars(t *testing.T) {
	rng := rand.New(rand.NewSource(314159))
	runs := 0
	for runs < 60 {
		g := randomGrammar(rng)
		if g.Validate() != nil {
			continue
		}
		runs++
		p := parser.MustNew(g, parser.Options{})
		for w := 0; w < 10; w++ {
			word := make([]grammar.Token, rng.Intn(12))
			for i := range word {
				n := []string{"a", "b", "c", "x", "y"}[rng.Intn(5)]
				word[i] = grammar.Tok(n, n)
			}
			p.Parse(word)
		}
		a := export(t, p, "random")
		data := artifact.Encode(a)
		back, err := artifact.Decode(data)
		if err != nil {
			t.Fatalf("run %d: decode: %v", runs, err)
		}
		if !reflect.DeepEqual(a, back) {
			t.Fatalf("run %d: decode(encode(a)) differs", runs)
		}
		p2, err := parser.NewFromArtifact(back, parser.Options{})
		if err != nil {
			t.Fatalf("run %d: realize: %v", runs, err)
		}
		a2 := export(t, p2, "random")
		if !reflect.DeepEqual(a, a2) {
			t.Fatalf("run %d: export after import differs", runs)
		}
	}
}

// checkPythonSize guards the shared frame table with counts, not timings:
// the Python session warmed by warmSession exports 6,719 distinct frames
// for 25,147 configs and encodes to 326,427 bytes. The budgets below are
// those measured values plus about 20 % headroom for grammar and corpus
// drift. Storing a chain per config again would need at least one frame
// per config and would blow both budgets.
func checkPythonSize(t *testing.T, a *artifact.Artifact, data []byte) {
	t.Helper()
	const (
		frameBudget = 8_000
		byteBudget  = 400_000
	)
	configs := 0
	for _, st := range a.Cache.States {
		configs += len(st.Configs)
	}
	t.Logf("python: %d states, %d configs, %d frames, %d bytes", len(a.Cache.States), configs, len(a.Cache.Frames), len(data))
	if len(a.Cache.Frames) > frameBudget {
		t.Errorf("frame table holds %d frames, budget %d", len(a.Cache.Frames), frameBudget)
	}
	if len(data) > byteBudget {
		t.Errorf("encoded artifact is %d bytes, budget %d", len(data), byteBudget)
	}
}
