package costar

// The artifact differential gate: a session loaded from an encoded artifact
// must be observably identical to the source-compiled session the artifact
// was exported from — same trees, same result kinds, same prediction
// statistics (the imported warm DFA serves exactly the hits the live one
// would) — on every bundled language.

import (
	"reflect"
	"testing"

	"costar/internal/bench"
	"costar/internal/grammarlint"
	"costar/internal/parser"
)

func TestArtifactSessionsMatchSourceSessions(t *testing.T) {
	for _, l := range bench.Languages() {
		l := l
		t.Run(l.Name, func(t *testing.T) {
			files, err := bench.Corpus(l, bench.Config{Files: 6, MinTokens: 100, MaxTokens: 2500, Trials: 1})
			if err != nil {
				t.Fatal(err)
			}
			if l.Grammar.Compiled().Certificate() == nil {
				if _, _, err := grammarlint.Certify(l.Grammar); err != nil {
					t.Fatal(err)
				}
			}
			src := parser.MustNew(l.Grammar, parser.Options{})
			for _, f := range files {
				src.Parse(f.Tokens) // warm the DFA the artifact will carry
			}

			a, err := src.ExportArtifact(l.Name, "")
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := NewParserFromArtifact(DecodeMust(t, EncodeArtifact(a)), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Certified() != src.Certified() {
				t.Fatalf("certified: artifact %v, source %v", loaded.Certified(), src.Certified())
			}

			// Both sessions are now fully warm on this corpus; every parse
			// must agree in result, tree, and per-parse statistics.
			for _, f := range files {
				want := src.Parse(f.Tokens)
				got := loaded.Parse(f.Tokens)
				if got.Kind != want.Kind || got.Consumed != want.Consumed || got.Steps != want.Steps {
					t.Fatalf("seed %d: result (%v, %d tokens, %d steps) vs source (%v, %d, %d)",
						f.Seed, got.Kind, got.Consumed, got.Steps, want.Kind, want.Consumed, want.Steps)
				}
				if gs, ws := got.Tree.String(), want.Tree.String(); gs != ws {
					t.Fatalf("seed %d: trees differ:\nartifact: %s\nsource:   %s", f.Seed, gs, ws)
				}
				if got.Stats != want.Stats {
					t.Fatalf("seed %d: stats differ:\nartifact: %+v\nsource:   %+v", f.Seed, got.Stats, want.Stats)
				}
				if got.Stats.CacheMisses != 0 {
					t.Fatalf("seed %d: warm artifact session missed the DFA cache %d times", f.Seed, got.Stats.CacheMisses)
				}
			}
		})
	}
}

// TestArtifactSessionsExtendLikeSourceSessions: an artifact session that
// misses its imported DFA must extend it exactly as the source session
// extends its own. Both are warmed on a deliberately small corpus, then
// parse unseen files, so the loaded side keeps running closure over
// imported configs — whose stacks share tails through the artifact's frame
// table, where the source session's copied states hold private chains —
// and every result, statistic and cache size must still agree after every
// parse, and the two DFAs must export identically at the end. Closure
// merges configs whose tails are the same node, so shared tails could
// only change a state where two configs of one alternative reach the same
// stack, which takes two derivations of the same tokens; the bundled
// grammars have none (TestArtifactSessionOnAmbiguousGrammar covers a
// grammar that does).
func TestArtifactSessionsExtendLikeSourceSessions(t *testing.T) {
	misses := 0
	for _, l := range bench.Languages() {
		if l.Grammar.Compiled().Certificate() == nil {
			if _, _, err := grammarlint.Certify(l.Grammar); err != nil {
				t.Fatal(err)
			}
		}
		warm, err := bench.Corpus(l, bench.Config{Files: 2, MinTokens: 60, MaxTokens: 200, Trials: 1})
		if err != nil {
			t.Fatal(err)
		}
		src := parser.MustNew(l.Grammar, parser.Options{})
		for _, f := range warm {
			src.Parse(f.Tokens)
		}
		a, err := src.ExportArtifact(l.Name, "")
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := NewParserFromArtifact(DecodeMust(t, EncodeArtifact(a)), Options{})
		if err != nil {
			t.Fatal(err)
		}

		langMisses := 0
		for seed := int64(1001); seed <= 1030; seed++ {
			toks, err := l.Tokenize(l.Generate(seed, 60+int(seed%10)*50))
			if err != nil {
				t.Fatalf("%s seed %d: %v", l.Name, seed, err)
			}
			want := src.Parse(toks)
			got := loaded.Parse(toks)
			if got.Kind != want.Kind || got.Steps != want.Steps {
				t.Fatalf("%s seed %d: result (%v, %d steps) vs source (%v, %d)", l.Name, seed, got.Kind, got.Steps, want.Kind, want.Steps)
			}
			if gs, ws := got.Tree.String(), want.Tree.String(); gs != ws {
				t.Fatalf("%s seed %d: trees differ:\nartifact: %s\nsource:   %s", l.Name, seed, gs, ws)
			}
			if got.Stats != want.Stats {
				t.Fatalf("%s seed %d: stats differ:\nartifact: %+v\nsource:   %+v", l.Name, seed, got.Stats, want.Stats)
			}
			gotStarts, gotStates := loaded.CacheSize()
			wantStarts, wantStates := src.CacheSize()
			if gotStarts != wantStarts || gotStates != wantStates {
				t.Fatalf("%s seed %d: cache size (%d starts, %d states) vs source (%d, %d)",
					l.Name, seed, gotStarts, gotStates, wantStarts, wantStates)
			}
			langMisses += got.Stats.CacheMisses
		}
		// Equal counts could hide states that differ in content; the two
		// DFAs must export identically.
		ga, err := loaded.ExportArtifact(l.Name, "")
		if err != nil {
			t.Fatal(err)
		}
		wa, err := src.ExportArtifact(l.Name, "")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ga.Cache, wa.Cache) {
			t.Fatalf("%s: the artifact session's DFA differs from the source session's (%d vs %d states, %d vs %d frames)",
				l.Name, len(ga.Cache.States), len(wa.Cache.States), len(ga.Cache.Frames), len(wa.Cache.Frames))
		}
		t.Logf("%s: the artifact session missed its imported DFA %d times", l.Name, langMisses)
		misses += langMisses
	}
	if misses == 0 {
		t.Fatal("no unseen file missed the imported DFA; the differential exercised nothing")
	}
}

// TestArtifactSessionOnAmbiguousGrammar: X derives each of a and z two
// ways, so after z an SLL state holds two configs of one alternative with
// the same stack. The source session copied their tails apart and keeps
// both; the artifact session's imported frame table gives them one tail
// node, closure merges them, and it interns a state the source does not
// have. That is the one way the two DFAs can differ. Results must not:
// every parse agrees in kind, steps and tree.
func TestArtifactSessionOnAmbiguousGrammar(t *testing.T) {
	g := MustParseBNF(`S -> Y c | Y d ; Y -> X e ; X -> A | B ; A -> a | z ; B -> a | z`)
	src := MustNewParser(g, Options{})
	src.Parse(Words("a", "e", "c"))
	a, err := src.ExportArtifact("ambiguous", "")
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := NewParserFromArtifact(DecodeMust(t, EncodeArtifact(a)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range [][]string{{"z", "e", "d"}, {"z", "e", "c"}, {"a", "e", "d"}} {
		want := src.Parse(Words(w...))
		got := loaded.Parse(Words(w...))
		if got.Kind != want.Kind || got.Steps != want.Steps {
			t.Fatalf("%v: result (%v, %d steps) vs source (%v, %d)", w, got.Kind, got.Steps, want.Kind, want.Steps)
		}
		if gs, ws := got.Tree.String(), want.Tree.String(); gs != ws {
			t.Fatalf("%v: trees differ:\nartifact: %s\nsource:   %s", w, gs, ws)
		}
	}
	ga, err := loaded.ExportArtifact("ambiguous", "")
	if err != nil {
		t.Fatal(err)
	}
	wa, err := src.ExportArtifact("ambiguous", "")
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(ga.Cache, wa.Cache) {
		t.Fatal("the DFAs no longer differ on this grammar; the divergence this test and DESIGN §5g describe is gone, so revise both")
	}
}

// DecodeMust decodes or fails the test.
func DecodeMust(t *testing.T, data []byte) *Artifact {
	t.Helper()
	a, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	return a
}
