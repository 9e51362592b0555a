package machine_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"costar/internal/analysis"
	"costar/internal/grammar"
	"costar/internal/languages/dotlang"
	"costar/internal/languages/jsonlang"
	"costar/internal/languages/pylang"
	"costar/internal/languages/xmllang"
	"costar/internal/machine"
	"costar/internal/prediction"
	"costar/internal/source"
)

// engine runs parses the way the parser does — Multistep, then RecoverFrom
// on a Reject when recover is set — either in place on one pooled Mem
// (Reset after every parse, as the parser's pool does) or persistently
// (mem nil).
type engine struct {
	g       *grammar.Grammar
	an      *analysis.Analysis
	tg      *analysis.Targets
	mem     *machine.Mem
	recover bool
	fresh   bool              // a new SLL DFA per parse (FreshCachePerParse)
	cache   *prediction.Cache // the DFA the parses share otherwise
	chaos   bool              // the property tests' predictor, seeded per parse
}

// outcome is everything the two engines must agree on for one parse.
type outcome struct {
	res   machine.RecoverResult
	stats prediction.Stats
	final string
}

func (e *engine) parse(t *testing.T, w []grammar.Token, seed int64) outcome {
	t.Helper()
	cache := e.cache
	if e.fresh {
		cache = prediction.NewCache(e.g.Compiled())
	}
	gov := machine.NewGovernor(nil, machine.Limits{MaxSteps: 100000})
	var pred machine.Predictor
	var stats *prediction.Stats
	if e.chaos {
		pred = machine.NewChaosPredictor(e.g, seed)
	} else {
		ap := prediction.NewWith(e.g, e.tg, prediction.Options{Cache: cache, Governor: gov})
		pred, stats = ap, &ap.Stats
	}
	st := machine.InitSourceIn(e.mem, e.g, e.g.Start, source.FromTokens(e.g.Compiled(), w))
	res := machine.Multistep(e.g, pred, st, machine.Options{Governor: gov})
	rr := machine.RecoverResult{Result: res}
	if e.recover && res.Kind == machine.Reject {
		rr = machine.RecoverFrom(e.g, pred, e.an, res, machine.Options{Governor: gov})
	}
	out := outcome{res: rr, final: stacks(rr.Final)}
	if stats != nil {
		out.stats = *stats
	}
	if e.mem != nil {
		if !e.mem.Owns(rr.Final) {
			t.Fatalf("pooled parse of %v did not halt in its Mem's state", w)
		}
		e.mem.Reset()
	}
	return out
}

// stacks renders a halted state's stacks, top first. Both engines build
// their tree tables by the same sequence of appends, so tree IDs compare
// across them.
func stacks(st *machine.State) string {
	var b strings.Builder
	for p := st.Prefix; p != nil; p = p.Below {
		fmt.Fprintf(&b, "P%v%v ", p.F.Proc, p.F.Trees)
	}
	for s := st.Suffix; s != nil; s = s.Below {
		fmt.Fprintf(&b, "S%d%v ", s.F.Lhs, s.F.Rest)
	}
	fmt.Fprintf(&b, "consumed %d unique %v visited %v", st.Consumed, st.Unique, st.Visited.Members())
	return b.String()
}

// diff names the first field on which two outcomes differ.
func diff(a, b outcome) string {
	ra, rb := a.res, b.res
	switch {
	case ra.Kind != rb.Kind:
		return fmt.Sprintf("kind %v vs %v", ra.Kind, rb.Kind)
	case ra.Reason != rb.Reason:
		return fmt.Sprintf("reason %q vs %q", ra.Reason, rb.Reason)
	case fmt.Sprint(ra.Err) != fmt.Sprint(rb.Err):
		return fmt.Sprintf("error %v vs %v", ra.Err, rb.Err)
	case ra.Steps != rb.Steps || ra.Consumed != rb.Consumed:
		return fmt.Sprintf("steps/consumed %d/%d vs %d/%d", ra.Steps, ra.Consumed, rb.Steps, rb.Consumed)
	case ra.Usage != rb.Usage:
		return fmt.Sprintf("usage %+v vs %+v", ra.Usage, rb.Usage)
	case a.stats != b.stats:
		return fmt.Sprintf("stats %+v vs %+v", a.stats, b.stats)
	case ra.Repairs != rb.Repairs || fmt.Sprint(ra.Diags) != fmt.Sprint(rb.Diags):
		return fmt.Sprintf("diagnostics %v vs %v", ra.Diags, rb.Diags)
	case (ra.Tree == nil) != (rb.Tree == nil) || ra.Tree != nil && !ra.Tree.Equal(rb.Tree):
		return fmt.Sprintf("tree %v vs %v", ra.Tree, rb.Tree)
	case a.final != b.final:
		return fmt.Sprintf("final stacks\n  %s\nvs\n  %s", a.final, b.final)
	}
	return ""
}

// differential runs the words through an in-place and a persistent engine
// in every configuration — recovery off and on, a shared or a per-parse
// SLL DFA — one pooled Mem serving the whole sequence, and fails on the
// first parse whose outcomes differ. It counts recovered parses that the
// pooled Mem served another parse after.
func differential(t *testing.T, name string, g *grammar.Grammar, words [][]grammar.Token, chaos bool) (recoveredThenReused int) {
	t.Helper()
	an, tg := analysis.New(g), analysis.NewTargets(g)
	for _, recover := range []bool{false, true} {
		for _, fresh := range []bool{false, true} {
			if chaos && fresh {
				continue // the chaos predictor has no DFA
			}
			mk := func(mem *machine.Mem) *engine {
				return &engine{g: g, an: an, tg: tg, mem: mem, recover: recover, fresh: fresh,
					cache: prediction.NewCache(g.Compiled()), chaos: chaos}
			}
			inPlace, persistent := mk(machine.NewMem()), mk(nil)
			for i, w := range words {
				got, want := inPlace.parse(t, w, int64(i)), persistent.parse(t, w, int64(i))
				if d := diff(got, want); d != "" {
					t.Fatalf("%s, recover %v, fresh DFA %v, parse %d of %v: in place differs from persistent: %s\ngrammar:\n%s",
						name, recover, fresh, i, w, d, g)
				}
				if got.res.Kind == machine.Recovered && i+1 < len(words) {
					recoveredThenReused++
				}
			}
		}
	}
	return recoveredThenReused
}

// TestInPlaceMatchesPersistent is the differential between the two engines:
// an in-place run on a pooled Mem must agree with the persistent Step run
// on every outcome — kind, reason, steps, consumed count, usage, prediction
// statistics, recovery diagnostics, the tree, and the halted state's stacks
// — over the property-test grammars (with the adaptive and the chaos
// predictor), a grammar of more than 64 nonterminals (so pushes and returns
// write the visited set's overflow words), and the four bundled languages
// on generated and token-mutated inputs. The parses of a sequence share
// one Mem, so a recovered parse — whose segments adopt repaired states
// built partly from the Mem's own nodes — is followed by another parse on
// the same nodes.
func TestInPlaceMatchesPersistent(t *testing.T) {
	rng := rand.New(rand.NewSource(271828))
	reused, grammars := 0, 0
	for grammars < 300 {
		g := machine.RandomGrammarFor(rng)
		if grammars%5 == 0 {
			g = machine.WideGrammar()
		}
		if g.Validate() != nil {
			continue
		}
		grammars++
		words := make([][]grammar.Token, 4)
		for i := range words {
			words[i] = make([]grammar.Token, rng.Intn(10))
			for j := range words[i] {
				name := []string{"a", "b"}[rng.Intn(2)]
				words[i][j] = grammar.Tok(name, name)
			}
		}
		name := fmt.Sprintf("random grammar %d", grammars)
		reused += differential(t, name, g, words, false)
		reused += differential(t, name+" (chaos)", g, words, true)
	}

	langs := []struct {
		name     string
		g        *grammar.Grammar
		tokenize func(string) ([]grammar.Token, error)
		generate func(int64, int) string
	}{
		{"json", jsonlang.Grammar(), jsonlang.Tokenize, jsonlang.Generate},
		{"xml", xmllang.Grammar(), xmllang.Tokenize, xmllang.Generate},
		{"dot", dotlang.Grammar(), dotlang.Tokenize, dotlang.Generate},
		{"python", pylang.Grammar(), pylang.Tokenize, pylang.Generate},
	}
	for _, l := range langs {
		var words [][]grammar.Token
		for seed := int64(1); seed <= 3; seed++ {
			w, err := l.tokenize(l.generate(seed, 150))
			if err != nil {
				t.Fatal(err)
			}
			// The clean input, then two corruptions of it: a deleted
			// token and a duplicated one.
			i := rng.Intn(len(w))
			deleted := append(append([]grammar.Token{}, w[:i]...), w[i+1:]...)
			j := rng.Intn(len(w))
			duplicated := append(append(append([]grammar.Token{}, w[:j]...), w[j]), w[j:]...)
			words = append(words, w, deleted, duplicated)
		}
		reused += differential(t, l.name, l.g, words, false)
	}
	t.Logf("%d grammars; %d recovered parses followed by another parse on the same Mem", grammars, reused)
	if reused < 200 {
		t.Fatalf("only %d recovered parses were followed by another parse: the test exercises too little", reused)
	}
}
