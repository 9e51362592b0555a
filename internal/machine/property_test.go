package machine

// Randomized replays of the Section 4/5 lemmas: for random grammars and
// words, every machine step must decrease the termination measure and
// preserve the stack well-formedness invariant, regardless of what the
// predictor chooses (the lemmas quantify over all reachable states).

import (
	"fmt"
	"math/rand"
	"testing"

	"costar/internal/grammar"
	"costar/internal/source"
	"costar/internal/tree"
)

// chaosPredictor picks an arbitrary (but grammatical) right-hand side —
// measure decrease and invariant preservation must hold for ANY predictor
// that returns real productions, so random choices explore more states
// than a correct predictor would.
type chaosPredictor struct {
	g   *grammar.Grammar
	rng *rand.Rand
}

func (c chaosPredictor) Predict(nt grammar.NTID, _ *SuffixStack, _ *source.Cursor) Prediction {
	cc := c.g.Compiled()
	idxs := cc.ProdsFor(nt)
	if len(idxs) == 0 {
		return Prediction{Kind: PredReject}
	}
	kind := PredUnique
	if c.rng.Intn(8) == 0 {
		kind = PredAmbig
	}
	return Prediction{Kind: kind, Rhs: cc.Rhs(idxs[c.rng.Intn(len(idxs))])}
}

// wideGrammar defines 64 unreachable filler nonterminals first, so the
// live ones get IDs past the visited set's inline word and every push and
// every ε-return touches overflow words:
// S -> A S | ε, A -> B a | a, B -> b | ε.
func wideGrammar() *grammar.Grammar {
	b := grammar.NewBuilder("S")
	for i := 0; i < 64; i++ {
		b.Add(fmt.Sprintf("F%d", i), grammar.T("c"))
	}
	b.Add("S", grammar.NT("A"), grammar.NT("S"))
	b.Add("S")
	b.Add("A", grammar.NT("B"), grammar.T("a"))
	b.Add("A", grammar.T("a"))
	b.Add("B", grammar.T("b"))
	b.Add("B")
	return b.Grammar()
}

func randomGrammarFor(rng *rand.Rand) *grammar.Grammar {
	nts := []string{"S", "A", "B"}
	ts := []string{"a", "b"}
	b := grammar.NewBuilder("S")
	for _, nt := range nts {
		for i := 0; i < 1+rng.Intn(3); i++ {
			n := rng.Intn(4)
			rhs := make([]grammar.Symbol, 0, n)
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 0 {
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

func TestMeasureAndInvariantsRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(271828))
	runs := 0
	for runs < 400 {
		g := randomGrammarFor(rng)
		if g.Validate() != nil {
			continue
		}
		runs++
		n := rng.Intn(8)
		w := make([]grammar.Token, n)
		for i := range w {
			name := []string{"a", "b"}[rng.Intn(2)]
			w[i] = grammar.Tok(name, name)
		}
		pred := chaosPredictor{g: g, rng: rng}
		res := Multistep(g, pred, Init(g, "S", w), Options{
			Governor: NewGovernor(nil, Limits{MaxSteps: 5000}),
			OnStep: func(before *State, op OpKind, after *State) {
				if after == nil {
					return
				}
				mb, ma := Meas(g, before), Meas(g, after)
				if !ma.Less(mb) {
					t.Fatalf("step %s did not decrease the measure\ngrammar:\n%s", op, g)
				}
				if err := CheckStacksWf(g, after); err != nil {
					t.Fatalf("invariant broken after %s: %v\ngrammar:\n%s", op, err, g)
				}
			},
		})
		// Chaos predictions mean most runs reject; but whatever is
		// accepted must still be a valid derivation (soundness does not
		// depend on the predictor's intelligence).
		if res.Kind == Unique || res.Kind == Ambig {
			if err := tree.Validate(g, grammar.NT("S"), res.Tree, w); err != nil {
				t.Fatalf("accepted an invalid tree: %v\ngrammar:\n%s", err, g)
			}
		}
		// Termination under the step bound: the measure argument means the
		// bound can only be hit by left recursion, which chaosPredictor can
		// drive the machine into — but then the result is the LR error.
		if res.Kind == ResultError && res.Err.Kind == ErrInvalidState {
			t.Fatalf("invalid state reached: %v\ngrammar:\n%s", res.Err, g)
		}
	}
}

func TestStackScoreMonotoneInVisited(t *testing.T) {
	// Adding to the visited set shrinks |U \ V|, so the score never grows.
	g := fig2()
	st := Init(g, "S", word("a", "b", "d"))
	s0 := StackScore(g, st.Suffix, 0)
	s1 := StackScore(g, st.Suffix, 1)
	s2 := StackScore(g, st.Suffix, 2)
	if s1.Cmp(s0) > 0 || s2.Cmp(s1) > 0 {
		t.Errorf("score not monotone: %v, %v, %v", s0, s1, s2)
	}
	// Negative exponent clamps at zero rather than panicking.
	s3 := StackScore(g, st.Suffix, 99)
	if s3.Sign() < 0 {
		t.Errorf("score went negative: %v", s3)
	}
}

func TestUnprocFlattening(t *testing.T) {
	// Unproc is the sentential form the completeness invariant (Figure 7)
	// speaks about; it must be the concatenation of frame remainders.
	g := fig2()
	var sawMulti bool
	Multistep(g, oraclePredictor{g}, Init(g, "S", word("a", "b", "d")), Options{
		OnStep: func(before *State, _ OpKind, _ *State) {
			up := before.Suffix.Unproc()
			total := 0
			for s := before.Suffix; s != nil; s = s.Below {
				total += len(s.F.Rest)
			}
			if len(up) != total {
				t.Fatalf("Unproc dropped symbols: %d vs %d", len(up), total)
			}
			if before.Suffix.Height() > 1 {
				sawMulti = true
			}
		},
	})
	if !sawMulti {
		t.Error("trace never reached a multi-frame stack")
	}
}
