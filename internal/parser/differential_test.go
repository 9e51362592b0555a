package parser

// Differential tests: the executable counterpart of the paper's Section 5
// theorems. For randomly generated grammars and words, CoStar's verdicts
// are compared against an independent Earley oracle:
//
//	Theorem 5.1/5.6 (soundness):       returned trees are valid derivations
//	                                   with the right Unique/Ambig label;
//	Theorem 5.8  (error-freedom):      no Error results on non-left-
//	                                   recursive grammars;
//	Theorem 5.11/5.12 (completeness):  members are accepted with the right
//	                                   label, non-members rejected;
//	Lemma 5.10 (detection soundness):  LeftRecursive(X) errors only name
//	                                   genuinely left-recursive X.

import (
	"math/rand"
	"testing"

	"costar/internal/earley"
	"costar/internal/grammar"
	"costar/internal/grammarlint"
	"costar/internal/machine"
	"costar/internal/tree"
)

// genGrammar builds a random grammar. Roughly 2/3 come out non-left-
// recursive thanks to the terminal-first bias; callers classify with
// grammarlint's left-recursion pass.
func genGrammar(rng *rand.Rand) *grammar.Grammar {
	nts := []string{"S", "A", "B", "C"}[:2+rng.Intn(3)]
	ts := []string{"a", "b", "c"}[:1+rng.Intn(3)]
	b := grammar.NewBuilder("S")
	for _, nt := range nts {
		alts := 1 + rng.Intn(3)
		for i := 0; i < alts; i++ {
			n := rng.Intn(4)
			rhs := make([]grammar.Symbol, 0, n)
			for j := 0; j < n; j++ {
				// Bias the leftmost position toward terminals to keep a
				// healthy share of non-left-recursive samples.
				if rng.Intn(3) == 0 && !(j == 0 && rng.Intn(2) == 0) {
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

// genWords produces a mix of grammar-derived words (positive-biased) and
// uniformly random words over the grammar's terminals.
func genWords(rng *rand.Rand, g *grammar.Grammar, count int) [][]grammar.Token {
	var out [][]grammar.Token
	ts := g.Terminals()
	for len(out) < count {
		if rng.Intn(2) == 0 && len(ts) > 0 {
			n := rng.Intn(7)
			w := make([]grammar.Token, n)
			for i := range w {
				name := ts[rng.Intn(len(ts))]
				w[i] = grammar.Tok(name, name)
			}
			out = append(out, w)
		} else if w, ok := deriveWord(rng, g, 14); ok {
			out = append(out, w)
		} else {
			out = append(out, nil)
		}
	}
	return out
}

// deriveWord samples a random derivation from the start symbol, abandoning
// attempts that grow beyond maxLen tokens or 200 expansion steps.
func deriveWord(rng *rand.Rand, g *grammar.Grammar, maxLen int) ([]grammar.Token, bool) {
	form := []grammar.Symbol{grammar.NT(g.Start)}
	var out []grammar.Token
	for steps := 0; len(form) > 0; steps++ {
		if steps > 200 || len(out) > maxLen {
			return nil, false
		}
		s := form[0]
		form = form[1:]
		if s.IsT() {
			out = append(out, grammar.Tok(s.Name, s.Name))
			continue
		}
		rhss := g.RhssFor(s.Name)
		if len(rhss) == 0 {
			return nil, false
		}
		rhs := rhss[rng.Intn(len(rhss))]
		form = append(append([]grammar.Symbol{}, rhs...), form...)
	}
	return out, true
}

func TestDifferentialAgainstEarley(t *testing.T) {
	rng := rand.New(rand.NewSource(20210620)) // PLDI 2021 opening day
	grammars, nlrCount, lrCount := 0, 0, 0
	checked := 0
	for grammars < 300 {
		g := genGrammar(rng)
		if g.Validate() != nil {
			continue
		}
		grammars++
		leftRec := map[string]bool{}
		for _, d := range grammarlint.LeftRecursion(g) {
			leftRec[d.NT] = true
		}
		isLR := len(leftRec) > 0
		if isLR {
			lrCount++
		} else {
			nlrCount++
		}
		p, err := New(g, Options{CheckInvariants: true, Limits: Limits{MaxSteps: 200000}})
		if err != nil {
			t.Fatalf("New failed on validated grammar: %v", err)
		}
		for _, w := range genWords(rng, g, 12) {
			checked++
			res := p.Parse(w)
			cls := earley.Classify(g, g.Start, w)
			ctx := func() string {
				return "grammar:\n" + g.String() + "word: " + grammar.WordString(w)
			}

			// Unconditional soundness: any returned tree is a correct
			// derivation of exactly the input.
			if res.Kind == Unique || res.Kind == Ambig {
				if err := tree.Validate(g, grammar.NT(g.Start), res.Tree, w); err != nil {
					t.Fatalf("soundness violation: %v\n%s", err, ctx())
				}
				if !cls.Member {
					t.Fatalf("accepted a non-member word\n%s", ctx())
				}
			}

			if !isLR {
				// Theorem 5.8: error-free termination.
				if res.Kind == Error {
					t.Fatalf("error on non-left-recursive grammar: %v\n%s", res.Err, ctx())
				}
				if cls.Cyclic {
					t.Fatalf("oracle reports cycle on NLR grammar (oracle bug?)\n%s", ctx())
				}
				// Theorems 5.11/5.12: completeness with correct labels.
				switch {
				case cls.TreeCount == 0 && res.Kind != Reject:
					t.Fatalf("non-member not rejected: %s\n%s", res, ctx())
				case cls.TreeCount == 1 && res.Kind != Unique:
					t.Fatalf("unique word labeled %s\n%s", res.Kind, ctx())
				case cls.TreeCount >= 2 && res.Kind != Ambig:
					t.Fatalf("ambiguous word labeled %s\n%s", res.Kind, ctx())
				}
			} else if res.Kind == Error {
				// Lemma 5.10: left-recursion reports are sound.
				merr, ok := res.Err.(*machine.Error)
				if !ok {
					t.Fatalf("unexpected error type %T: %v\n%s", res.Err, res.Err, ctx())
				}
				if merr.Kind != machine.ErrLeftRecursive {
					t.Fatalf("non-LR error on LR grammar: %v\n%s", merr, ctx())
				}
				if !leftRec[merr.NT] {
					t.Fatalf("LeftRecursive(%s) reported but %s is not left-recursive\n%s",
						merr.NT, merr.NT, ctx())
				}
			}
		}
	}
	if nlrCount < 50 {
		t.Errorf("only %d/%d sampled grammars were non-left-recursive; generator needs rebalancing", nlrCount, grammars)
	}
	t.Logf("differential: %d grammars (%d NLR, %d LR), %d parses checked", grammars, nlrCount, lrCount, checked)
}

// TestDifferentialAblations replays a smaller differential run under each
// non-default engine configuration, pinning down that the SLL cache and
// session reuse are semantically transparent.
func TestDifferentialAblations(t *testing.T) {
	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"ll-only", Options{DisableSLL: true, Limits: Limits{MaxSteps: 200000}}},
		{"fresh-cache", Options{FreshCachePerParse: true, Limits: Limits{MaxSteps: 200000}}},
		{"invariants", Options{CheckInvariants: true, Limits: Limits{MaxSteps: 200000}}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(cfg.name)) * 7919))
			done := 0
			for done < 60 {
				g := genGrammar(rng)
				if g.Validate() != nil || len(grammarlint.LeftRecursion(g)) > 0 {
					continue
				}
				done++
				p := MustNew(g, cfg.opts)
				base := MustNew(g, Options{Limits: Limits{MaxSteps: 200000}})
				for _, w := range genWords(rng, g, 6) {
					r1, r2 := p.Parse(w), base.Parse(w)
					if r1.Kind != r2.Kind {
						t.Fatalf("config %s diverges: %s vs %s\ngrammar:\n%sword: %s",
							cfg.name, r1.Kind, r2.Kind, g, grammar.WordString(w))
					}
					if r1.Kind == Unique && !r1.Tree.Equal(r2.Tree) {
						t.Fatalf("config %s returns a different unique tree\ngrammar:\n%s", cfg.name, g)
					}
				}
			}
		})
	}
}

// TestTreeMembershipAgainstOracle strengthens soundness: the tree CoStar
// returns must literally be one of the trees the Earley oracle enumerates
// for the word — not merely *a* valid derivation, but one drawn from the
// complete tree set, with the Unique label implying the set is a singleton.
func TestTreeMembershipAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1618))
	done, accepted := 0, 0
	for done < 120 {
		g := genGrammar(rng)
		if g.Validate() != nil || len(grammarlint.LeftRecursion(g)) > 0 {
			continue
		}
		done++
		p := MustNew(g, Options{Limits: Limits{MaxSteps: 100000}})
		for _, w := range genWords(rng, g, 8) {
			if len(w) > 8 {
				continue
			}
			res := p.Parse(w)
			if res.Kind != Unique && res.Kind != Ambig {
				continue
			}
			accepted++
			oracleTrees, err := earley.ExtractTrees(g, g.Start, w, 12)
			if err != nil {
				t.Fatalf("oracle cyclic on NLR grammar: %v\n%s", err, g)
			}
			member := false
			for _, v := range oracleTrees {
				if v.Equal(res.Tree) {
					member = true
					break
				}
			}
			if !member && len(oracleTrees) >= 12 {
				continue // tree set truncated; membership inconclusive
			}
			if !member {
				t.Fatalf("returned tree not in the oracle's tree set (%d trees)\nword %s\ntree %s\ngrammar:\n%s",
					len(oracleTrees), grammar.WordString(w), res.Tree, g)
			}
			if res.Kind == Unique && len(oracleTrees) != 1 {
				t.Fatalf("Unique label but oracle finds %d trees\nword %s\ngrammar:\n%s",
					len(oracleTrees), grammar.WordString(w), g)
			}
			if res.Kind == Ambig && len(oracleTrees) < 2 {
				t.Fatalf("Ambig label but oracle finds %d tree(s)\nword %s\ngrammar:\n%s",
					len(oracleTrees), grammar.WordString(w), g)
			}
		}
	}
	if accepted < 100 {
		t.Logf("only %d accepted parses exercised (fine, but worth knowing)", accepted)
	}
}
