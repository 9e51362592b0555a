package machine

import (
	"fmt"
	"math/rand"
	"testing"

	"costar/internal/analysis"
	"costar/internal/grammar"
	"costar/internal/source"
)

// wideGrammar defines 64 unreachable filler nonterminals first, so the
// live ones get IDs past the visited set's inline word and every push (and
// every ε-return) copies overflow words, which retire recycles too:
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

// retiredSet collects every node, state and span on m's free lists.
func retiredSet(m *Mem) map[any]bool {
	out := map[any]bool{}
	if m.spare != nil {
		out[m.spare] = true
	}
	for n := m.freePrefix; n != nil; n = n.Below {
		out[n] = true
	}
	for n := m.freeSuffix; n != nil; n = n.Below {
		out[n] = true
	}
	for _, l := range m.freeSyms.byCap {
		for _, s := range l {
			out[&s[:1][0]] = true
		}
	}
	for _, l := range m.freeAcc.byCap {
		for _, s := range l {
			out[&s[:1][0]] = true
		}
	}
	for _, l := range m.freeWords.byCap {
		for _, s := range l {
			out[&s[:1][0]] = true
		}
	}
	return out
}

// liveRetired reports the first piece of st's scratch found on m's free
// lists: the state, a stack node, an accumulator span, or visited words.
func liveRetired(m *Mem, st *State) string {
	free := retiredSet(m)
	if free[st] {
		return "the state itself"
	}
	for i, p := 0, st.Prefix; p != nil; i, p = i+1, p.Below {
		switch {
		case free[p]:
			return fmt.Sprintf("prefix node %d", i)
		case cap(p.F.Proc) > 0 && free[&p.F.Proc[:1][0]]:
			return fmt.Sprintf("prefix node %d's Proc span", i)
		case cap(p.F.Trees) > 0 && free[&p.F.Trees[:1][0]]:
			return fmt.Sprintf("prefix node %d's Trees span", i)
		}
	}
	for i, s := 0, st.Suffix; s != nil; i, s = i+1, s.Below {
		if free[s] {
			return fmt.Sprintf("suffix node %d", i)
		}
	}
	if hi := st.Visited.hi; len(hi) > 0 && free[&hi[0]] {
		return "the visited-set overflow words"
	}
	return ""
}

// TestRetireNeverFreesLiveScratch drives Step with a Mem over the property
// test grammars (plus one wide enough to need visited overflow words),
// retiring after every continuing step as Multistep does, and checks after
// each retirement that nothing the new state reaches is on a free list.
// Replaying the same chaos predictions through a Mem-less Multistep must
// give the same outcome and tree: retirement never changes a result.
func TestRetireNeverFreesLiveScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(314159))
	runs, retired, wordSteps := 0, 0, 0
	for runs < 2000 {
		g := randomGrammarFor(rng)
		if runs%4 == 0 {
			g = wideGrammar()
		}
		if g.Validate() != nil {
			continue
		}
		runs++
		w := make([]grammar.Token, rng.Intn(12))
		for i := range w {
			name := []string{"a", "b"}[rng.Intn(2)]
			w[i] = grammar.Tok(name, name)
		}
		seed := rng.Int63()

		m := NewMem()
		pred := chaosPredictor{g: g, rng: rand.New(rand.NewSource(seed))}
		st := InitSourceIn(m, g, "S", source.FromTokens(g.Compiled(), w))
		var last StepResult
		for steps := 0; steps < 5000; steps++ {
			last = Step(g, pred, st)
			if last.Kind != StepCont {
				break
			}
			if len(st.Visited.hi) > 0 {
				wordSteps++
			}
			m.retire(st, last.State, last.Op)
			retired++
			if what := liveRetired(m, last.State); what != "" {
				t.Fatalf("after a %s step, %s of the new state is on a free list\ngrammar:\n%s", last.Op, what, g)
			}
			st = last.State
		}

		ref := Multistep(g, chaosPredictor{g: g, rng: rand.New(rand.NewSource(seed))},
			Init(g, "S", w), Options{Governor: NewGovernor(nil, Limits{MaxSteps: 5000})})
		refKind := map[ResultKind]StepKind{Unique: StepAccept, Ambig: StepAccept, Reject: StepReject, ResultError: StepError}[ref.Kind]
		if last.Kind == StepCont && ref.Kind == ResultError && ref.Err.Kind == ErrLimit {
			continue // both hit the step bound
		}
		if last.Kind != refKind || (last.Kind == StepAccept && !last.Tree.Equal(ref.Tree)) {
			t.Fatalf("retiring run ended %v (tree %v), persistent run %v (tree %v)\ngrammar:\n%s",
				last.Kind, last.Tree, ref.Kind, ref.Tree, g)
		}
	}
	t.Logf("%d retirements over %d runs, %d from states holding visited overflow words", retired, runs, wordSteps)
	if retired < 1000 || wordSteps < 100 {
		t.Fatalf("only %d retirements (%d with visited overflow words) over %d runs: the test exercises too little",
			retired, wordSteps, runs)
	}
}

// TestRecoverFromRetiringRunsMatchesPlain covers the recovery driver under
// the linear-run rule. RecoverFrom re-enters Multistep from repaired states
// that share nodes with the rejected run's Final, so each resumed segment
// retires scratch the previous segment's Final reached; no repair reads a
// state after re-entering. On random broken inputs, recovery with one
// pooled Mem (Reset between inputs, as the parser does) must give the same
// kind, tree and diagnostics as recovery without a Mem.
func TestRecoverFromRetiringRunsMatchesPlain(t *testing.T) {
	g := grammar.MustParseBNF(`S -> P S | ; P -> l A r | x ; A -> a b | a c | P`)
	an := analysis.New(g)
	pred := ll1Predictor{g, an}
	terms := []string{"l", "a", "b", "c", "r", "x", "y"}
	rng := rand.New(rand.NewSource(27182))
	mem := NewMem()
	recovered := 0
	for i := 0; i < 500; i++ {
		w := make([]grammar.Token, rng.Intn(16))
		for j := range w {
			name := terms[rng.Intn(len(terms))]
			w[j] = grammar.Tok(name, name)
		}
		want := recoverRun(t, g, w, Options{})
		mres := Multistep(g, pred, InitSourceIn(mem, g, g.Start, source.FromTokens(g.Compiled(), w)), Options{})
		got := RecoverFrom(g, pred, an, mres, Options{})
		if got.Kind != want.Kind || got.Tree.String() != want.Tree.String() || fmt.Sprint(got.Diags) != fmt.Sprint(want.Diags) {
			t.Fatalf("input %v: pooled recovery gave %v %v %v, plain %v %v %v",
				w, got.Kind, got.Tree, got.Diags, want.Kind, want.Tree, want.Diags)
		}
		if got.Kind == Recovered {
			recovered++
		}
		mem.Reset()
	}
	if recovered < 100 {
		t.Fatalf("only %d of 500 inputs needed recovery", recovered)
	}
}
