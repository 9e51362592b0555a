package machine

import (
	"strings"
	"testing"

	"math/big"

	"costar/internal/grammar"
	"costar/internal/source"
	"costar/internal/tree"
)

// ---------------------------------------------------------------------------
// Test predictors
// ---------------------------------------------------------------------------

// oraclePredictor is an idealized LL prediction: it tries every right-hand
// side with a budgeted backtracking recognizer over the full remaining
// input. It exists so the machine can be tested before (and independently
// of) the real adaptivePredict. Like the machine, it runs entirely on
// compiled symbol IDs.
type oraclePredictor struct {
	g *grammar.Grammar
}

func (o oraclePredictor) Predict(nt grammar.NTID, suffix *SuffixStack, la *source.Cursor) Prediction {
	c := o.g.Compiled()
	remaining := la.Materialize() // the oracle backtracks over the whole rest
	cont := suffix.Unproc()[1:]   // drop the decision nonterminal itself
	var viable [][]grammar.SymID
	for _, pi := range c.ProdsFor(nt) {
		rhs := c.Rhs(pi)
		form := append(append([]grammar.SymID{}, rhs...), cont...)
		budget := 100000
		if recognizes(c, form, remaining, 0, &budget) {
			viable = append(viable, rhs)
		}
	}
	switch len(viable) {
	case 0:
		return Prediction{Kind: PredReject}
	case 1:
		return Prediction{Kind: PredUnique, Rhs: viable[0]}
	default:
		return Prediction{Kind: PredAmbig, Rhs: viable[0]}
	}
}

// recognizes reports whether form derives exactly word[pos:], by naive
// backtracking with a step budget (sufficient for the tiny test grammars).
func recognizes(c *grammar.Compiled, form []grammar.SymID, word []grammar.TermID, pos int, budget *int) bool {
	if *budget <= 0 {
		return false
	}
	*budget--
	if len(form) == 0 {
		return pos == len(word)
	}
	s := form[0]
	if s.IsT() {
		if pos < len(word) && word[pos] == s.Term() {
			return recognizes(c, form[1:], word, pos+1, budget)
		}
		return false
	}
	for _, pi := range c.ProdsFor(s.NT()) {
		next := append(append([]grammar.SymID{}, c.Rhs(pi)...), form[1:]...)
		if recognizes(c, next, word, pos, budget) {
			return true
		}
	}
	return false
}

// scriptedPredictor returns a fixed sequence of predictions.
type scriptedPredictor struct {
	script []Prediction
	calls  int
}

func (s *scriptedPredictor) Predict(grammar.NTID, *SuffixStack, *source.Cursor) Prediction {
	if s.calls >= len(s.script) {
		return Prediction{Kind: PredReject}
	}
	p := s.script[s.calls]
	s.calls++
	return p
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

func fig2() *grammar.Grammar {
	return grammar.MustParseBNF(`S -> A c | A d ; A -> a A | b`)
}

func fig6() *grammar.Grammar {
	return grammar.MustParseBNF(`S -> X | Y ; X -> a ; Y -> a`)
}

func word(terms ...string) []grammar.Token {
	w := make([]grammar.Token, len(terms))
	for i, t := range terms {
		w[i] = grammar.Tok(t, t)
	}
	return w
}

// rhsIDs returns the compiled RHS of nt's alternative number alt.
func rhsIDs(g *grammar.Grammar, nt string, alt int) []grammar.SymID {
	return g.Compiled().Rhs(g.ProductionIndices(nt)[alt])
}

func run(g *grammar.Grammar, w []grammar.Token, opts Options) Result {
	return Multistep(g, oraclePredictor{g}, Init(g, g.Start, w), opts)
}

// ---------------------------------------------------------------------------
// Figure 2: golden trace
// ---------------------------------------------------------------------------

func TestFig2Trace(t *testing.T) {
	g := fig2()
	var ops []string
	res := run(g, word("a", "b", "d"), Options{
		CheckInvariants: true,
		OnStep: func(_ *State, op OpKind, _ *State) {
			ops = append(ops, op.String())
		},
	})
	if res.Kind != Unique {
		t.Fatalf("result = %v (%s %v)", res.Kind, res.Reason, res.Err)
	}
	wantTree := tree.Node("S",
		tree.Node("A",
			tree.Leaf(grammar.Tok("a", "a")),
			tree.Node("A", tree.Leaf(grammar.Tok("b", "b")))),
		tree.Leaf(grammar.Tok("d", "d")))
	if !res.Tree.Equal(wantTree) {
		t.Errorf("tree = %s, want %s", res.Tree, wantTree)
	}
	// The paper's Figure 2 shows push push consume push consume return ...
	wantOps := "push push consume push consume return return consume return none"
	if got := strings.Join(ops, " "); got != wantOps {
		t.Errorf("ops = %q, want %q", got, wantOps)
	}
	if err := tree.Validate(g, grammar.NT("S"), res.Tree, word("a", "b", "d")); err != nil {
		t.Errorf("final tree does not validate: %v", err)
	}
}

func TestFig2VisitedSetDynamics(t *testing.T) {
	// Visited sets along the Figure 2 trace: {} {S} {S,A} {} {A} {} {} {}.
	g := fig2()
	var visited []string
	run(g, word("a", "b", "d"), Options{
		OnStep: func(before *State, _ OpKind, _ *State) {
			visited = append(visited, before.Visited.StringWith(before.C))
		},
	})
	want := []string{"{}", "{S}", "{A, S}", "{}", "{A}", "{}", "{}", "{}", "{}", "{}"}
	if len(visited) != len(want) {
		t.Fatalf("trace length %d, want %d: %v", len(visited), len(want), visited)
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Errorf("visited[%d] = %s, want %s", i, visited[i], want[i])
		}
	}
}

// ---------------------------------------------------------------------------
// Accept / reject behaviour
// ---------------------------------------------------------------------------

func TestAcceptBothAlternatives(t *testing.T) {
	g := fig2()
	for _, w := range [][]grammar.Token{
		word("b", "c"), word("b", "d"),
		word("a", "b", "c"), word("a", "a", "a", "b", "d"),
	} {
		res := run(g, w, Options{CheckInvariants: true})
		if res.Kind != Unique {
			t.Errorf("%s: result = %v, want Unique", grammar.WordString(w), res.Kind)
			continue
		}
		if err := tree.Validate(g, grammar.NT("S"), res.Tree, w); err != nil {
			t.Errorf("%s: invalid tree: %v", grammar.WordString(w), err)
		}
	}
}

func TestRejectInvalidWords(t *testing.T) {
	g := fig2()
	for _, w := range [][]grammar.Token{
		{},                  // empty
		word("b"),           // missing c/d
		word("a", "b"),      // missing c/d
		word("b", "c", "c"), // trailing garbage
		word("c"),           // wrong start
		word("x", "b", "d"), // unknown terminal
		word("a", "a", "b"), // missing tail
	} {
		res := run(g, w, Options{CheckInvariants: true})
		if res.Kind != Reject {
			t.Errorf("%s: result = %v (%v), want Reject", grammar.WordString(w), res.Kind, res.Err)
		}
		if res.Reason == "" {
			t.Errorf("%s: Reject carries no reason", grammar.WordString(w))
		}
	}
}

func TestEpsilonGrammar(t *testing.T) {
	g := grammar.MustParseBNF(`S -> %empty`)
	res := run(g, nil, Options{CheckInvariants: true})
	if res.Kind != Unique {
		t.Fatalf("ε-grammar on ε: %v", res.Kind)
	}
	if res.Tree.Size() != 1 || res.Tree.NT() != "S" {
		t.Errorf("tree = %s", res.Tree)
	}
	if res := run(g, word("a"), Options{}); res.Kind != Reject {
		t.Errorf("ε-grammar on 'a': %v, want Reject", res.Kind)
	}
}

// ---------------------------------------------------------------------------
// Figure 6: ambiguity flag
// ---------------------------------------------------------------------------

func TestFig6AmbiguityDetected(t *testing.T) {
	g := fig6()
	var flags []bool
	res := run(g, word("a"), Options{
		CheckInvariants: true,
		OnStep: func(before *State, _ OpKind, _ *State) {
			flags = append(flags, before.Unique)
		},
	})
	if res.Kind != Ambig {
		t.Fatalf("result = %v, want Ambig", res.Kind)
	}
	// X is alternative 0, so the chosen tree is (S (X a)).
	want := tree.Node("S", tree.Node("X", tree.Leaf(grammar.Tok("a", "a"))))
	if !res.Tree.Equal(want) {
		t.Errorf("tree = %s, want %s", res.Tree, want)
	}
	// Flag starts true and flips to false at the ambiguous push (Figure 6).
	if !flags[0] {
		t.Error("unique flag should start true")
	}
	if flags[len(flags)-1] {
		t.Error("unique flag should be false at the end")
	}
}

func TestAmbiguityFlagSticky(t *testing.T) {
	// Once false, the flag stays false through subsequent unique pushes.
	g := grammar.MustParseBNF(`
		S -> X b Z ;
		X -> a | A ;
		A -> a ;
		Z -> z
	`)
	res := run(g, word("a", "b", "z"), Options{CheckInvariants: true})
	if res.Kind != Ambig {
		t.Fatalf("result = %v, want Ambig", res.Kind)
	}
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

func TestDynamicLeftRecursionDetection(t *testing.T) {
	g := grammar.MustParseBNF(`E -> E plus | n`)
	// Force prediction to choose the left-recursive alternative forever.
	pred := &scriptedPredictor{script: []Prediction{
		{Kind: PredUnique, Rhs: rhsIDs(g, "E", 0)},
		{Kind: PredUnique, Rhs: rhsIDs(g, "E", 0)},
	}}
	res := Multistep(g, pred, Init(g, "E", word("n")), Options{})
	if res.Kind != ResultError {
		t.Fatalf("result = %v, want Error", res.Kind)
	}
	if res.Err.Kind != ErrLeftRecursive || res.Err.NT != "E" {
		t.Errorf("error = %+v, want LeftRecursive(E)", res.Err)
	}
	if !strings.Contains(res.Err.Error(), "E") {
		t.Errorf("error text should mention the nonterminal: %q", res.Err)
	}
}

func TestPredictorErrorPropagates(t *testing.T) {
	g := fig2()
	pred := &scriptedPredictor{script: []Prediction{
		{Kind: PredError, Err: InvalidState("boom")},
	}}
	res := Multistep(g, pred, Init(g, "S", word("b", "c")), Options{})
	if res.Kind != ResultError || res.Err.Kind != ErrInvalidState {
		t.Fatalf("result = %v / %v", res.Kind, res.Err)
	}
	// A PredError with a nil error must not crash.
	pred2 := &scriptedPredictor{script: []Prediction{{Kind: PredError}}}
	res2 := Multistep(g, pred2, Init(g, "S", word("b", "c")), Options{})
	if res2.Kind != ResultError || res2.Err == nil {
		t.Fatalf("nil PredError mishandled: %v", res2)
	}
}

func TestPredictorRejectPropagates(t *testing.T) {
	g := fig2()
	pred := &scriptedPredictor{} // empty script rejects immediately
	res := Multistep(g, pred, Init(g, "S", word("b", "c")), Options{})
	if res.Kind != Reject {
		t.Fatalf("result = %v, want Reject", res.Kind)
	}
	if !strings.Contains(res.Reason, "S") {
		t.Errorf("reject reason should name the nonterminal: %q", res.Reason)
	}
}

func TestUndefinedNonterminalIsError(t *testing.T) {
	// Bypass Validate deliberately: an RHS references an undefined NT. The
	// compiler interns referenced-only nonterminals, so "Ghost" has an ID
	// but no productions and the push step must report InvalidState.
	g := grammar.New("S", []grammar.Production{
		{Lhs: "S", Rhs: []grammar.Symbol{grammar.NT("Ghost")}},
	})
	pred := &scriptedPredictor{script: []Prediction{
		{Kind: PredUnique, Rhs: g.Compiled().Rhs(0)},
	}}
	res := Multistep(g, pred, Init(g, "S", nil), Options{})
	if res.Kind != ResultError || res.Err.Kind != ErrInvalidState {
		t.Fatalf("result = %v / %v, want InvalidState", res.Kind, res.Err)
	}
	if !strings.Contains(res.Err.Error(), "Ghost") {
		t.Errorf("error should name the undefined nonterminal: %v", res.Err)
	}
}

func TestScriptedConsumeMismatchRejects(t *testing.T) {
	g := fig2()
	// Predict S -> A c on input that ends with d: consume fails at c.
	pred := &scriptedPredictor{script: []Prediction{
		{Kind: PredUnique, Rhs: rhsIDs(g, "S", 0)}, // A c
		{Kind: PredUnique, Rhs: rhsIDs(g, "A", 1)}, // b
	}}
	res := Multistep(g, pred, Init(g, "S", word("b", "d")), Options{})
	if res.Kind != Reject {
		t.Fatalf("result = %v, want Reject", res.Kind)
	}
	if !strings.Contains(res.Reason, "expected terminal c") {
		t.Errorf("reason = %q", res.Reason)
	}
}

func TestInvariantCheckerCatchesBogusRhs(t *testing.T) {
	g := fig2()
	pred := &scriptedPredictor{script: []Prediction{
		{Kind: PredUnique, Rhs: g.Compiled().CompileForm([]grammar.Symbol{grammar.T("b")})}, // not an RHS of S
	}}
	res := Multistep(g, pred, Init(g, "S", word("b")), Options{CheckInvariants: true})
	if res.Kind != ResultError {
		t.Fatalf("bogus RHS not caught: %v", res.Kind)
	}
	if !strings.Contains(res.Err.Error(), "invariant") {
		t.Errorf("error = %v", res.Err)
	}
}

func TestMaxStepsBackstop(t *testing.T) {
	g := fig2()
	res := run(g, word("a", "a", "a", "b", "c"), Options{Governor: NewGovernor(nil, Limits{MaxSteps: 3})})
	if res.Kind != ResultError || res.Err.Kind != ErrLimit || res.Err.Limit != LimitSteps {
		t.Fatalf("MaxSteps not enforced: %v / %v", res.Kind, res.Err)
	}
	if res.Usage.Steps == 0 {
		t.Fatalf("Usage not populated on limit error: %+v", res.Usage)
	}
}

// ---------------------------------------------------------------------------
// Termination measure (Lemmas 4.2–4.4)
// ---------------------------------------------------------------------------

func TestMeasureDecreasesEveryStep(t *testing.T) {
	for _, tc := range []struct {
		g *grammar.Grammar
		w []grammar.Token
	}{
		{fig2(), word("a", "a", "b", "d")},
		{fig2(), word("a", "b", "x")}, // rejected midway
		{fig6(), word("a")},
		{grammar.MustParseBNF(`S -> A B ; A -> %empty | a ; B -> b`), word("b")},
	} {
		g := tc.g
		Multistep(g, oraclePredictor{g}, Init(g, g.Start, tc.w), Options{
			OnStep: func(before *State, op OpKind, after *State) {
				if after == nil {
					return
				}
				mb, ma := Meas(g, before), Meas(g, after)
				if !ma.Less(mb) {
					t.Errorf("step %s did not decrease measure: %v -> %v", op, mb, ma)
				}
				switch op {
				case OpConsume: // remaining = |w| − consumed drops by one
					if ma.Consumed != mb.Consumed+1 {
						t.Errorf("consume: consumed %d -> %d", mb.Consumed, ma.Consumed)
					}
				case OpPush: // Lemma 4.3: strict score decrease, same remaining
					if ma.Consumed != mb.Consumed || ma.Score.Cmp(mb.Score) >= 0 {
						t.Errorf("push: measure %v -> %v", mb, ma)
					}
				case OpReturn: // Lemma 4.4: score non-increasing, height decreases
					if ma.Consumed != mb.Consumed || ma.Score.Cmp(mb.Score) > 0 || ma.Height >= mb.Height {
						t.Errorf("return: measure %v -> %v", mb, ma)
					}
				}
			},
		})
	}
}

func TestMeasureLess(t *testing.T) {
	m := func(consumed int, score int64, h int) Measure {
		return Measure{Consumed: consumed, Score: big.NewInt(score), Height: h}
	}
	if !m(1, 1, 1).Less(m(1, 2, 1)) || m(1, 2, 1).Less(m(1, 1, 1)) || m(1, 1, 1).Less(m(1, 1, 1)) {
		t.Error("score ordering wrong")
	}
	// More consumed means fewer remaining, hence a strictly smaller measure,
	// regardless of the other components.
	if !m(1, 100, 100).Less(m(0, 0, 0)) {
		t.Error("remaining-token count must dominate")
	}
	if !m(1, 0, 1).Less(m(1, 0, 2)) {
		t.Error("height must break ties")
	}
}

// ---------------------------------------------------------------------------
// Invariant preservation (Lemma 5.2) and tree sanity
// ---------------------------------------------------------------------------

func TestStacksWfPreserved(t *testing.T) {
	g := fig2()
	st := Init(g, "S", word("a", "b", "d"))
	if err := CheckStacksWf(g, st); err != nil {
		t.Fatalf("initial state violates invariant: %v", err)
	}
	Multistep(g, oraclePredictor{g}, st, Options{
		OnStep: func(_ *State, _ OpKind, after *State) {
			if after == nil {
				return
			}
			if err := CheckStacksWf(g, after); err != nil {
				t.Errorf("invariant broken: %v\nstate: %s", err, after)
			}
			if err := CheckTrees(g, after); err != nil {
				t.Errorf("partial trees invalid: %v", err)
			}
		},
	})
}

// ---------------------------------------------------------------------------
// Stack utilities and the visited bitset
// ---------------------------------------------------------------------------

func TestStackHelpers(t *testing.T) {
	g := fig2()
	st := Init(g, "S", word("a"))
	if st.Prefix.Height() != 1 || st.Suffix.Height() != 1 {
		t.Error("initial heights wrong")
	}
	sym, ok := st.Suffix.TopSymbol()
	if !ok || st.C.SymOf(sym) != grammar.NT("S") {
		t.Errorf("TopSymbol = %v, %v", sym, ok)
	}
	up := st.Suffix.Unproc()
	if len(up) != 1 || st.C.SymOf(up[0]) != grammar.NT("S") {
		t.Errorf("Unproc = %v", up)
	}
	var empty *SuffixStack
	if _, ok := empty.TopSymbol(); ok {
		t.Error("TopSymbol on nil stack")
	}
	if empty.Height() != 0 {
		t.Error("nil stack height")
	}
	if got := st.String(); !strings.Contains(got, "unique") || !strings.Contains(got, "0 consumed") {
		t.Errorf("State.String = %q", got)
	}
}

// TestPrefixFrameOrdering: accumulators hold the oldest entry first, and
// consProc appends to a copy, so extending one frame twice leaves both
// extensions, and the frame itself, intact.
func TestPrefixFrameOrdering(t *testing.T) {
	tab := tree.NewTable(nil)
	f1 := PrefixFrame{}.consProc(grammar.TermSym(0), tab.Leaf(grammar.Tok("a", "1")))
	f2 := f1.consProc(grammar.TermSym(1), tab.Leaf(grammar.Tok("b", "2")))
	alt := f1.consProc(grammar.TermSym(2), tab.Leaf(grammar.Tok("c", "3")))
	if len(f2.Proc) != 2 || f2.Proc[0] != grammar.TermSym(0) || f2.Proc[1] != grammar.TermSym(1) {
		t.Errorf("Proc = %v, want oldest first", f2.Proc)
	}
	if tab.Tree(f2.Trees[0]).Token().Literal != "1" || tab.Tree(f2.Trees[1]).Token().Literal != "2" {
		t.Errorf("Trees = %v, want oldest first", f2.Trees)
	}
	if len(f1.Proc) != 1 || len(f1.Trees) != 1 || alt.Proc[1] != grammar.TermSym(2) || f2.Proc[1] != grammar.TermSym(1) {
		t.Errorf("consProc shared storage: f1 %v, f2 %v, alt %v", f1.Proc, f2.Proc, alt.Proc)
	}
}

func TestNTSetPersistence(t *testing.T) {
	// The visited bitset must behave persistently across the inline word
	// and the overflow words (IDs >= 64).
	var s NTSet
	ids := []grammar.NTID{0, 3, 63, 64, 100, 200}
	sets := []NTSet{s}
	for _, id := range ids {
		s = s.Add(id)
		sets = append(sets, s)
	}
	if s.Len() != len(ids) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(ids))
	}
	for i, id := range ids {
		// Earlier snapshots must not contain later additions.
		if sets[i].Contains(id) {
			t.Errorf("snapshot %d already contains %d", i, id)
		}
		if !s.Contains(id) {
			t.Errorf("final set lost %d", id)
		}
	}
	if s.Contains(grammar.NoNT) || s.Add(grammar.NoNT).Len() != s.Len() {
		t.Error("NoNT must never be a member")
	}
	removed := s.Remove(100)
	if removed.Contains(100) || !s.Contains(100) {
		t.Error("Remove must be persistent")
	}
	if got := removed.Len(); got != len(ids)-1 {
		t.Errorf("Len after remove = %d", got)
	}
	members := s.Members()
	if len(members) != len(ids) {
		t.Fatalf("Members = %v", members)
	}
	for i, id := range ids {
		if members[i] != id {
			t.Errorf("Members[%d] = %d, want %d (ascending order)", i, members[i], id)
		}
	}
	if !(NTSet{}).Empty() || s.Empty() {
		t.Error("Empty() wrong")
	}
}

func TestErrorStrings(t *testing.T) {
	if got := LeftRecursive("X", "loop").Error(); !strings.Contains(got, "X") {
		t.Errorf("LeftRecursive error = %q", got)
	}
	if got := InvalidState("n=%d", 7).Error(); !strings.Contains(got, "n=7") {
		t.Errorf("InvalidState error = %q", got)
	}
	for k, want := range map[ResultKind]string{Unique: "Unique", Ambig: "Ambig", Reject: "Reject", ResultError: "Error"} {
		if k.String() != want {
			t.Errorf("ResultKind(%d).String = %q", k, k.String())
		}
	}
}

func TestNullableSiblingIsNotLeftRecursion(t *testing.T) {
	// S -> A A with A -> ε | a: after the first A derives ε and returns,
	// pushing the second A without an intervening consume must NOT be
	// flagged as left recursion — return removes A from the visited set.
	g := grammar.MustParseBNF(`S -> A A ; A -> %empty | a`)
	for _, tc := range []struct {
		w    []grammar.Token
		want ResultKind
	}{
		{nil, Ambig},       // ε has two derivations (εε is one tree... see below)
		{word("a"), Ambig}, // (ε,a) and (a,ε)
		{word("a", "a"), Unique},
		{word("a", "a", "a"), Reject},
	} {
		res := run(g, tc.w, Options{CheckInvariants: true})
		if res.Kind == ResultError {
			t.Fatalf("%s: unexpected error: %v", grammar.WordString(tc.w), res.Err)
		}
		if tc.want == Unique || tc.want == Reject {
			if res.Kind != tc.want {
				t.Errorf("%s: result = %v, want %v", grammar.WordString(tc.w), res.Kind, tc.want)
			}
		}
	}
	// The critical case: parsing "a" must succeed (not error), whichever
	// derivation is chosen.
	res := run(g, word("a"), Options{CheckInvariants: true})
	if res.Kind != Unique && res.Kind != Ambig {
		t.Fatalf("parse of 'a' failed: %v %v", res.Kind, res.Err)
	}
	if err := tree.Validate(g, grammar.NT("S"), res.Tree, word("a")); err != nil {
		t.Errorf("tree invalid: %v", err)
	}
}

func TestVisitedRemovalOnReturnKeepsMeasureLemma(t *testing.T) {
	// Replays the measure property on the nullable-sibling grammar, where
	// returns hit the "score remains constant" branch of Lemma 4.4.
	g := grammar.MustParseBNF(`S -> A A ; A -> %empty | a`)
	sawConstantReturn := false
	Multistep(g, oraclePredictor{g}, Init(g, "S", word("a")), Options{
		OnStep: func(before *State, op OpKind, after *State) {
			if after == nil {
				return
			}
			mb, ma := Meas(g, before), Meas(g, after)
			if !ma.Less(mb) {
				t.Errorf("step %s did not decrease measure", op)
			}
			if op == OpReturn && ma.Score.Cmp(mb.Score) == 0 {
				sawConstantReturn = true
			}
		},
	})
	if !sawConstantReturn {
		t.Error("expected at least one constant-score return (case (b) of Lemma 4.4)")
	}
}
