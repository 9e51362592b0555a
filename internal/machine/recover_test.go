package machine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"costar/internal/analysis"
	"costar/internal/diag"
	"costar/internal/grammar"
	"costar/internal/source"
	"costar/internal/tree"
)

// ll1Predictor predicts from the FIRST set of each alternative plus the
// parse continuation — unlike oraclePredictor (which recognizes the whole
// remaining input and so rejects at token 0 on any downstream flaw), it
// fails exactly where the mismatching token is reached, which is where the
// real ALL(*) predictor fails too. Recovery tests need that shape: repairs
// anchor to the reject position.
type ll1Predictor struct {
	g  *grammar.Grammar
	an *analysis.Analysis
}

func (p ll1Predictor) Predict(nt grammar.NTID, suffix *SuffixStack, la *source.Cursor) Prediction {
	c := p.g.Compiled()
	cont := suffix.Unproc()[1:]
	tok, ok := la.Peek(0)
	var viable [][]grammar.SymID
	for _, pi := range c.ProdsFor(nt) {
		rhs := c.Rhs(pi)
		form := append(append([]grammar.SymID{}, rhs...), cont...)
		if ok {
			if p.an.FirstOfFormIDs(form)[c.TermName(tok)] {
				viable = append(viable, rhs)
			}
		} else if p.an.NullableFormIDs(form) {
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

// recoverRun parses w and, on Reject, runs the recovery driver — the same
// two-phase flow the parser layer wires up.
func recoverRun(t *testing.T, g *grammar.Grammar, w []grammar.Token, opts Options) RecoverResult {
	t.Helper()
	an := analysis.New(g)
	pred := ll1Predictor{g, an}
	mres := Multistep(g, pred, Init(g, g.Start, w), opts)
	return RecoverFrom(g, pred, an, mres, opts)
}

// checkRecovered asserts the recovery contract: Recovered kind, at least
// one positioned error diagnostic in sorted order, and a partial tree whose
// source yield (Err-synthesized leaves excluded) is exactly the input word.
func checkRecovered(t *testing.T, rr RecoverResult, w []grammar.Token) {
	t.Helper()
	if rr.Kind != Recovered {
		t.Fatalf("Kind = %v, want Recovered (reason=%q err=%v)", rr.Kind, rr.Reason, rr.Err)
	}
	if rr.Tree == nil {
		t.Fatal("Recovered result has no tree")
	}
	if len(rr.Diags) == 0 {
		t.Fatal("Recovered result has no diagnostics")
	}
	if !diag.Sorted(rr.Diags) {
		t.Fatalf("diagnostics not sorted: %v", rr.Diags)
	}
	for _, d := range rr.Diags {
		if d.Pos.Token < 0 {
			t.Errorf("unpositioned diagnostic: %v", d)
		}
		if d.Severity != diag.Error {
			t.Errorf("repair diagnostic with severity %v: %v", d.Severity, d)
		}
	}
	got := (*tree.Tree)(rr.Tree).YieldSource()
	if len(got) != len(w) {
		t.Fatalf("YieldSource has %d tokens, input has %d\n tree: %s", len(got), len(w), rr.Tree)
	}
	for i := range got {
		if got[i] != w[i] {
			t.Fatalf("YieldSource[%d] = %v, input %v", i, got[i], w[i])
		}
	}
	if !rr.Tree.HasErr() {
		t.Error("recovered tree has no error node")
	}
}

func TestRecoverInsertMissingTerminal(t *testing.T) {
	g := grammar.MustParseBNF(`S -> a b c`)
	w := word("a", "c")
	rr := recoverRun(t, g, w, Options{})
	checkRecovered(t, rr, w)
	if rr.Repairs != 1 || rr.Diags[0].Code != diag.CodeRepairInsert {
		t.Errorf("repairs=%d diags=%v, want one repair-insert", rr.Repairs, rr.Diags)
	}
	if rr.Diags[0].Pos.Token != 1 {
		t.Errorf("insert positioned at token %d, want 1", rr.Diags[0].Pos.Token)
	}
}

func TestRecoverDeleteOneToken(t *testing.T) {
	g := grammar.MustParseBNF(`S -> a b c`)
	w := word("a", "b", "b", "c")
	rr := recoverRun(t, g, w, Options{})
	checkRecovered(t, rr, w)
	if rr.Diags[0].Code != diag.CodeRepairSkip || rr.Diags[0].Len != 1 {
		t.Errorf("diags = %v, want one-token repair-skip", rr.Diags)
	}
}

func TestRecoverPopUnfinishedProduction(t *testing.T) {
	g := grammar.MustParseBNF(`S -> l A r ; A -> a b c`)
	w := word("l", "a", "r")
	rr := recoverRun(t, g, w, Options{})
	checkRecovered(t, rr, w)
	var codes []string
	for _, d := range rr.Diags {
		codes = append(codes, string(d.Code))
	}
	if !strings.Contains(strings.Join(codes, " "), "repair-pop") {
		t.Errorf("diags = %v, want a repair-pop", rr.Diags)
	}
}

func TestRecoverTrailingInput(t *testing.T) {
	g := grammar.MustParseBNF(`S -> a`)
	w := word("a", "a", "a")
	rr := recoverRun(t, g, w, Options{})
	checkRecovered(t, rr, w)
	found := false
	for _, d := range rr.Diags {
		if d.Code == diag.CodeTrailing && d.Len == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("diags = %v, want trailing-input with Len=2", rr.Diags)
	}
}

func TestRecoverUnexpectedEOF(t *testing.T) {
	g := grammar.MustParseBNF(`S -> a b c`)
	w := word("a", "b")
	rr := recoverRun(t, g, w, Options{})
	checkRecovered(t, rr, w)
	found := false
	for _, d := range rr.Diags {
		if d.Code == diag.CodeUnexpectedEOF {
			found = true
			if len(d.Expected) == 0 {
				t.Errorf("EOF diagnostic without expected set: %v", d)
			}
		}
	}
	if !found {
		t.Errorf("diags = %v, want unexpected-eof", rr.Diags)
	}
}

func TestRecoverBudgetForceClose(t *testing.T) {
	g := grammar.MustParseBNF(`S -> a b c`)
	// Every token is wrong, so each round costs a repair; budget 1 forces
	// the close-out path after the first.
	w := word("c", "c", "c", "c", "c", "c")
	gov := NewGovernor(nil, Limits{MaxRepairs: 1})
	rr := recoverRun(t, g, w, Options{Governor: gov})
	checkRecovered(t, rr, w)
	found := false
	for _, d := range rr.Diags {
		if d.Code == diag.CodeRepairBudget {
			found = true
		}
	}
	if !found {
		t.Errorf("diags = %v, want repair-budget", rr.Diags)
	}
	if rr.Usage.Repairs > 2 {
		t.Errorf("Usage.Repairs = %d, want <= budget+1", rr.Usage.Repairs)
	}
}

// TestRecoverLeavesAcceptAlone: RecoverFrom must be the identity on
// anything but a Reject with a suspended final state.
func TestRecoverLeavesAcceptAlone(t *testing.T) {
	g := grammar.MustParseBNF(`S -> a b c`)
	an := analysis.New(g)
	pred := ll1Predictor{g, an}
	w := word("a", "b", "c")
	mres := Multistep(g, pred, Init(g, g.Start, w), Options{})
	if mres.Kind != Unique {
		t.Fatalf("seed parse: %v", mres)
	}
	rr := RecoverFrom(g, pred, an, mres, Options{})
	if rr.Kind != Unique || rr.Repairs != 0 || len(rr.Diags) != 0 {
		t.Fatalf("RecoverFrom changed an accepting result: %+v", rr)
	}
	if !rr.Tree.Equal(mres.Tree) {
		t.Fatal("RecoverFrom changed the accepted tree")
	}
}

// TestRecoverCertifiedGrammar: recovery on a certified session must not
// trip the certificate-violation guard — insert/skip repairs restart
// machine segments whose Visited sets were cleared or preserved exactly as
// the certificate argument requires.
func TestRecoverCertifiedGrammar(t *testing.T) {
	g := grammar.MustParseBNF(`S -> a S | b`)
	an := analysis.New(g)
	pred := ll1Predictor{g, an}
	w := word("a", "a", "c", "b") // 'c' is unknown to S's FIRST sets at that point
	opts := Options{Certified: true}
	mres := Multistep(g, pred, Init(g, g.Start, w), opts)
	if mres.Kind != Reject {
		t.Fatalf("seed parse: %v", mres)
	}
	rr := RecoverFrom(g, pred, an, mres, opts)
	checkRecovered(t, rr, w)
}

// TestRecoverNoFalseAccept: a recovered result must never be Unique/Ambig —
// the repairs happened, so the input is not in the language as given.
func TestRecoverNoFalseAccept(t *testing.T) {
	g := grammar.MustParseBNF(`S -> a b | a c`)
	for _, w := range [][]grammar.Token{
		word("a"), word("b"), word("a", "a"), word("a", "b", "c"), word("c", "b", "a"),
	} {
		rr := recoverRun(t, g, w, Options{})
		if rr.Kind == Unique || rr.Kind == Ambig {
			t.Errorf("%v: recovery reported clean accept on rejected input", w)
		}
		if rr.Kind == Recovered && rr.Repairs == 0 {
			t.Errorf("%v: Recovered with zero repairs", w)
		}
	}
}

// TestRecoverMultipleDiagnostics: several independent mutations in one
// input each get their own positioned diagnostic, in position order.
func TestRecoverMultipleDiagnostics(t *testing.T) {
	g := grammar.MustParseBNF(`S -> P P P ; P -> l a r`)
	w := word("l", "r", "l", "a", "a", "r", "l", "a", "r") // missing 'a', extra 'a'
	rr := recoverRun(t, g, w, Options{})
	checkRecovered(t, rr, w)
	if len(rr.Diags) < 2 {
		t.Fatalf("diags = %v, want at least 2", rr.Diags)
	}
	for i := 1; i < len(rr.Diags); i++ {
		if rr.Diags[i].Pos.Token < rr.Diags[i-1].Pos.Token {
			t.Fatalf("diagnostics out of position order: %v", rr.Diags)
		}
	}
}

// TestRecoverTreeSurvivesReset: the recovered tree must live in the run's
// tree table (reachable after Mem.Reset), like accepted trees do.
func TestRecoverTreeSurvivesReset(t *testing.T) {
	g := grammar.MustParseBNF(`S -> a b c`)
	w := word("a", "c")
	mem := NewMem()
	an := analysis.New(g)
	pred := ll1Predictor{g, an}
	mres := Multistep(g, pred, InitSourceIn(mem, g, g.Start, source.FromTokens(g.Compiled(), w)), Options{})
	rr := RecoverFrom(g, pred, an, mres, Options{})
	checkRecovered(t, rr, w)
	want := rr.Tree.String()
	mem.Reset()
	if got := rr.Tree.String(); got != want {
		t.Fatalf("tree changed after Mem.Reset: %q vs %q", got, want)
	}
}

func TestErrorDiagMapping(t *testing.T) {
	cases := []struct {
		err  *Error
		code diag.Code
	}{
		{&Error{Kind: ErrLeftRecursive, NT: "E"}, diag.CodeLeftRecursion},
		{&Error{Kind: ErrSource}, diag.CodeSource},
		{&Error{Kind: ErrLimit, Limit: LimitSteps}, diag.CodeLimit},
		{&Error{Kind: ErrInvalidState}, diag.CodeInternal},
	}
	for _, tc := range cases {
		d := tc.err.Diag(3)
		if d.Code != tc.code || d.Pos.Token != 3 || d.Severity != diag.Error {
			t.Errorf("Diag(%v) = %v, want code %s at token 3", tc.err, d, tc.code)
		}
	}
}

// TestRecoverFromRetiringRunsMatchesPlain covers the recovery driver on
// in-place runs. RecoverFrom re-enters Multistep from repaired states that
// share nodes with the rejected run's Final, so each resumed segment adopts
// a state built partly from the Mem's own nodes and overwrites the previous
// segment's Final; no repair reads a state after re-entering. On random
// broken inputs, recovery with one pooled Mem (Reset between inputs, as the
// parser does) must give the same kind, tree and diagnostics as recovery
// without a Mem.
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
