package parser

import (
	"strings"
	"testing"

	"costar/internal/diag"
	"costar/internal/grammar"
	"costar/internal/lexer"
	"costar/internal/machine"
	"costar/internal/rx"
)

// Every failure shape must surface through the unified diagnostics layer:
// plain rejects carry one syntax diagnostic, engine errors carry their
// converted diagnostic (lexer failures keep byte/line/col coordinates), and
// recovered parses carry one diagnostic per repair.

func TestRejectDiagnostic(t *testing.T) {
	p := MustNew(fig2(), Options{})
	res := p.Parse(word("a", "b"))
	if res.Kind != Reject {
		t.Fatalf("result = %s", res)
	}
	if len(res.Diags) != 1 {
		t.Fatalf("Diags = %v, want exactly one syntax diagnostic", res.Diags)
	}
	d := res.Diags[0]
	if d.Code != diag.CodeSyntax && d.Code != diag.CodeUnexpectedEOF {
		t.Errorf("code = %s", d.Code)
	}
	if d.Severity != diag.Error || d.Pos.Token != res.Consumed {
		t.Errorf("diag = %v, want error at token %d", d, res.Consumed)
	}
	if len(d.Expected) == 0 || len(res.Expected) != len(d.Expected) {
		t.Errorf("diag expected set %v, result %v", d.Expected, res.Expected)
	}
	// The diagnostic message is the undecorated reject reason — position
	// belongs to Pos, not to the message text.
	if strings.Contains(d.Message, "after") && strings.Contains(d.Message, "tokens") {
		t.Errorf("message carries position decoration: %q", d.Message)
	}
}

func TestLexerErrorDiagnostic(t *testing.T) {
	g := grammar.MustParseBNF(`S -> a`)
	lex := lexer.MustNew(lexer.Spec{Rules: []lexer.Rule{
		{Name: "a", Pattern: rx.Str("a")},
		lexer.Skip("ws", `[ \n]+`),
	}})
	res := MustNew(g, Options{}).ParseReader(lex, strings.NewReader("a\n!"))
	if res.Kind != Error {
		t.Fatalf("result = %s", res)
	}
	if len(res.Diags) != 1 {
		t.Fatalf("Diags = %v", res.Diags)
	}
	d := res.Diags[0]
	if d.Code != diag.CodeLex || d.Pos.Line != 2 || d.Pos.Col != 1 {
		t.Errorf("diag = %+v, want lex error at 2:1", d)
	}
	if d.Snippet == "" {
		t.Error("lex diagnostic without snippet")
	}
}

func TestLimitErrorDiagnostic(t *testing.T) {
	p := MustNew(fig2(), Options{Limits: Limits{MaxSteps: 2}})
	res := p.Parse(word("a", "b", "d"))
	if res.Kind != Error {
		t.Fatalf("result = %s", res)
	}
	if len(res.Diags) != 1 || res.Diags[0].Code != diag.CodeLimit {
		t.Fatalf("Diags = %v, want one limit diagnostic", res.Diags)
	}
}

func TestRecoverSessionResult(t *testing.T) {
	p := MustNew(fig2(), Options{Recover: true})
	// "a b" stops at EOF expecting c/d; recovery inserts and closes.
	res := p.Parse(word("a", "b"))
	if res.Kind != Recovered {
		t.Fatalf("result = %s", res)
	}
	if res.Tree == nil || !res.Tree.HasErr() {
		t.Fatalf("recovered tree = %v, want error nodes", res.Tree)
	}
	if len(res.Diags) == 0 || !diag.Sorted(res.Diags) {
		t.Fatalf("Diags = %v", res.Diags)
	}
	if !strings.HasPrefix(res.String(), "Recovered(") {
		t.Errorf("String = %q", res.String())
	}
	if p.Accepts(word("a", "b")) {
		t.Error("Accepts treated Recovered as membership")
	}
	// Clean inputs are untouched: same tree as a plain session, no diags.
	clean := p.Parse(word("a", "b", "d"))
	if clean.Kind != Unique || len(clean.Diags) != 0 {
		t.Fatalf("clean parse through recovering session: %s (diags %v)", clean, clean.Diags)
	}
}

// TestRecoverPooledScratchReuse: recovered trees must stay intact across
// subsequent parses on the same session (the pooled scratch is reset and
// reused; the tree lives in the detached result arena).
func TestRecoverPooledScratchReuse(t *testing.T) {
	p := MustNew(fig2(), Options{Recover: true})
	res := p.Parse(word("a", "b"))
	if res.Kind != Recovered {
		t.Fatalf("result = %s", res)
	}
	want := res.Tree.String()
	for i := 0; i < 50; i++ {
		if r := p.Parse(word("a", "b", "c")); r.Kind != Unique {
			t.Fatalf("parse %d: %s", i, r)
		}
		if r := p.Parse(word("b", "b")); r.Kind != Recovered {
			t.Fatalf("parse %d: %s", i, r)
		}
	}
	if got := res.Tree.String(); got != want {
		t.Fatalf("recovered tree corrupted by session reuse:\n  was %s\n  now %s", want, got)
	}
}

// TestRecoverGovernorSharing: the repair budget rides the session limits,
// and exhausting it force-closes rather than erroring.
func TestRecoverGovernorSharing(t *testing.T) {
	p := MustNew(fig2(), Options{Recover: true, Limits: Limits{MaxRepairs: 1}})
	res := p.Parse(word("c", "c", "c", "c"))
	if res.Kind != Recovered {
		t.Fatalf("result = %s (err %v)", res, res.Err)
	}
	if res.Usage.Repairs == 0 {
		t.Error("Usage.Repairs not recorded")
	}
	found := false
	for _, d := range res.Diags {
		if d.Code == diag.CodeRepairBudget {
			found = true
		}
	}
	if !found {
		t.Errorf("Diags = %v, want repair-budget", res.Diags)
	}
}

// TestRecoverOffIsDefault: the zero Options never produce Recovered and
// never attach repair diagnostics — with recovery off the parser is
// bit-identical to the pre-recovery engine.
func TestRecoverOffIsDefault(t *testing.T) {
	p := MustNew(fig2(), Options{})
	for _, w := range [][]grammar.Token{
		word("a", "b"), word("c"), word(), word("a", "b", "d", "d"),
	} {
		res := p.Parse(w)
		if res.Kind == Recovered {
			t.Fatalf("%v: Recovered with recovery off", w)
		}
		for _, d := range res.Diags {
			if strings.HasPrefix(string(d.Code), "repair-") {
				t.Fatalf("%v: repair diagnostic with recovery off: %v", w, d)
			}
		}
	}
	if machine.Recovered.String() != "Recovered" {
		t.Errorf("kind string = %q", machine.Recovered.String())
	}
}
