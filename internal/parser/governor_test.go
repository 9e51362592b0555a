package parser

// Tests for the resource governor as seen through the session API: limits
// trip structured errors (never false Rejects), cancellation and deadlines
// surface with their causes intact, panics are contained at the parse
// boundary, and budget exhaustion is visible in the session statistics.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"costar/internal/grammar"
	"costar/internal/machine"
	"costar/internal/source"
)

// longWord builds a^n b d — in the Figure 2 grammar, predicting S requires
// lookahead to the last token, so prediction work scales with n.
func longWord(n int) []grammar.Token {
	terms := make([]string, 0, n+2)
	for i := 0; i < n; i++ {
		terms = append(terms, "a")
	}
	return word(append(terms, "b", "d")...)
}

// limitErr unwraps a Result error into the machine's structured form.
func limitErr(t *testing.T, res Result) *machine.Error {
	t.Helper()
	if res.Kind != Error {
		t.Fatalf("want Error result, got %s", res)
	}
	me, ok := res.Err.(*machine.Error)
	if !ok {
		t.Fatalf("want *machine.Error, got %T: %v", res.Err, res.Err)
	}
	return me
}

func TestLimitsTripStructuredErrors(t *testing.T) {
	cases := []struct {
		name   string
		limits Limits
		kind   machine.LimitKind
	}{
		{"steps", Limits{MaxSteps: 3}, machine.LimitSteps},
		{"tokens", Limits{MaxTokens: 2}, machine.LimitTokens},
		{"stack", Limits{MaxStackDepth: 2}, machine.LimitStackDepth},
		{"closure", Limits{MaxClosureWork: 1}, machine.LimitClosureWork},
		{"nodes", Limits{MaxTreeNodes: 1}, machine.LimitTreeNodes},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := MustNew(fig2(), Options{Limits: tc.limits})
			res := p.Parse(longWord(40))
			me := limitErr(t, res)
			if me.Kind != machine.ErrLimit || me.Limit != tc.kind {
				t.Fatalf("want ErrLimit/%s, got kind=%d limit=%s (%v)",
					tc.kind, me.Kind, me.Limit, me)
			}
			if !strings.Contains(me.Error(), tc.kind.String()) {
				t.Errorf("error %q does not name the limit %s", me, tc.kind)
			}
			if res.Canceled() {
				t.Error("a limit trip must not read as cancellation")
			}
			if res.Usage == (Usage{}) {
				t.Error("Usage not populated on a limited parse")
			}
		})
	}
}

func TestUsageReportedOnSuccess(t *testing.T) {
	p := MustNew(fig2(), Options{})
	res := p.Parse(longWord(10))
	if res.Kind != Unique {
		t.Fatalf("result = %s", res)
	}
	u := res.Usage
	if u.Steps == 0 || u.Tokens != 12 || u.StackDepth == 0 || u.TreeNodes == 0 {
		t.Fatalf("Usage incomplete on success: %s", u)
	}
	if u.Steps != res.Steps {
		t.Errorf("Usage.Steps=%d disagrees with Result.Steps=%d", u.Steps, res.Steps)
	}
	// Headroom protocol: rerunning under the measured marks as limits must
	// succeed; a budget two notches under the step mark must trip. (Exactly
	// one notch under would fire on the accept transition itself, which
	// never converts a completed parse into a limit error.)
	ok := MustNew(fig2(), Options{Limits: Limits{
		MaxSteps: u.Steps, MaxTokens: u.Tokens, MaxStackDepth: u.StackDepth,
		MaxTreeNodes: u.TreeNodes,
	}}).Parse(longWord(10))
	if ok.Kind != Unique {
		t.Fatalf("parse under measured limits: %s", ok)
	}
	tight := MustNew(fig2(), Options{Limits: Limits{MaxSteps: u.Steps - 2}}).Parse(longWord(10))
	if me := limitErr(t, tight); me.Limit != machine.LimitSteps {
		t.Fatalf("want LimitSteps under the mark, got %v", me)
	}
}

func TestParseContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := MustNew(fig2(), Options{})
	res := p.ParseInput(ctx, Input{Tokens: longWord(5000)})
	if !res.Canceled() {
		t.Fatalf("want a canceled result, got %s", res)
	}
	me := limitErr(t, res)
	if me.Kind != machine.ErrCanceled {
		t.Fatalf("want ErrCanceled, got kind=%d (%v)", me.Kind, me)
	}
	if !errors.Is(res.Err, context.Canceled) {
		t.Error("cause chain lost: errors.Is(err, context.Canceled) is false")
	}
}

func TestParseContextDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	p := MustNew(fig2(), Options{})
	res := p.ParseInput(ctx, Input{Tokens: longWord(5000)})
	if !res.Canceled() {
		t.Fatalf("want a canceled result, got %s", res)
	}
	me := limitErr(t, res)
	if me.Kind != machine.ErrDeadline {
		t.Fatalf("want ErrDeadline, got kind=%d (%v)", me.Kind, me)
	}
	if !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Error("cause chain lost: errors.Is(err, context.DeadlineExceeded) is false")
	}
}

func TestContextIgnoredWhileHealthy(t *testing.T) {
	// A live context must not perturb results: same tree as the plain path.
	p := MustNew(fig2(), Options{})
	plain := p.Parse(longWord(50))
	ctxed := p.ParseInput(context.Background(), Input{Tokens: longWord(50)})
	if plain.Kind != Unique || ctxed.Kind != Unique {
		t.Fatalf("plain=%s ctx=%s", plain, ctxed)
	}
	if plain.Tree.String() != ctxed.Tree.String() {
		t.Error("context path produced a different tree")
	}
}

func TestPanicContainedAtParseBoundary(t *testing.T) {
	g := fig2()
	p := MustNew(g, Options{})
	calls := 0
	pull := func() (grammar.Token, bool, error) {
		calls++
		if calls > 2 {
			panic("hostile pull")
		}
		return grammar.Tok("a", "a"), true, nil
	}
	res := p.ParseSource(source.FromPull(g.Compiled(), pull))
	me := limitErr(t, res)
	if me.Kind != machine.ErrPanic {
		t.Fatalf("want ErrPanic, got kind=%d (%v)", me.Kind, me)
	}
	if me.Recovered != "hostile pull" {
		t.Errorf("Recovered = %v, want the panic value", me.Recovered)
	}
	if me.Stack == "" {
		t.Error("no stack summary captured")
	}
	if res.Canceled() {
		t.Error("a contained panic must not read as cancellation")
	}
	// The session survives: the next parse on the same Parser is healthy.
	if res := p.Parse(word("b", "d")); res.Kind != Unique {
		t.Fatalf("session poisoned by a contained panic: %s", res)
	}
}

func TestCancellationNeverFalseReject(t *testing.T) {
	// Cancel at every poll boundary granularity: whatever the timing, the
	// outcome is Unique (finished first) or Canceled — never Reject/Ambig.
	p := MustNew(fig2(), Options{})
	w := longWord(2000)
	for _, after := range []int{0, 1, 64, 65, 1000} {
		ctx, cancel := context.WithCancel(context.Background())
		n := 0
		pull := func() (grammar.Token, bool, error) {
			if n == after {
				cancel()
			}
			if n >= len(w) {
				return grammar.Token{}, false, nil
			}
			tok := w[n]
			n++
			return tok, true, nil
		}
		res := p.ParseInput(ctx, Input{Pull: pull})
		switch {
		case res.Kind == Unique:
		case res.Canceled():
		default:
			t.Fatalf("cancel after %d pulls: want Unique or Canceled, got %s", after, res)
		}
		cancel()
	}
}
