package machine

import (
	"context"
	"errors"
	"fmt"

	"costar/internal/grammar"
	"costar/internal/source"
	"costar/internal/tree"
)

// State is a machine state σ ∈ Φ × Ψ × ∆ × w × S(N) × B (Figure 1). The
// prediction cache ∆ is owned by the Predictor rather than stored here; it
// is threaded through prediction calls exactly as in the paper, but keeping
// it out of State lets the same cache serve a whole parsing session.
//
// A state runs on the compiled grammar: stacks hold dense symbol IDs, the
// remaining input is a demand-driven cursor carrying pre-interned terminal
// IDs, and the visited set is a bitset over NTIDs.
//
// Step treats states as values: its stacks are persistent and shared
// across states. An in-place run instead rewrites the one State its Mem
// owns (see Mem). Either way the cursor is a single mutable value threaded
// linearly through the run: after a consume, earlier states' view of the
// remaining input has moved too. Each state snapshots its own Consumed
// count, so measures taken before a step (Meas in OnStep hooks, the
// termination tests) remain valid afterwards.
type State struct {
	C        *grammar.Compiled // compiled grammar the IDs index into
	Start    grammar.NTID      // start nonterminal (for invariant checking and finalization)
	Prefix   *PrefixStack
	Suffix   *SuffixStack
	Src      *source.Cursor // remaining input, pulled on demand
	Consumed int            // tokens consumed when this state was built
	Visited  NTSet          // nonterminals opened since the last consume (Section 4.1)
	Unique   bool           // false once prediction has detected ambiguity
	// Certified marks a run on a statically verified grammar (one carrying a
	// grammar.Certificate): Theorem 5.8 plus the certificate's
	// no-left-recursion check make the visited-set probe provably
	// unreachable, so a push demotes it from a LeftRecursive error to a
	// certificate-violation assertion. The bookkeeping itself stays on — the
	// termination measure (measure.go) reads Visited — so certified and
	// uncertified runs take bit-identical transitions on certified grammars.
	Certified bool
	// Trees is the table the run builds its parse tree in; PrefixFrame.Trees
	// holds IDs into it. It is propagated unchanged through every step and
	// never pooled: the tree the run returns keeps it alive.
	Trees *tree.Table
	// Mem is the scratch an unobserved run steps this state in place on,
	// propagated unchanged through every step. Nil (the default for Init
	// and InitSource) means every step is persistent; InitSourceIn attaches
	// one. See Mem for the lifetime contract pooled callers must honor.
	Mem *Mem
}

// Init builds the initial machine state for start symbol start and word w:
// one empty prefix frame, one suffix frame holding the start symbol, all
// tokens remaining, empty visited set, unique flag true (σ0 of Figure 2).
// The word is wrapped in a slice-backed cursor, interning its terminals once
// here; every later consume is an integer compare. Init panics if start was
// never interned (i.e. it is neither defined nor referenced in g);
// the parser screens that out with HasNT before reaching the machine.
func Init(g *grammar.Grammar, start string, w []grammar.Token) *State {
	return InitSource(g, start, source.FromTokens(g.Compiled(), w))
}

// InitSource is Init over an arbitrary token cursor — the streaming entry
// point. The cursor must be fresh (nothing consumed) and is owned by the
// machine for the duration of the run.
func InitSource(g *grammar.Grammar, start string, src *source.Cursor) *State {
	return InitSourceIn(nil, g, start, src)
}

// InitSourceIn is InitSource with the state and its stack nodes taken from
// m, the entry point pooled sessions use: with a warm m it allocates only
// the run's tree table. A nil m is InitSource.
func InitSourceIn(m *Mem, g *grammar.Grammar, start string, src *source.Cursor) *State {
	c := g.Compiled()
	sid, ok := c.NTIDOf(start)
	if !ok {
		panic(fmt.Sprintf("machine: start symbol %q is not in the grammar", start))
	}
	st := State{
		C:        c,
		Start:    sid,
		Src:      src,
		Consumed: src.Pos(),
		Unique:   true,
		Trees:    tree.NewTable(c.NTNames()),
		Mem:      m,
	}
	if m == nil {
		heap := st // a copy, so that st itself never escapes to the heap
		heap.Prefix = &PrefixStack{}
		heap.Suffix = &SuffixStack{F: SuffixFrame{Lhs: grammar.NoNT, Rest: []grammar.SymID{grammar.NTSym(sid)}}}
		return &heap
	}
	words := m.begin(g, c)
	clear(words)
	if len(m.levels) == 0 {
		m.grow(1)
	}
	lv := m.levels[0]
	m.start[0] = grammar.NTSym(sid)
	lv.p.F.Proc, lv.p.F.Trees = lv.p.F.Proc[:0], lv.p.F.Trees[:0]
	lv.s.F = SuffixFrame{Lhs: grammar.NoNT, Rest: m.start[:]}
	st.Prefix, st.Suffix = &lv.p, &lv.s
	st.Visited = NTSet{hi: words}
	m.state = st
	return &m.state
}

// String renders the state compactly for traces:
// "⟨prefix | suffix | 3 consumed | {S, A} | unique⟩".
func (st *State) String() string {
	flag := "unique"
	if !st.Unique {
		flag = "ambig"
	}
	return fmt.Sprintf("⟨%s | %s | %d consumed | %s | %s⟩",
		st.Prefix.StringWith(st.C, st.Trees), st.Suffix.StringWith(st.C), st.Consumed,
		st.Visited.StringWith(st.C), flag)
}

// ErrKind classifies machine errors (Figure 1: e ::= InvalidState |
// LeftRecursive(X)).
type ErrKind uint8

const (
	// ErrInvalidState means the machine reached a malformed configuration.
	// Theorem 5.8 guarantees this never happens for well-formed grammars;
	// the parser's tests enforce the same.
	ErrInvalidState ErrKind = iota
	// ErrLeftRecursive means nonterminal NT was detected as left-recursive
	// dynamically (Section 4.1).
	ErrLeftRecursive
	// ErrSource means the token source failed while the machine was pulling
	// input — an io.Reader error or an incremental lexing failure.
	// Unreachable on slice-backed inputs, which are fully lexed before the
	// machine starts.
	ErrSource
	// ErrCanceled means the parse's context was canceled; the run was
	// abandoned, not rejected — the input may well be in the language.
	ErrCanceled
	// ErrDeadline means the parse's context deadline expired.
	ErrDeadline
	// ErrLimit means a resource limit (Limits) was exhausted; Limit names
	// which one.
	ErrLimit
	// ErrPanic means a panic escaped an engine layer and was contained at
	// the facade; Recovered carries the panic value and Stack a trimmed
	// stack summary.
	ErrPanic
)

// Error is a machine or prediction error value.
type Error struct {
	Kind      ErrKind
	NT        string // offending nonterminal for ErrLeftRecursive
	Msg       string
	Limit     LimitKind // exhausted limit for ErrLimit
	Cause     error     // underlying cause (source/context errors); Unwrap exposes it
	Recovered any       // recovered panic value for ErrPanic
	Stack     string    // trimmed stack summary for ErrPanic
}

// Error implements the error interface.
func (e *Error) Error() string {
	switch e.Kind {
	case ErrLeftRecursive:
		return fmt.Sprintf("left-recursive nonterminal %s: %s", e.NT, e.Msg)
	case ErrSource:
		return fmt.Sprintf("token source failed: %s", e.Msg)
	case ErrCanceled, ErrDeadline, ErrLimit:
		return e.Msg
	case ErrPanic:
		return fmt.Sprintf("internal panic contained: %s", e.Msg)
	default:
		return fmt.Sprintf("invalid machine state: %s", e.Msg)
	}
}

// Unwrap exposes the underlying cause, so errors.Is(err, context.Canceled)
// and errors.Is(err, <injected reader error>) see through the machine error.
func (e *Error) Unwrap() error { return e.Cause }

// InvalidState constructs an ErrInvalidState error.
func InvalidState(format string, args ...any) *Error {
	return &Error{Kind: ErrInvalidState, Msg: fmt.Sprintf(format, args...)}
}

// LeftRecursive constructs an ErrLeftRecursive error for nt.
func LeftRecursive(nt, msg string) *Error {
	return &Error{Kind: ErrLeftRecursive, NT: nt, Msg: msg}
}

// SourceErr wraps a token-source failure as an ErrSource machine error. A
// source that failed because the parse's own context ended (a reader that
// honors cancellation) surfaces as ErrCanceled/ErrDeadline instead, so the
// caller sees one consistent cancellation story regardless of which layer
// noticed first. The cause is retained for errors.Is.
func SourceErr(err error) *Error {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return &Error{Kind: ErrDeadline, Msg: "parse deadline exceeded", Cause: err}
	case errors.Is(err, context.Canceled):
		return &Error{Kind: ErrCanceled, Msg: "parse canceled", Cause: err}
	}
	return &Error{Kind: ErrSource, Msg: err.Error(), Cause: err}
}

// PredKind classifies predictions (Figure 1: p ::= UniqueP(γ) | AmbigP(γ) |
// RejectP | ErrorP(e)).
type PredKind uint8

const (
	// PredUnique: γ is the only right-hand side that may lead to a
	// successful parse (LL mode), or the single SLL survivor.
	PredUnique PredKind = iota
	// PredAmbig: multiple right-hand sides lead to a successful parse; γ
	// is the chosen (lowest-numbered) one.
	PredAmbig
	// PredReject: no right-hand side can succeed.
	PredReject
	// PredError: prediction reached an inconsistent state or detected
	// left recursion.
	PredError
)

// Prediction is the result of an adaptivePredict call.
type Prediction struct {
	Kind PredKind
	Rhs  []grammar.SymID // for PredUnique / PredAmbig (compiled RHS)
	Err  *Error          // for PredError
	// FailDepth, for PredReject, is how many lookahead tokens prediction
	// examined before ruling every alternative out — the "farthest
	// failure" error-reporting heuristic.
	FailDepth int
}

// Predictor chooses a right-hand side for decision nonterminal nt given the
// machine's current suffix stack (whose top symbol is nt) and a lookahead
// cursor positioned at the next unconsumed token. Implementations peek —
// never advance — the cursor; how deep they peek is exactly how much input
// the sliding window must retain. adaptivePredict (internal/prediction) is
// the production implementation; tests substitute simpler ones.
type Predictor interface {
	Predict(nt grammar.NTID, suffix *SuffixStack, la *source.Cursor) Prediction
}

// StepKind classifies step results (Figure 1: r ::= AcceptS(v) | RejectS |
// ErrorS(e) | ContS(σ)).
type StepKind uint8

const (
	// StepCont: the machine took one transition and continues from State.
	StepCont StepKind = iota
	// StepAccept: the machine reached a final configuration with tree Tree.
	StepAccept
	// StepReject: the input word is not in the grammar's language.
	StepReject
	// StepError: the machine reached an inconsistent state or found left
	// recursion.
	StepError
)

// OpKind identifies which operation a continuing step performed; traces and
// the measure property tests use it.
type OpKind uint8

const (
	// OpNone is used for non-continuing results.
	OpNone OpKind = iota
	// OpConsume matched the top stack terminal against the next token.
	OpConsume
	// OpPush predicted a right-hand side and pushed new frames.
	OpPush
	// OpReturn reduced a completed right-hand side to its nonterminal.
	OpReturn
)

// String names the operation.
func (op OpKind) String() string {
	switch op {
	case OpConsume:
		return "consume"
	case OpPush:
		return "push"
	case OpReturn:
		return "return"
	default:
		return "none"
	}
}

// StepResult is the outcome of one Step call.
type StepResult struct {
	Kind   StepKind
	Op     OpKind     // operation taken when Kind == StepCont
	State  *State     // next state when Kind == StepCont
	Tree   *tree.Tree // final tree when Kind == StepAccept
	Reason string     // human-readable cause when Kind == StepReject
	Err    *Error     // error when Kind == StepError
}
