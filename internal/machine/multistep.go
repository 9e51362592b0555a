package machine

import (
	"costar/internal/grammar"
	"costar/internal/tree"
)

// Result is a terminal machine outcome (Figure 1: R ::= Unique(v) |
// Ambig(v) | Reject | Error(e)).
type Result struct {
	Kind     ResultKind
	Tree     *tree.Tree
	Reason   string // for Reject
	Err      *Error // for Error
	Steps    int    // transitions taken (diagnostics)
	Consumed int    // tokens consumed when the machine halted (diagnostics)
	Usage    Usage  // resource high-water marks for the whole run
	// Final is the machine state at the halt, for diagnostics: rejection
	// messages derive their "expected one of ..." sets from its suffix
	// stack (a luxury top-down parsers get for free; the related-work
	// section notes error reporting is a research problem for bottom-up
	// parsers), and recovery resumes from it. After an in-place run it is
	// the Mem's state: valid until the Mem's next run or Reset.
	Final *State
}

// ResultKind classifies parse results.
type ResultKind uint8

const (
	// Unique: Tree is the sole parse tree for the input (Theorem 5.1).
	Unique ResultKind = iota
	// Ambig: Tree is one of at least two distinct parse trees (Theorem 5.6).
	Ambig
	// Reject: the input is not in the grammar's language.
	Reject
	// ResultError: the machine reached an inconsistent state or detected
	// left recursion; unreachable for well-formed non-left-recursive
	// grammars (Theorem 5.8).
	ResultError
	// Recovered: recovering mode repaired one or more would-be Rejects and
	// produced a partial tree with error nodes (RecoverFrom). The input is
	// NOT in the language — Recovered is never produced by Multistep
	// itself, only by the recovery driver, so plain runs are untouched.
	Recovered
)

// String names the result kind.
func (k ResultKind) String() string {
	switch k {
	case Unique:
		return "Unique"
	case Ambig:
		return "Ambig"
	case Reject:
		return "Reject"
	case Recovered:
		return "Recovered"
	default:
		return "Error"
	}
}

// Options configures Multistep.
type Options struct {
	// OnStep, when non-nil, observes every transition: the state before,
	// the operation taken, and the state after (nil for terminal results).
	// Traces and the invariant-preservation tests hook in here.
	OnStep func(before *State, op OpKind, after *State)
	// CheckInvariants verifies the stack well-formedness invariant
	// (Figure 4) before every step and reports violations as ErrInvalidState
	// instead of proceeding. The paper proves this check can never fire;
	// enabling it trades speed for defense in depth.
	CheckInvariants bool
	// Governor enforces cancellation and resource limits over the run and
	// accumulates the Usage high-water marks. Nil means ungoverned: a fresh
	// background governor with no limits is used. The same governor must be
	// shared with the run's Predictor so prediction closure work is charged
	// to the same budget.
	Governor *Governor
	// Certified declares the grammar statically verified non-left-recursive
	// (it carries a grammar.Certificate). The visited-set probe then becomes
	// a certificate-violation assertion instead of a LeftRecursive error;
	// every other transition is unchanged, so results are bit-identical to
	// an uncertified run on genuinely certified grammars. Callers are
	// responsible for only setting this when a certificate is attached —
	// parser.New derives it from Compiled.Certificate().
	Certified bool
}

// Multistep drives the machine until it halts and converts the terminal
// StepResult into a Result, labeling the final tree Unique or Ambig
// according to the machine's uniqueness flag.
//
// Termination: the Coq development proves each step decreases
// meas(σ) = (|remaining tokens|, stackScore, stack height) in lexicographic
// order (Lemmas 4.1-4.4); the same measure is exported here as Meas —
// restated over the consumed count, which the cursor makes observable even
// when the input length is not known up front — and the property tests
// check the decrease on randomized runs.
//
// Resource governance: every transition ticks the run's Governor, which
// observes cancellation/deadlines (amortized — ctx.Err is polled every few
// dozen steps) and enforces Limits; an over-budget or canceled run halts
// with the governor's sticky structured error, never a false Reject.
//
// Two engines, one transition relation: a run whose state carries a Mem and
// that has no OnStep observer steps in place — it adopts st into the Mem
// and applies each transition to that one State (see Mem), and
// Result.Final is the Mem's state. The caller must not read st afterwards.
// Runs without a Mem, and observed runs, step persistently through Step
// and keep every state intact. Both take the same transitions, so they
// return equal results.
func Multistep(g *grammar.Grammar, pred Predictor, st *State, opts Options) Result {
	if opts.Certified {
		st.Certified = true // fresh initial state; the flag propagates through every step
	}
	gov := opts.Governor
	if gov == nil {
		gov = NewGovernor(nil, Limits{})
	}
	var m *Mem
	if st.Mem != nil && opts.OnStep == nil {
		if in := st.Mem.adopt(g, st); in != nil {
			m, st = st.Mem, in
		}
	}
	// Suffix height and tree-node count are maintained incrementally from
	// the op kind (push +1, return -1, consume +1 leaf, return +1 node);
	// recomputing Height() per step would be O(depth).
	depth := st.Suffix.Height()
	nodes := 0
	finish := func(r Result) Result {
		gov.NotePeakWindow(st.Src.PeakWindow())
		r.Usage = gov.Usage()
		return r
	}
	steps := 0
	for {
		if opts.CheckInvariants {
			if err := CheckStacksWf(g, st); err != nil {
				return finish(Result{Kind: ResultError, Err: InvalidState("invariant violation: %v", err),
					Steps: steps, Consumed: st.Consumed, Final: st})
			}
		}
		if gErr := gov.Err(); gErr != nil {
			// Prediction tripped the governor but answered anyway (e.g. a
			// cached decision); stop before doing more work.
			return finish(Result{Kind: ResultError, Err: gErr,
				Steps: steps, Consumed: st.Consumed, Final: st})
		}
		var r StepResult
		if m != nil {
			// A continuing step leaves r.Kind at its zero value, StepCont.
			r.Op = m.step(g, pred, st, depth, &r)
		} else {
			r = Step(g, pred, st)
			if opts.OnStep != nil {
				opts.OnStep(st, r.Op, r.State)
			}
			if r.Kind == StepCont {
				st = r.State
			}
		}
		steps++
		switch r.Kind {
		case StepCont:
			switch r.Op {
			case OpPush:
				depth++
			case OpReturn:
				depth--
				nodes++
			case OpConsume:
				nodes++
			}
			if gErr := gov.StepTick(st.Consumed, depth, nodes); gErr != nil {
				return finish(Result{Kind: ResultError, Err: gErr,
					Steps: steps, Consumed: st.Consumed, Final: st})
			}
		case StepAccept:
			gov.StepTick(st.Consumed, depth, nodes)
			kind := Unique
			if !st.Unique {
				kind = Ambig
			}
			return finish(Result{Kind: kind, Tree: r.Tree, Steps: steps, Consumed: st.Consumed, Final: st})
		case StepReject:
			gov.StepTick(st.Consumed, depth, nodes)
			return finish(Result{Kind: Reject, Reason: r.Reason, Steps: steps, Consumed: st.Consumed, Final: st})
		default:
			gov.StepTick(st.Consumed, depth, nodes)
			return finish(Result{Kind: ResultError, Err: r.Err, Steps: steps, Consumed: st.Consumed, Final: st})
		}
	}
}
