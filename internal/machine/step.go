package machine

import (
	"fmt"

	"costar/internal/grammar"
)

// Step performs a single atomic transition σ { σ′ (Section 3.3). It
// dispatches on the shape of the state:
//
//   - final: single suffix frame with no symbols left — accept (or reject
//     on leftover tokens);
//   - return: top suffix frame exhausted — reduce to its open nonterminal;
//   - consume: top stack symbol is a terminal — match the next token;
//   - push: top stack symbol is a nonterminal — detect left recursion,
//     then call the predictor and push the chosen right-hand side.
//
// Step never mutates st's stacks or flags; continuing results carry a fresh
// state sharing structure with the old one. The input cursor is the one
// mutable piece: a consume advances it, so states must be used linearly
// (which Multistep does — each state is stepped exactly once). All symbol
// dispatch and matching is on dense IDs: consume compares two int32s, the
// left-recursion check is one bitset probe — no string touches the hot
// path.
func Step(g *grammar.Grammar, pred Predictor, st *State) StepResult {
	top := st.Suffix
	if len(top.F.Rest) == 0 {
		if top.Below == nil {
			return finalize(st)
		}
		return stepReturn(st)
	}
	head := top.F.Rest[0]
	if head.IsT() {
		return stepConsume(st, head.Term())
	}
	return stepPush(g, pred, st, head.NT())
}

// finalize handles the final configuration: no unprocessed symbols and a
// single frame on each stack.
func finalize(st *State) StepResult {
	if st.Suffix.F.Lhs != grammar.NoNT {
		return StepResult{Kind: StepError, Err: InvalidState(
			"bottom suffix frame carries open nonterminal %s", st.C.NTName(st.Suffix.F.Lhs))}
	}
	if st.Prefix == nil || st.Prefix.Below != nil {
		return StepResult{Kind: StepError, Err: InvalidState(
			"suffix stack exhausted but prefix stack has %d frames", st.Prefix.Height())}
	}
	if _, ok := st.Src.Peek(0); ok {
		tok, _ := st.Src.Token(0)
		return StepResult{Kind: StepReject, Reason: "input continues past a complete parse: next token " + tok.String()}
	}
	if err := st.Src.Err(); err != nil {
		return StepResult{Kind: StepError, Err: SourceErr(err)}
	}
	if len(st.Prefix.F.Trees) != 1 {
		return StepResult{Kind: StepError, Err: InvalidState(
			"final prefix frame holds %d trees, want exactly 1", len(st.Prefix.F.Trees))}
	}
	return StepResult{Kind: StepAccept, Tree: st.Trees.Tree(st.Prefix.F.Trees[0])}
}

// stepReturn pops the completed top frames and stores Node(X, f) in the
// caller's prefix frame (the (σ5) → (σ6) transition of Figure 2).
func stepReturn(st *State) StepResult {
	x := st.Suffix.F.Lhs
	if x == grammar.NoNT {
		return StepResult{Kind: StepError, Err: InvalidState(
			"return with no open nonterminal in a non-bottom frame")}
	}
	if st.Prefix == nil || st.Prefix.Below == nil {
		return StepResult{Kind: StepError, Err: InvalidState(
			"return: prefix stack height %d below suffix stack height %d",
			st.Prefix.Height(), st.Suffix.Height())}
	}
	m := st.Mem
	node := st.Trees.NodeRev(x, st.Prefix.F.Trees)
	caller := m.consProcIn(st.Prefix.Below.F, grammar.NTSym(x), node)
	// X is now fully processed, so it leaves the visited set (it is present
	// only when X derived ε-so-far, i.e. no token was consumed since its
	// push). The two cases are exactly Lemma 4.4's "(a) decreases or
	// (b) remains constant" split for the stack score.
	next := m.newState(State{
		C:         st.C,
		Start:     st.Start,
		Prefix:    m.pushPrefix(caller, st.Prefix.Below.Below),
		Suffix:    st.Suffix.Below,
		Src:       st.Src,
		Consumed:  st.Consumed,
		Visited:   m.removeVisited(st.Visited, x),
		Unique:    st.Unique,
		Certified: st.Certified,
		Trees:     st.Trees,
		Mem:       m,
	})
	return StepResult{Kind: StepCont, Op: OpReturn, State: next}
}

// stepConsume matches terminal a against the next token (the (σ2) → (σ3)
// transition of Figure 2). A successful consume empties the visited set and
// advances the cursor — the one transition that shrinks the window.
func stepConsume(st *State, a grammar.TermID) StepResult {
	t, ok := st.Src.Peek(0)
	if !ok {
		if err := st.Src.Err(); err != nil {
			return StepResult{Kind: StepError, Err: SourceErr(err)}
		}
		return StepResult{Kind: StepReject,
			Reason: "input exhausted while expecting terminal " + grammar.T(st.C.TermName(a)).String()}
	}
	tok, _ := st.Src.Token(0)
	if t != a {
		return StepResult{Kind: StepReject,
			Reason: "expected terminal " + grammar.T(st.C.TermName(a)).String() + ", found " + tok.String()}
	}
	m := st.Mem
	topSuffix := SuffixFrame{Lhs: st.Suffix.F.Lhs, Rest: st.Suffix.F.Rest[1:]}
	topPrefix := m.consProcIn(st.Prefix.F, grammar.TermSym(a), st.Trees.Leaf(tok))
	st.Src.Advance()
	next := m.newState(State{
		C:         st.C,
		Start:     st.Start,
		Prefix:    m.pushPrefix(topPrefix, st.Prefix.Below),
		Suffix:    m.pushSuffix(topSuffix, st.Suffix.Below),
		Src:       st.Src,
		Consumed:  st.Consumed + 1,
		Unique:    st.Unique,
		Certified: st.Certified,
		Trees:     st.Trees,
		Mem:       m,
	})
	return StepResult{Kind: StepCont, Op: OpConsume, State: next}
}

// stepPush checks for left recursion, asks the predictor for a right-hand
// side for x, and pushes it (the (σ0) → (σ1) transition of Figure 2).
func stepPush(g *grammar.Grammar, pred Predictor, st *State, x grammar.NTID) StepResult {
	if st.Visited.Contains(x) {
		if st.Certified {
			// The grammar carries a no-left-recursion certificate, so this
			// branch is statically unreachable (Theorem 5.8); reaching it
			// means the certificate lied — an internal inconsistency, not a
			// grammar-authoring error.
			return StepResult{Kind: StepError, Err: InvalidState(
				"certificate violation: certified grammar re-opened %s without consuming a token", st.C.NTName(x))}
		}
		return StepResult{Kind: StepError, Err: LeftRecursive(st.C.NTName(x),
			"nonterminal re-opened without consuming a token")}
	}
	if !st.C.HasNTID(x) {
		return StepResult{Kind: StepError, Err: InvalidState(
			"top stack nonterminal %s has no productions", st.C.NTName(x))}
	}
	p := pred.Predict(x, st.Suffix, st.Src)
	switch p.Kind {
	case PredReject:
		// A truncated source looks like EOF to prediction; surface the
		// underlying failure rather than a spurious rejection.
		if err := st.Src.Err(); err != nil {
			return StepResult{Kind: StepError, Err: SourceErr(err)}
		}
		reason := "no viable right-hand side for nonterminal " + st.C.NTName(x)
		if p.FailDepth > 0 {
			reason += fmt.Sprintf(" (last alternative died %d tokens ahead)", p.FailDepth)
		}
		return StepResult{Kind: StepReject, Reason: reason}
	case PredError:
		err := p.Err
		if err == nil {
			err = InvalidState("predictor returned PredError with nil error")
		}
		return StepResult{Kind: StepError, Err: err}
	}
	m := st.Mem
	caller := SuffixFrame{Lhs: st.Suffix.F.Lhs, Rest: st.Suffix.F.Rest[1:]}
	pushed := SuffixFrame{Lhs: x, Rest: p.Rhs}
	next := m.newState(State{
		C:         st.C,
		Start:     st.Start,
		Prefix:    m.pushPrefix(PrefixFrame{}, st.Prefix),
		Suffix:    m.pushSuffix(pushed, m.pushSuffix(caller, st.Suffix.Below)),
		Src:       st.Src,
		Consumed:  st.Consumed,
		Visited:   m.addVisited(st.Visited, x),
		Unique:    st.Unique && p.Kind != PredAmbig,
		Certified: st.Certified,
		Trees:     st.Trees,
		Mem:       m,
	})
	return StepResult{Kind: StepCont, Op: OpPush, State: next}
}
