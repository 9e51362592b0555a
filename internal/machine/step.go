package machine

import (
	"fmt"

	"costar/internal/grammar"
	"costar/internal/tree"
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
	var r StepResult
	top := st.Suffix
	if len(top.F.Rest) == 0 {
		if top.Below == nil {
			return finalize(st)
		}
		if node, ok := returnNode(st, &r); ok {
			// X is now fully processed, so it leaves the visited set (it is
			// present only when X derived ε-so-far, i.e. no token was
			// consumed since its push). The two cases are exactly Lemma
			// 4.4's "(a) decreases or (b) remains constant" split for the
			// stack score.
			x, caller := top.F.Lhs, st.Prefix.Below
			n := *st
			n.Prefix = &PrefixStack{F: caller.F.consProc(grammar.NTSym(x), node), Below: caller.Below}
			n.Suffix = top.Below
			n.Visited = st.Visited.Remove(x)
			r = StepResult{Kind: StepCont, Op: OpReturn, State: &n}
		}
		return r
	}
	rest := SuffixFrame{Lhs: top.F.Lhs, Rest: top.F.Rest[1:]}
	head := top.F.Rest[0]
	if head.IsT() {
		if leaf, ok := consumeLeaf(st, head.Term(), &r); ok {
			n := *st
			n.Prefix = &PrefixStack{F: st.Prefix.F.consProc(head, leaf), Below: st.Prefix.Below}
			n.Suffix = &SuffixStack{F: rest, Below: top.Below}
			n.Consumed++
			n.Visited = NTSet{}
			r = StepResult{Kind: StepCont, Op: OpConsume, State: &n}
		}
		return r
	}
	if rhs, ambig, ok := predictRhs(g, pred, st, head.NT(), &r); ok {
		n := *st
		n.Prefix = &PrefixStack{Below: st.Prefix}
		n.Suffix = &SuffixStack{F: SuffixFrame{Lhs: head.NT(), Rest: rhs}, Below: &SuffixStack{F: rest, Below: top.Below}}
		n.Visited = st.Visited.Add(head.NT())
		n.Unique = st.Unique && !ambig
		r = StepResult{Kind: StepCont, Op: OpPush, State: &n}
	}
	return r
}

// The checks and shared side effects of each transition: returnNode,
// consumeLeaf and predictRhs are what Step and an in-place run (Mem.step)
// both do before they build the next state, each its own way. On a halt
// they write the outcome (reject or error) to *halt and report false.

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

// returnNode checks a return and builds Node(X, f) from the top frame's
// trees; the transition then pops the completed top frames and stores the
// node in the caller's prefix frame (the (σ5) → (σ6) transition of
// Figure 2).
func returnNode(st *State, halt *StepResult) (tree.ID, bool) {
	x := st.Suffix.F.Lhs
	if x == grammar.NoNT {
		*halt = StepResult{Kind: StepError, Err: InvalidState(
			"return with no open nonterminal in a non-bottom frame")}
		return 0, false
	}
	if st.Prefix == nil || st.Prefix.Below == nil {
		*halt = StepResult{Kind: StepError, Err: InvalidState(
			"return: prefix stack height %d below suffix stack height %d",
			st.Prefix.Height(), st.Suffix.Height())}
		return 0, false
	}
	return st.Trees.Node(x, st.Prefix.F.Trees), true
}

// consumeLeaf matches terminal a against the next token, builds its leaf
// and advances the cursor (the (σ2) → (σ3) transition of Figure 2). A
// consume also empties the visited set; it is the one transition that
// shrinks the window.
func consumeLeaf(st *State, a grammar.TermID, halt *StepResult) (tree.ID, bool) {
	t, ok := st.Src.Peek(0)
	if !ok {
		if err := st.Src.Err(); err != nil {
			*halt = StepResult{Kind: StepError, Err: SourceErr(err)}
			return 0, false
		}
		*halt = StepResult{Kind: StepReject,
			Reason: "input exhausted while expecting terminal " + grammar.T(st.C.TermName(a)).String()}
		return 0, false
	}
	tok, _ := st.Src.Token(0)
	if t != a {
		*halt = StepResult{Kind: StepReject,
			Reason: "expected terminal " + grammar.T(st.C.TermName(a)).String() + ", found " + tok.String()}
		return 0, false
	}
	leaf := st.Trees.Leaf(tok)
	st.Src.Advance()
	return leaf, true
}

// predictRhs checks for left recursion and asks the predictor for a
// right-hand side for x, which the transition then pushes (the (σ0) → (σ1)
// transition of Figure 2). ambig reports that more than one right-hand
// side is viable.
func predictRhs(g *grammar.Grammar, pred Predictor, st *State, x grammar.NTID, halt *StepResult) (rhs []grammar.SymID, ambig, ok bool) {
	if st.Visited.Contains(x) {
		if st.Certified {
			// The grammar carries a no-left-recursion certificate, so this
			// branch is statically unreachable (Theorem 5.8); reaching it
			// means the certificate lied — an internal inconsistency, not a
			// grammar-authoring error.
			*halt = StepResult{Kind: StepError, Err: InvalidState(
				"certificate violation: certified grammar re-opened %s without consuming a token", st.C.NTName(x))}
			return nil, false, false
		}
		*halt = StepResult{Kind: StepError, Err: LeftRecursive(st.C.NTName(x),
			"nonterminal re-opened without consuming a token")}
		return nil, false, false
	}
	if !st.C.HasNTID(x) {
		*halt = StepResult{Kind: StepError, Err: InvalidState(
			"top stack nonterminal %s has no productions", st.C.NTName(x))}
		return nil, false, false
	}
	p := pred.Predict(x, st.Suffix, st.Src)
	switch p.Kind {
	case PredReject:
		// A truncated source looks like EOF to prediction; surface the
		// underlying failure rather than a spurious rejection.
		if err := st.Src.Err(); err != nil {
			*halt = StepResult{Kind: StepError, Err: SourceErr(err)}
			return nil, false, false
		}
		reason := "no viable right-hand side for nonterminal " + st.C.NTName(x)
		if p.FailDepth > 0 {
			reason += fmt.Sprintf(" (last alternative died %d tokens ahead)", p.FailDepth)
		}
		*halt = StepResult{Kind: StepReject, Reason: reason}
		return nil, false, false
	case PredError:
		err := p.Err
		if err == nil {
			err = InvalidState("predictor returned PredError with nil error")
		}
		*halt = StepResult{Kind: StepError, Err: err}
		return nil, false, false
	}
	return p.Rhs, p.Kind == PredAmbig, true
}
