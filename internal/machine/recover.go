package machine

import (
	"fmt"
	"slices"

	"costar/internal/analysis"
	"costar/internal/diag"
	"costar/internal/grammar"
	"costar/internal/tree"
)

// This file implements recovering parse mode: panic-mode error recovery
// layered strictly after a would-be Reject. Multistep itself is untouched —
// with recovery off, behavior is bit-identical to a plain run — and the
// driver only ever sees states a Reject suspended, so certified-mode
// guarantees (Theorem 5.8, never a false accept) are unaffected: a
// Recovered result is by construction not an accept.
//
// The driver loop is: run Multistep; when it rejects, classify the
// suspended state (consume mismatch, failed prediction, or trailing
// input), apply one repair, and resume. Repairs synchronize on anchor sets
// built from the analysis FIRST/FOLLOW bitset rows:
//
//   - delete: the next-but-one token is exactly the expected terminal —
//     discard one token;
//   - insert: the lookahead can continue the parse right after the
//     expected terminal — synthesize it as an error leaf;
//   - drop: the lookahead can continue right after a nonterminal that
//     failed prediction — emit an empty error node for it;
//   - pop: the lookahead continues some enclosing frame — close the top
//     production early into an error node (pop-to-FOLLOW);
//   - skip: otherwise, discard tokens (at least one) until an anchor
//     token — FIRST of any viable continuation, FOLLOW of any open
//     nonterminal, or end of input — vetting nonterminal anchors with a
//     prediction probe so we do not resync onto a token the predictor
//     would immediately reject.
//
// Every repair charges the governor (Limits.MaxRepairs); when the budget
// runs out the parse is force-closed: remaining input drains into one
// error span and the open stack unwinds into nested error nodes, so the
// partial tree always covers the whole input.
//
// Repaired states legitimately violate the Figure 4 stack well-formedness
// invariant (a skip node has a tree but no processed symbol; a dropped
// nonterminal's children match no right-hand side), so resumed segments
// run with CheckInvariants off.

// DefaultMaxRepairs is the repair budget when Limits.MaxRepairs is 0.
const DefaultMaxRepairs = 64

// maxSyncProbes caps prediction probes per skip run; past the cap the
// scanner accepts the anchor token without vetting.
const maxSyncProbes = 8

// RecoverResult is a recovering run's outcome: the embedded Result (Kind
// Recovered carries the partial tree) plus one positioned diagnostic per
// repair, in input order.
type RecoverResult struct {
	Result
	Diags   []diag.Diagnostic
	Repairs int
}

// RecoverFrom resumes a rejected Multistep run in recovering mode. It
// returns rejected unchanged when the result is not a suspended Reject.
// opts must be the options of the rejected run (same governor, same
// predictor state); the repair budget is opts.Governor's
// Limits.MaxRepairs (DefaultMaxRepairs when 0).
func RecoverFrom(g *grammar.Grammar, pred Predictor, an *analysis.Analysis, rejected Result, opts Options) RecoverResult {
	if rejected.Kind != Reject || rejected.Final == nil || an == nil {
		return RecoverResult{Result: rejected}
	}
	gov := opts.Governor
	if gov == nil {
		gov = NewGovernor(nil, Limits{})
		opts.Governor = gov
	}
	budget := gov.limits.MaxRepairs
	if budget == 0 {
		budget = DefaultMaxRepairs
	}
	r := &recovery{
		g: g, c: rejected.Final.C, start: rejected.Final.Start,
		pred: pred, an: an, gov: gov,
	}
	segOpts := opts
	segOpts.OnStep = nil
	segOpts.CheckInvariants = false // repaired states violate StacksWf by design

	res := rejected
	steps := res.Steps
	for res.Kind == Reject {
		st := res.Final
		if st == nil {
			break
		}
		over, gErr := gov.RepairTick(budget)
		if gErr != nil {
			res = r.errResult(gErr, st, steps)
			break
		}
		if over {
			r.diags = append(r.diags, diag.Errorf(diag.CodeRepairBudget, diag.TokenPos(st.Src.Pos()),
				"repair budget exhausted (MaxRepairs=%d); remaining input closed as an error span", budget))
			res = r.forceClose(st, steps)
			break
		}
		next, ferr := r.repair(st, res.Reason)
		if ferr != nil {
			res = r.errResult(ferr, st, steps)
			break
		}
		if next == nil {
			// Unexpected end of input: nothing to resync on — close out.
			res = r.forceClose(st, steps)
			break
		}
		// With a Mem the segment adopts next into it and steps in place,
		// overwriting st: nothing below reads st or next again.
		seg := Multistep(g, pred, next, segOpts)
		steps += seg.Steps
		seg.Steps = steps
		res = seg
	}

	out := RecoverResult{Result: res, Diags: r.diags, Repairs: gov.Usage().Repairs}
	if (res.Kind == Unique || res.Kind == Ambig) && out.Repairs > 0 {
		// A post-repair accept is a Recovered outcome, never a (false)
		// accept: the input as given is not in the language.
		out.Kind = Recovered
		out.Tree = r.wrapRoot(res.Final.Trees, res.Final.Prefix.F.Trees[0])
	}
	diag.Sort(out.Diags)
	return out
}

// recovery is the driver's per-run state.
type recovery struct {
	g     *grammar.Grammar
	c     *grammar.Compiled
	start grammar.NTID
	pred  Predictor
	an    *analysis.Analysis
	gov   *Governor
	diags []diag.Diagnostic
	// Skipped-token leaves that cannot attach to a prefix frame because
	// the bottom frame must finalize with exactly one tree: leading
	// garbage (before the start symbol was ever entered) and trailing
	// garbage (after a complete parse). wrapRoot folds them in.
	leading  []tree.ID
	trailing []tree.ID
}

// repair applies one repair to suspended state st and returns the state to
// resume from. (nil, nil) means "force-close": the input is exhausted and
// no repair can make progress.
func (r *recovery) repair(st *State, reason string) (*State, *Error) {
	top := st.Suffix
	pos := st.Src.Pos()
	if len(top.F.Rest) == 0 {
		if top.Below != nil {
			return nil, InvalidState("recovery: reject suspended on a returnable frame")
		}
		// Trailing input after a complete parse: drain it to EOF and let
		// finalize accept on resume.
		leaves, err := r.drain(st)
		if err != nil {
			return nil, err
		}
		r.diags = append(r.diags, diag.Diagnostic{
			Severity: diag.Error, Code: diag.CodeTrailing, Pos: diag.TokenPos(pos), Len: len(leaves),
			Message: fmt.Sprintf("input continues past a complete parse; discarded %d trailing token(s)", len(leaves)),
		})
		r.trailing = append(r.trailing, leaves...)
		return r.reposition(st, st.Prefix), nil
	}

	head := top.F.Rest[0]
	id, ok := st.Src.Peek(0)
	if !ok {
		if err := st.Src.Err(); err != nil {
			return nil, SourceErr(err)
		}
		r.diags = append(r.diags, diag.Diagnostic{
			Severity: diag.Error, Code: diag.CodeUnexpectedEOF, Pos: diag.TokenPos(pos),
			Message: reason, Expected: r.expectedFor(st, head),
		})
		return nil, nil
	}

	if head.IsT() {
		return r.repairConsume(st, head.Term(), id, pos, reason)
	}
	return r.repairPredict(st, head.NT(), id, pos, reason)
}

// repairConsume repairs a terminal mismatch: expected a, found the token
// with terminal id at the cursor.
func (r *recovery) repairConsume(st *State, a grammar.TermID, id grammar.TermID, pos int, reason string) (*State, *Error) {
	expected := []string{grammar.T(r.c.TermName(a)).String()}

	// Delete: the very next token is the expected terminal — the current
	// one is an intruder.
	if id2, ok2 := st.Src.Peek(1); ok2 && id2 == a {
		tok, _ := st.Src.Token(0)
		leaf := st.Trees.Leaf(tok)
		st.Src.Advance()
		if gErr := r.gov.LookaheadTick(); gErr != nil {
			return nil, gErr
		}
		r.diags = append(r.diags, diag.Diagnostic{
			Severity: diag.Error, Code: diag.CodeRepairSkip, Pos: diag.TokenPos(pos), Len: 1,
			Message: reason + "; discarded 1 token", Expected: expected,
		})
		return r.attachSkip(st, []tree.ID{leaf}), nil
	}

	// Insert: the lookahead continues the parse right after a — the
	// expected terminal is merely missing.
	if analysis.RowHas(r.firstAfterRow(st.Suffix, 1), int(id)) {
		r.diags = append(r.diags, diag.Diagnostic{
			Severity: diag.Error, Code: diag.CodeRepairInsert, Pos: diag.TokenPos(pos),
			Message: reason + "; inserted missing " + expected[0], Expected: expected,
		})
		return r.insertTerminal(st, a), nil
	}

	// Pop: the lookahead continues an enclosing production — close this
	// one early.
	if st.Suffix.Below != nil && st.Suffix.F.Lhs != grammar.NoNT && r.popOK(st, id) {
		r.diags = append(r.diags, diag.Diagnostic{
			Severity: diag.Error, Code: diag.CodeRepairPop, Pos: diag.TokenPos(pos),
			Message: reason + "; closed unfinished " + r.c.NTName(st.Suffix.F.Lhs), Expected: expected,
		})
		return r.popFrame(st), nil
	}

	// Skip to an anchor token.
	leaves, gErr := r.skipToAnchor(st, r.anchorRow(st, 0), grammar.NoNT, false)
	if gErr != nil {
		return nil, gErr
	}
	r.diags = append(r.diags, diag.Diagnostic{
		Severity: diag.Error, Code: diag.CodeRepairSkip, Pos: diag.TokenPos(pos), Len: len(leaves),
		Message:  fmt.Sprintf("%s; discarded %d token(s) to resynchronize", reason, len(leaves)),
		Expected: expected,
	})
	return r.attachSkip(st, leaves), nil
}

// repairPredict repairs a failed prediction for nonterminal x.
func (r *recovery) repairPredict(st *State, x grammar.NTID, id grammar.TermID, pos int, reason string) (*State, *Error) {
	expected := r.rowNames(r.an.FirstRowID(x))

	// Drop: the lookahead continues the parse with x omitted entirely.
	if analysis.RowHas(r.firstAfterRow(st.Suffix, 1), int(id)) {
		r.diags = append(r.diags, diag.Diagnostic{
			Severity: diag.Error, Code: diag.CodeRepairDrop, Pos: diag.TokenPos(pos),
			Message: reason + "; dropped nonterminal " + r.c.NTName(x), Expected: expected,
		})
		return r.dropNT(st, x), nil
	}

	// Pop: the lookahead continues an enclosing production.
	if st.Suffix.Below != nil && st.Suffix.F.Lhs != grammar.NoNT && r.popOK(st, id) {
		r.diags = append(r.diags, diag.Diagnostic{
			Severity: diag.Error, Code: diag.CodeRepairPop, Pos: diag.TokenPos(pos),
			Message: reason + "; closed unfinished " + r.c.NTName(st.Suffix.F.Lhs), Expected: expected,
		})
		return r.popFrame(st), nil
	}

	// Skip to an anchor, vetting FIRST(x) landings with prediction probes.
	leaves, gErr := r.skipToAnchor(st, r.anchorRow(st, 0), x, true)
	if gErr != nil {
		return nil, gErr
	}
	r.diags = append(r.diags, diag.Diagnostic{
		Severity: diag.Error, Code: diag.CodeRepairSkip, Pos: diag.TokenPos(pos), Len: len(leaves),
		Message:  fmt.Sprintf("%s; discarded %d token(s) to resynchronize", reason, len(leaves)),
		Expected: expected,
	})
	return r.attachSkip(st, leaves), nil
}

// firstAfterRow is the precise next-token set of the machine's
// continuation: FIRST of the flattened unprocessed form starting at the
// top frame (its first dropHead symbols excluded), cascading across
// nullable symbols and frames; the EOF bit when the whole continuation is
// nullable.
func (r *recovery) firstAfterRow(s *SuffixStack, dropHead int) []uint64 {
	row := make([]uint64, r.an.RowWords())
	for ; s != nil; s = s.Below {
		rest := s.F.Rest
		if dropHead > 0 {
			rest = rest[dropHead:]
			dropHead = 0
		}
		for _, sym := range rest {
			if sym.IsT() {
				analysis.RowSet(row, int(sym.Term()))
				return row
			}
			analysis.RowOr(row, r.an.FirstRowID(sym.NT()))
			if !r.an.NullableID(sym.NT()) {
				return row
			}
		}
	}
	analysis.RowSet(row, r.an.EOFCol())
	return row
}

// anchorRow is the panic-mode synchronization set: the firstAfter cascade
// of every frame, FOLLOW of every open nonterminal, and end of input.
func (r *recovery) anchorRow(st *State, dropHead int) []uint64 {
	row := make([]uint64, r.an.RowWords())
	analysis.RowSet(row, r.an.EOFCol())
	dh := dropHead
	for s := st.Suffix; s != nil; s = s.Below {
		rest := s.F.Rest
		if dh > 0 {
			rest = rest[dh:]
			dh = 0
		}
		for _, sym := range rest {
			if sym.IsT() {
				analysis.RowSet(row, int(sym.Term()))
				break
			}
			analysis.RowOr(row, r.an.FirstRowID(sym.NT()))
			if !r.an.NullableID(sym.NT()) {
				break
			}
		}
		if s.F.Lhs != grammar.NoNT {
			analysis.RowOr(row, r.an.FollowRowID(s.F.Lhs))
		}
	}
	return row
}

// popOK reports whether the lookahead can continue some enclosing frame's
// continuation — the pop-to-FOLLOW viability test.
func (r *recovery) popOK(st *State, id grammar.TermID) bool {
	for s := st.Suffix.Below; s != nil; s = s.Below {
		if analysis.RowHas(r.firstAfterRow(s, 0), int(id)) {
			return true
		}
	}
	return false
}

// skipToAnchor discards tokens (always at least one) until the cursor
// lands on an anchor token or end of input. With probe set, a landing
// token in FIRST(probeNT) is vetted with a prediction probe — the
// "lookahead probe during sync scanning" — and scanning continues while
// the predictor still rejects there.
func (r *recovery) skipToAnchor(st *State, anchor []uint64, probeNT grammar.NTID, probe bool) ([]tree.ID, *Error) {
	var leaves []tree.ID
	probes := 0
	for {
		tok, ok := st.Src.Token(0)
		if !ok {
			if err := st.Src.Err(); err != nil {
				return leaves, SourceErr(err)
			}
			return leaves, nil // EOF is always an anchor
		}
		if len(leaves) > 0 {
			id, _ := st.Src.Peek(0)
			if analysis.RowHas(anchor, int(id)) {
				if probe && probes < maxSyncProbes && analysis.RowHas(r.an.FirstRowID(probeNT), int(id)) {
					probes++
					p := r.pred.Predict(probeNT, st.Suffix, st.Src)
					if p.Kind == PredError {
						err := p.Err
						if err == nil {
							err = InvalidState("recovery probe: predictor returned PredError with nil error")
						}
						return leaves, err
					}
					if p.Kind != PredReject {
						return leaves, nil
					}
					// The predictor still rejects here; keep scanning.
				} else {
					return leaves, nil
				}
			}
		}
		leaves = append(leaves, st.Trees.Leaf(tok))
		st.Src.Advance()
		if gErr := r.gov.LookaheadTick(); gErr != nil {
			return leaves, gErr
		}
	}
}

// drain discards every remaining token into leaves.
func (r *recovery) drain(st *State) ([]tree.ID, *Error) {
	var leaves []tree.ID
	for {
		tok, ok := st.Src.Token(0)
		if !ok {
			break
		}
		leaves = append(leaves, st.Trees.Leaf(tok))
		st.Src.Advance()
		if gErr := r.gov.LookaheadTick(); gErr != nil {
			return leaves, gErr
		}
	}
	if err := st.Src.Err(); err != nil {
		return leaves, SourceErr(err)
	}
	return leaves, nil
}

// attachSkip wraps skipped-token leaves in an error node consed onto the
// top prefix frame (tree only — there is no processed symbol for it, which
// is one reason resumed segments skip the well-formedness check). At the
// bottom frame — leading garbage, before the start symbol was entered —
// the leaves are buffered for wrapRoot instead: finalize requires the
// bottom frame to hold exactly one tree.
func (r *recovery) attachSkip(st *State, leaves []tree.ID) *State {
	prefix := st.Prefix
	if st.Suffix.Below == nil {
		r.leading = append(r.leading, leaves...)
	} else if len(leaves) > 0 {
		node := st.Trees.ErrorNode(tree.ErrNT, leaves)
		f := st.Prefix.F
		trees := append(f.Trees[:len(f.Trees):len(f.Trees)], node)
		prefix = &PrefixStack{F: PrefixFrame{Proc: f.Proc, Trees: trees}, Below: st.Prefix.Below}
	}
	// Tokens were consumed: the visited set empties, as after a consume.
	return r.reposition(st, prefix)
}

// reposition rebuilds st with the prefix stack replaced and the consumed
// count resynchronized to the cursor (skipped tokens count as consumed);
// the visited set empties because input moved.
func (r *recovery) reposition(st *State, prefix *PrefixStack) *State {
	return &State{
		C: st.C, Start: st.Start,
		Prefix: prefix, Suffix: st.Suffix,
		Src: st.Src, Consumed: st.Src.Pos(),
		Unique: st.Unique, Certified: st.Certified, Trees: st.Trees, Mem: st.Mem,
	}
}

// insertTerminal synthesizes the expected terminal a as an error leaf and
// steps past it, mirroring a consume without touching the cursor. The
// visited set empties (the synthesized token counts as a consume for the
// left-recursion guard, or insertion into a left-recursive-looking spot
// would trip the certificate assertion).
func (r *recovery) insertTerminal(st *State, a grammar.TermID) *State {
	tok := grammar.Token{Terminal: r.c.TermName(a)}
	return r.stepPast(st, grammar.TermSym(a), st.Trees.ErrorLeaf(tok))
}

// stepPast rebuilds st with the top suffix frame's head symbol sym
// processed into tree v, as a consume does, but with the cursor and the
// consumed count untouched and the visited set emptied.
func (r *recovery) stepPast(st *State, sym grammar.SymID, v tree.ID) *State {
	return &State{
		C: st.C, Start: st.Start,
		Prefix: &PrefixStack{F: st.Prefix.F.consProc(sym, v), Below: st.Prefix.Below},
		Suffix: &SuffixStack{F: SuffixFrame{Lhs: st.Suffix.F.Lhs, Rest: st.Suffix.F.Rest[1:]}, Below: st.Suffix.Below},
		Src:    st.Src, Consumed: st.Consumed,
		Unique: st.Unique, Certified: st.Certified, Trees: st.Trees, Mem: st.Mem,
	}
}

// dropNT steps past nonterminal x with an empty error node, mirroring a
// push+return pair that derived nothing. The visited set empties: the
// machine resumes at the same token, and nonterminals opened before the
// repair (a Kleene-star parent, say) may legitimately re-open — without the
// reset the left-recursion guard would misread the repair as a loop. A true
// non-consuming loop still terminates: every round costs a repair, and the
// budget force-closes the parse.
func (r *recovery) dropNT(st *State, x grammar.NTID) *State {
	return r.stepPast(st, grammar.NTSym(x), st.Trees.ErrorNode(x, nil))
}

// popFrame closes the top production early, mirroring a return but
// labeling the node as an error node (its children are a strict prefix of
// the right-hand side). The visited set empties for the same reason as in
// dropNT: the caller resumes at the same token and may re-open nonterminals
// it opened before the repair.
func (r *recovery) popFrame(st *State) *State {
	x := st.Suffix.F.Lhs
	node := st.Trees.ErrorNode(x, st.Prefix.F.Trees)
	return &State{
		C: st.C, Start: st.Start,
		Prefix: &PrefixStack{F: st.Prefix.Below.F.consProc(grammar.NTSym(x), node), Below: st.Prefix.Below.Below},
		Suffix: st.Suffix.Below,
		Src:    st.Src, Consumed: st.Consumed,
		Unique: st.Unique, Certified: st.Certified, Trees: st.Trees, Mem: st.Mem,
	}
}

// forceClose ends the run deterministically: remaining input drains into
// one error span, the open stack unwinds into nested error nodes, and the
// result is Recovered with a tree covering the entire input.
func (r *recovery) forceClose(st *State, steps int) Result {
	pos := st.Src.Pos()
	leaves, gErr := r.drain(st)
	if gErr != nil {
		return r.errResult(gErr, st, steps)
	}
	if len(leaves) > 0 {
		r.diags = append(r.diags, diag.Diagnostic{
			Severity: diag.Error, Code: diag.CodeRepairSkip, Pos: diag.TokenPos(pos), Len: len(leaves),
			Message: fmt.Sprintf("discarded %d remaining token(s)", len(leaves)),
		})
	}
	t := st.Trees
	p, s := st.Prefix, st.Suffix
	pending := leaves
	var carry []tree.ID // the error node closing the frame above, once there is one
	//costar:allow governortick -- bounded by the suffix stack depth at the halt, already accounted by StepTick's stackDepth argument during the parse that built it
	for s != nil && s.Below != nil {
		// slices.Concat copies: a frame's trees may be an in-place run's
		// buffer, which nothing but that run appends to.
		carry = append(carry[:0], t.ErrorNode(s.F.Lhs, slices.Concat(p.F.Trees, pending, carry)))
		pending = nil
		p, s = p.Below, s.Below
	}
	root := t.ErrorNode(r.start, slices.Concat(p.F.Trees, pending, carry))
	r.gov.NotePeakWindow(st.Src.PeakWindow())
	return Result{
		Kind: Recovered, Tree: r.wrapRoot(t, root),
		Steps: steps, Consumed: st.Src.Pos(),
		Usage: r.gov.Usage(), Final: st,
	}
}

// wrapRoot folds buffered leading/trailing garbage around the recovered
// tree rooted at root so its source yield covers the whole input.
func (r *recovery) wrapRoot(t *tree.Table, root tree.ID) *tree.Tree {
	if len(r.leading) == 0 && len(r.trailing) == 0 {
		return t.Tree(root)
	}
	kids := make([]tree.ID, 0, len(r.leading)+1+len(r.trailing))
	kids = append(kids, r.leading...)
	kids = append(kids, root)
	kids = append(kids, r.trailing...)
	return t.Tree(t.ErrorNode(r.start, kids))
}

// errResult wraps a terminal error (cancellation, source failure, limit)
// observed mid-recovery.
func (r *recovery) errResult(e *Error, st *State, steps int) Result {
	r.gov.NotePeakWindow(st.Src.PeakWindow())
	return Result{
		Kind: ResultError, Err: e,
		Steps: steps, Consumed: st.Src.Pos(),
		Usage: r.gov.Usage(), Final: st,
	}
}

// expectedFor names the terminals that could have continued the parse at
// the failure point — the head symbol's own FIRST set (or itself).
func (r *recovery) expectedFor(st *State, head grammar.SymID) []string {
	if head.IsT() {
		return []string{grammar.T(r.c.TermName(head.Term())).String()}
	}
	return r.rowNames(r.an.FirstRowID(head.NT()))
}

// rowNames decodes a terminal bitset row into sorted display names.
func (r *recovery) rowNames(row []uint64) []string {
	var out []string
	for t := 0; t < r.c.NumTerms(); t++ {
		if analysis.RowHas(row, t) {
			out = append(out, grammar.T(r.c.TermName(grammar.TermID(t))).String())
		}
	}
	if analysis.RowHas(row, r.an.EOFCol()) {
		out = append(out, "<end of input>")
	}
	return out
}

// Diag converts a machine error into the unified diagnostic form, anchored
// at token index pos.
func (e *Error) Diag(pos int) diag.Diagnostic {
	code := diag.CodeInternal
	switch e.Kind {
	case ErrLeftRecursive:
		code = diag.CodeLeftRecursion
	case ErrSource:
		code = diag.CodeSource
	case ErrCanceled:
		code = diag.CodeCanceled
	case ErrDeadline:
		code = diag.CodeDeadline
	case ErrLimit:
		code = diag.CodeLimit
	}
	return diag.Errorf(code, diag.TokenPos(pos), "%s", e.Error())
}
