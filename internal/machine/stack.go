// Package machine implements the CoStar stack machine of Section 3: machine
// states σ, the single-step transition function Step (consume / push /
// return / final, Section 3.3), the driver Multistep, the termination
// measure of Section 4 (stackScore and the lexicographic triple), and
// executable versions of the paper's machine-state invariants (Section 5).
//
// Step is the paper's transition function and is purely functional,
// mirroring the Gallina original: stacks are persistent linked lists,
// frames are copied on write, and each step produces a fresh state. Runs
// with no Mem, and observed runs, step that way; they are the reference
// the tests hold the production engine to, and the "CoStar" arm of
// Figure 10. A pooled run (a Mem and no observer) takes the same
// transitions in place on one State — the zipper idea of Edelmann et
// al.: each step rewrites a few words of one focused structure (see Mem).
// Unlike the Coq development, the machine runs on the compiled grammar
// (grammar.Compiled): stack frames hold dense symbol IDs, so the hot-path
// comparisons — consume's terminal match, the visited-set membership test —
// are integer operations, not the string compares the paper's §6.1
// identifies as CoStar's bottleneck. The imperative ALL(*) counterpart
// lives in internal/allstar and serves as the "ANTLR-style" performance
// baseline.
package machine

import (
	"strings"

	"costar/internal/grammar"
	"costar/internal/tree"
)

// PrefixFrame is one frame [α, f] of the prefix stack Φ: the symbols already
// matched in this frame and the parse trees derived for them, as IDs into
// the run's tree table (State.Trees). Both slices hold the oldest entry
// first, so a return hands Trees to the table as the node's children
// as is. A persistent step appends to a copy (consProc); an in-place run
// appends to the Mem's own buffer.
type PrefixFrame struct {
	Proc  []grammar.SymID // processed symbols α, in order
	Trees []tree.ID       // partial derivation f, in order
}

// PrefixStack is a stack of prefix frames; nil is invalid — a machine
// always has at least one frame. Step shares nodes persistently; an
// in-place run's nodes are its Mem's, one per depth.
type PrefixStack struct {
	F     PrefixFrame
	Below *PrefixStack
}

// SuffixFrame is one frame [β] of the suffix stack Ψ. Lhs is the open
// nonterminal whose right-hand-side remainder Rest is (grammar.NoNT for the
// bottom frame, which holds the start symbol).
//
// Note on representation: the paper's presentation leaves the open
// nonterminal X at the head of the caller frame until return; like the Coq
// development's SF constructor, we instead drop X from the caller at push
// time and annotate the new frame with it. The two views are isomorphic,
// and this one makes the stackScore lemmas (4.3/4.4) direct: a frame's
// unprocessed-symbol count is simply len(Rest).
type SuffixFrame struct {
	Lhs  grammar.NTID    // open nonterminal; NoNT only in the bottom frame
	Rest []grammar.SymID // unprocessed symbols β
}

// SuffixStack is a stack of suffix frames, shared like PrefixStack; nil is
// invalid inside a machine state but is used as the "below bottom"
// terminator.
type SuffixStack struct {
	F     SuffixFrame
	Below *SuffixStack
}

// Height returns the number of frames.
func (s *PrefixStack) Height() int {
	n := 0
	for ; s != nil; s = s.Below {
		n++
	}
	return n
}

// Height returns the number of frames.
func (s *SuffixStack) Height() int {
	n := 0
	for ; s != nil; s = s.Below {
		n++
	}
	return n
}

// TopSymbol returns the head of the top frame's unprocessed symbols, if any.
func (s *SuffixStack) TopSymbol() (grammar.SymID, bool) {
	if s == nil || len(s.F.Rest) == 0 {
		return 0, false
	}
	return s.F.Rest[0], true
}

// Unproc flattens the unprocessed symbols of the whole stack, top to
// bottom — the unproc() function of Figure 5/7. It is the sentential form
// the machine still has to match against the remaining tokens.
func (s *SuffixStack) Unproc() []grammar.SymID {
	var out []grammar.SymID
	for ; s != nil; s = s.Below {
		out = append(out, s.F.Rest...)
	}
	return out
}

// consProc returns a copy of the frame with symbol s and tree v appended
// to the processed accumulators. The capacity-limited reslices make each
// append copy, which keeps older states intact; frames are bounded by the
// grammar's longest right-hand side, so the copy is O(1) per grammar.
func (f PrefixFrame) consProc(s grammar.SymID, v tree.ID) PrefixFrame {
	return PrefixFrame{
		Proc:  append(f.Proc[:len(f.Proc):len(f.Proc)], s),
		Trees: append(f.Trees[:len(f.Trees):len(f.Trees)], v),
	}
}

// StringWith renders the suffix stack top-to-bottom, e.g. "[A d] [S]",
// decoding symbol IDs through the compiled grammar.
func (s *SuffixStack) StringWith(c *grammar.Compiled) string {
	var parts []string
	for ; s != nil; s = s.Below {
		head := ""
		if s.F.Lhs != grammar.NoNT {
			head = c.NTName(s.F.Lhs) + ": "
		}
		parts = append(parts, "["+head+c.FormString(s.F.Rest)+"]")
	}
	return strings.Join(parts, " ")
}

// StringWith renders the prefix stack top-to-bottom with tree summaries,
// reading the frames' trees from t.
func (s *PrefixStack) StringWith(c *grammar.Compiled, t *tree.Table) string {
	var parts []string
	for ; s != nil; s = s.Below {
		var ts []string
		for _, v := range s.F.Trees {
			ts = append(ts, t.Tree(v).String())
		}
		parts = append(parts, "["+strings.Join(ts, " ")+"]")
	}
	return strings.Join(parts, " ")
}
