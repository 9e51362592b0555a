package machine

import (
	"fmt"

	"costar/internal/grammar"
	"costar/internal/tree"
)

// CheckStacksWf is the executable StacksWf_I invariant of Figure 4. It
// verifies that:
//
//   - the prefix and suffix stacks have equal height;
//   - the bottom suffix frame carries no open nonterminal, and the bottom
//     pair of frames holds exactly the start symbol (split between processed
//     and unprocessed parts) — WfInit/WfFinal;
//   - every upper pair of frames holds a complete right-hand side for its
//     open nonterminal, where the symbols already transferred to a child
//     frame are represented by the child's open nonterminal — WfUpper;
//   - in every prefix frame, the processed symbols and trees agree in
//     number, and each tree's root matches its processed symbol.
//
// It returns nil when the invariant holds. Lemma 5.2 proves it is preserved
// by every step; TestStacksWfPreserved replays that proof dynamically.
// The check runs on compiled symbol IDs and only decodes names when
// composing an error message (i.e. never on a healthy run).
func CheckStacksWf(g *grammar.Grammar, st *State) error {
	c := st.C
	ph, sh := st.Prefix.Height(), st.Suffix.Height()
	if ph != sh {
		return fmt.Errorf("stack heights differ: prefix %d, suffix %d", ph, sh)
	}
	p, s := st.Prefix, st.Suffix
	var above *SuffixFrame
	for level := 0; s != nil; level++ {
		if err := checkPrefixFrame(c, st.Trees, p.F); err != nil {
			return fmt.Errorf("prefix frame %d: %w", level, err)
		}
		// Reconstruct the full sentential form this frame is processing:
		// processed symbols, then (if a child frame is open above) the
		// child's nonterminal occupying the in-progress position, then the
		// unprocessed remainder.
		form := append([]grammar.SymID(nil), p.F.Proc...) // never append into the frame's own buffer
		if above != nil {
			form = append(form, grammar.NTSym(above.Lhs))
		}
		form = append(form, s.F.Rest...)

		if s.Below == nil {
			// Bottom frame: WfInit / WfFinal — holds only the start symbol.
			if s.F.Lhs != grammar.NoNT {
				return fmt.Errorf("bottom suffix frame has open nonterminal %s", c.NTName(s.F.Lhs))
			}
			if len(form) != 1 || form[0] != grammar.NTSym(st.Start) {
				return fmt.Errorf("bottom frames hold %s, want exactly the start symbol %s",
					c.FormString(form), c.NTName(st.Start))
			}
		} else {
			// Upper frame: WfUpper — form must be a right-hand side of the
			// frame's open nonterminal.
			if s.F.Lhs == grammar.NoNT {
				return fmt.Errorf("non-bottom suffix frame %d has no open nonterminal", level)
			}
			if !isRhsOf(c, s.F.Lhs, form) {
				return fmt.Errorf("frame %d holds %s, which is not a right-hand side of %s",
					level, c.FormString(form), c.NTName(s.F.Lhs))
			}
		}
		above = &s.F
		p, s = p.Below, s.Below
	}
	return nil
}

func checkPrefixFrame(c *grammar.Compiled, t *tree.Table, f PrefixFrame) error {
	if len(f.Proc) != len(f.Trees) {
		return fmt.Errorf("%d processed symbols vs %d trees", len(f.Proc), len(f.Trees))
	}
	for i, sym := range f.Proc {
		if got := t.Tree(f.Trees[i]).Symbol(); got != c.SymOf(sym) {
			return fmt.Errorf("tree %d roots %s but processed symbol is %s", i, got, c.SymOf(sym))
		}
	}
	return nil
}

func isRhsOf(c *grammar.Compiled, nt grammar.NTID, form []grammar.SymID) bool {
	for _, i := range c.ProdsFor(nt) {
		if idsEqual(c.Rhs(i), form) {
			return true
		}
	}
	return false
}

func idsEqual(a, b []grammar.SymID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CheckTrees validates every partial parse tree on the prefix stack against
// the grammar: each tree must be a correct derivation of its own yield.
// Together with the final yield check in the parser, this gives the
// executable version of the unique/ambiguous partial-derivation invariants
// (Figures 5 and 6) that the test suite exercises.
func CheckTrees(g *grammar.Grammar, st *State) error {
	level := 0
	for p := st.Prefix; p != nil; p = p.Below {
		for i, id := range p.F.Trees {
			v := st.Trees.Tree(id)
			if err := tree.Validate(g, v.Symbol(), v, v.Yield()); err != nil {
				return fmt.Errorf("frame %d, tree %d: %w", level, i, err)
			}
		}
		level++
	}
	return nil
}
