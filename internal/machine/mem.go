package machine

import (
	"slices"

	"costar/internal/grammar"
	"costar/internal/tree"
)

// Mem is the scratch of an in-place run: one State, the stack nodes it
// steps on (one prefix and one suffix node per depth), and its visited
// set's overflow words. Multistep with a Mem and no OnStep observer steps
// that one State in place, so a step writes a few words and allocates
// nothing:
//
//   - push X advances the top suffix frame's Rest past X and takes the
//     nodes at the next depth, emptying their accumulators;
//   - consume appends the symbol and its leaf to the top prefix frame and
//     advances the top suffix frame's Rest;
//   - return builds the node from the top frame's trees and appends it to
//     the caller frame.
//
// The visited set is one bitset: push sets a bit, return clears it, and
// consume empties it. Runs without a Mem (Init, InitSource) and observed
// runs take the same transitions through the persistent Step.
//
// Lifetime contract (see DESIGN.md §5f):
//
//   - Everything in a Mem is scratch that the next run on it overwrites:
//     an in-place run halts in the Mem's state, and Result.Final points at
//     it. The caller must drop Result.Final, and every node and
//     accumulator reachable from it, before it starts another run on the
//     Mem or returns the Mem to a pool. The parser does.
//   - The run's tree table (State.Trees) is NOT scratch and not in the Mem:
//     the parse tree escapes into the caller's Result and keeps the table
//     alive. Reset drops the Mem's reference to it.
//   - The Mem owns every node and buffer an in-place run writes. A run that
//     starts from a state the Mem did not build (recovery's repaired
//     states are persistent heap values that share nodes with the halted
//     run) first copies it into the Mem's nodes, frame contents included
//     (adopt). An in-place run never appends into a span it did not carve.
//
// Nodes are carved in chunks that double the number carved so far, and
// every prefix node's accumulators start with room for the grammar's
// longest right-hand side, so a fresh Mem costs O(log depth) allocations
// and a warm one none.
//
// A Mem belongs to a single parse on a single goroutine, like the Governor.
type Mem struct {
	state  State
	levels []*level // levels[d] holds the nodes at stack depth d (0 = bottom)
	words  []uint64 // state.Visited's overflow words
	start  [1]grammar.SymID
	width  int // accumulator capacity of newly carved nodes
}

// level is one depth's pair of stack nodes. Their Below links are set when
// the level is carved: level d's nodes always sit on level d-1's.
type level struct {
	p PrefixStack
	s SuffixStack
}

// minLevels is the size of a Mem's first chunk of levels.
const minLevels = 64

// NewMem returns a fresh allocation context.
func NewMem() *Mem { return &Mem{} }

// Reset drops the Mem's reference to the run it last served — its state,
// and through it the tree table and the cursor — so an idle pooled Mem
// pins nothing of that parse. The nodes and their buffers stay for the
// next run.
func (m *Mem) Reset() { m.state = State{} }

// begin readies the Mem for a run over g's compiled form c and returns the
// visited set's overflow words, sized to c's nonterminals. Their contents
// are the last run's: the caller overwrites them.
func (m *Mem) begin(g *grammar.Grammar, c *grammar.Compiled) []uint64 {
	m.width = max(g.MaxRhsLen(), 1)
	n := max(0, (c.NumNTs()-64+63)/64)
	if cap(m.words) < n {
		m.words = make([]uint64, n)
	}
	return m.words[:n]
}

// grow carves levels until there are at least n.
func (m *Mem) grow(n int) {
	size := max(minLevels, len(m.levels), n-len(m.levels))
	w := m.width
	chunk := make([]level, size)
	syms := make([]grammar.SymID, size*w)
	trees := make([]tree.ID, size*w)
	m.levels = slices.Grow(m.levels, size)
	for i := range chunk {
		lv := &chunk[i]
		b := i * w
		lv.p.F = PrefixFrame{Proc: syms[b : b : b+w], Trees: trees[b : b : b+w]}
		if d := len(m.levels); d > 0 {
			below := m.levels[d-1]
			lv.p.Below, lv.s.Below = &below.p, &below.s
		}
		m.levels = append(m.levels, lv)
	}
}

// adopt makes st the Mem's in-place state and returns it. Frames copy into
// the per-depth nodes, accumulator contents included, from the top down
// to the first depth whose nodes st already shares: a repaired state
// shares everything below its repair with the halted run, so a repair
// costs the frames it rebuilt. The visited set copies into the Mem's
// words. A state whose stacks differ in height is not one the machine
// builds; adopt returns nil for it, and Multistep runs it persistently.
func (m *Mem) adopt(g *grammar.Grammar, st *State) *State {
	h := st.Suffix.Height()
	if h == 0 || st.Prefix.Height() != h {
		return nil
	}
	vis := st.Visited
	words := m.begin(g, st.C)
	clear(words[copy(words, vis.hi):]) // vis.hi may be words itself
	if h > len(m.levels) {
		m.grow(h)
	}
	p, s := st.Prefix, st.Suffix
	for d := h - 1; d >= 0; d-- {
		lv := m.levels[d]
		if p == &lv.p && s == &lv.s {
			break
		}
		lv.p.F.Proc = append(lv.p.F.Proc[:0], p.F.Proc...)
		lv.p.F.Trees = append(lv.p.F.Trees[:0], p.F.Trees...)
		lv.s.F = s.F
		p, s = p.Below, s.Below
	}
	top := m.levels[h-1]
	m.state = *st
	m.state.Prefix, m.state.Suffix = &top.p, &top.s
	m.state.Visited = NTSet{lo: vis.lo, hi: words}
	m.state.Mem = m
	return &m.state
}

// step takes one transition on the in-place state st, whose stacks are
// depth frames high: Step's dispatch and checks, with the next state
// written over st instead of built beside it. It returns the operation
// taken, or OpNone after writing the halting outcome to *halt.
func (m *Mem) step(g *grammar.Grammar, pred Predictor, st *State, depth int, halt *StepResult) OpKind {
	top := st.Suffix
	if len(top.F.Rest) == 0 {
		if top.Below == nil {
			*halt = finalize(st)
			return OpNone
		}
		node, ok := returnNode(st, halt)
		if !ok {
			return OpNone
		}
		x := top.F.Lhs
		st.Prefix, st.Suffix = st.Prefix.Below, top.Below
		f := &st.Prefix.F
		f.Proc = append(f.Proc, grammar.NTSym(x))
		f.Trees = append(f.Trees, node)
		st.Visited.unset(x)
		return OpReturn
	}
	head := top.F.Rest[0]
	if head.IsT() {
		leaf, ok := consumeLeaf(st, head.Term(), halt)
		if !ok {
			return OpNone
		}
		f := &st.Prefix.F
		f.Proc = append(f.Proc, head)
		f.Trees = append(f.Trees, leaf)
		top.F.Rest = top.F.Rest[1:]
		st.Consumed++
		st.Visited.empty()
		return OpConsume
	}
	x := head.NT()
	rhs, ambig, ok := predictRhs(g, pred, st, x, halt)
	if !ok {
		return OpNone
	}
	top.F.Rest = top.F.Rest[1:]
	if depth >= len(m.levels) {
		m.grow(depth + 1)
	}
	lv := m.levels[depth]
	lv.p.F.Proc, lv.p.F.Trees = lv.p.F.Proc[:0], lv.p.F.Trees[:0]
	lv.s.F = SuffixFrame{Lhs: x, Rest: rhs}
	st.Prefix, st.Suffix = &lv.p, &lv.s
	st.Visited.set(x)
	st.Unique = st.Unique && !ambig
	return OpPush
}
