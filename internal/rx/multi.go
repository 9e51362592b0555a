package rx

import (
	"encoding/binary"
	"slices"
)

// MultiDFA matches a prioritized list of patterns simultaneously: one
// subset-construction DFA whose accepting states remember the
// lowest-numbered pattern that accepts there. This is the classic
// lexer-generator construction — maximal munch with rule priority on ties.
//
// Every state has a dense row of successors over the ASCII bytes, read with
// one load per byte (NextByte), the edge arrays for code points 0–127 that
// ANTLR's lexer DFA and nex's generated lexers keep. Transitions on other
// runes are sorted rune ranges per state, resolved by binary search (Next).
// The zero value is not usable; build one with CompileMulti.
type MultiDFA struct {
	// trans[s] are the outgoing ranges of state s, sorted by lo.
	trans [][]dfaEdge
	// ascii holds asciiRow successors per state: ascii[s*asciiRow+b] is the
	// state after byte b, or -1 when the automaton dies.
	ascii  []int32
	accept []int // accepting pattern index, or -1
	start  int
}

// asciiRow is the width of a state's byte row: one entry per ASCII byte.
const asciiRow = 0x80

type dfaEdge struct {
	lo, hi rune
	to     int
}

// CompileMulti builds a MultiDFA for the given patterns via Thompson
// construction and the subset construction. Lower indices take priority
// when two patterns accept the same longest prefix.
func CompileMulti(nodes []Node) *MultiDFA {
	n := &nfa{}
	super := n.newState()
	exits := make([]int, len(nodes))
	for i, node := range nodes {
		in, out := n.build(node)
		n.epsEdge(super, in)
		exits[i] = out
	}
	acceptRule := make([]int, len(n.eps)) // pattern accepting at an NFA state, or -1
	for s := range acceptRule {
		acceptRule[s] = -1
	}
	for i, out := range exits {
		acceptRule[out] = i
	}

	m := &MultiDFA{}
	// A subset state is named by its sorted NFA states, packed as uvarints.
	index := map[string]int{}
	var sets [][]int
	var key []byte
	intern := func(set []int) (int, bool) {
		key = key[:0]
		for _, s := range set {
			key = binary.AppendUvarint(key, uint64(s))
		}
		if id, ok := index[string(key)]; ok {
			return id, false
		}
		id := len(sets)
		index[string(key)] = id
		sets = append(sets, slices.Clone(set))
		m.trans = append(m.trans, nil)
		best := -1
		for _, s := range set {
			if r := acceptRule[s]; r >= 0 && (best < 0 || r < best) {
				best = r
			}
		}
		m.accept = append(m.accept, best)
		return id, true
	}
	closed := n.epsClosure(nil, []int{super})
	m.start, _ = intern(closed)
	work := []int{m.start}
	var (
		edges   []nfaEdge
		cuts    []rune
		targets []int
		row     []dfaEdge
	)
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		edges = edges[:0]
		for _, s := range sets[id] {
			edges = append(edges, n.edges[s]...)
		}
		if len(edges) == 0 {
			continue
		}
		cuts = cuts[:0]
		for _, e := range edges {
			cuts = append(cuts, e.lo, e.hi+1)
		}
		slices.Sort(cuts)
		cuts = slices.Compact(cuts)
		// The cuts ascend, so the row is built sorted by lo.
		row = row[:0]
		for i := 0; i < len(cuts)-1; i++ {
			lo, hiExcl := cuts[i], cuts[i+1]
			targets = targets[:0]
			for _, e := range edges {
				if e.lo <= lo && hiExcl-1 <= e.hi {
					targets = append(targets, e.to)
				}
			}
			if len(targets) == 0 {
				continue
			}
			closed = n.epsClosure(closed, targets)
			tid, fresh := intern(closed)
			if fresh {
				work = append(work, tid)
			}
			row = append(row, dfaEdge{lo: lo, hi: hiExcl - 1, to: tid})
		}
		m.trans[id] = slices.Clone(mergeEdges(row))
	}
	m.ascii = make([]int32, len(m.trans)*asciiRow)
	for s, es := range m.trans {
		r := m.ascii[s*asciiRow : (s+1)*asciiRow]
		for b := range r {
			r[b] = -1
		}
		for _, e := range es {
			if e.lo >= asciiRow {
				break
			}
			for b := e.lo; b <= e.hi && b < asciiRow; b++ {
				r[b] = int32(e.to)
			}
		}
	}
	return m
}

// mergeEdges joins adjacent ranges with the same target, in place.
func mergeEdges(es []dfaEdge) []dfaEdge {
	out := es[:0]
	for _, e := range es {
		if n := len(out); n > 0 && out[n-1].to == e.to && out[n-1].hi+1 == e.lo {
			out[n-1].hi = e.hi
			continue
		}
		out = append(out, e)
	}
	return out
}

// NumStates returns the number of DFA states.
func (m *MultiDFA) NumStates() int { return len(m.trans) }

// Start returns the DFA start state. Start, Next, NextByte and Accept
// expose the automaton step by step, which is all a longest-match loop
// needs, and the only shape an incremental lexer can use: its input arrives
// from a reader in chunks, never as one complete string.
func (m *MultiDFA) Start() int { return m.start }

// NextByte steps the DFA from state s on the ASCII byte b (b < 0x80) with
// one table load; it agrees with Next(s, rune(b)).
func (m *MultiDFA) NextByte(s int, b byte) int { return int(m.ascii[s*asciiRow+int(b)]) }

// Next steps the DFA from state s on rune r; a negative result means the
// automaton is dead (no pattern can extend the current prefix). It searches
// s's rune ranges; a scanner calls it only for runes NextByte cannot take.
func (m *MultiDFA) Next(s int, r rune) int {
	es := m.trans[s]
	lo, hi := 0, len(es)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		switch {
		case r < es[mid].lo:
			hi = mid - 1
		case r > es[mid].hi:
			lo = mid + 1
		default:
			return es[mid].to
		}
	}
	return -1
}

// Accept returns the index of the highest-priority (lowest-numbered)
// pattern accepting in state s, or -1 if s is not accepting. The start
// state accepts exactly when some pattern accepts ε.
func (m *MultiDFA) Accept(s int) int { return m.accept[s] }
