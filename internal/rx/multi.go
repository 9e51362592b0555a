package rx

import (
	"fmt"
	"sort"
)

// MultiDFA matches a prioritized list of patterns simultaneously: one
// subset-construction DFA whose accepting states remember the
// lowest-numbered pattern that accepts there. This is the classic
// lexer-generator construction — maximal munch with rule priority on ties.
//
// Transitions are stored as sorted rune ranges per state and resolved by
// binary search. The zero value is not usable; build one with CompileMulti.
type MultiDFA struct {
	// trans[s] are the outgoing ranges of state s, sorted by lo.
	trans  [][]dfaEdge
	accept []int // accepting pattern index, or -1
	start  int
}

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
	acceptRule := make(map[int]int)
	for i, node := range nodes {
		in, out := n.build(node)
		n.epsEdge(super, in)
		acceptRule[out] = i
	}
	start := n.epsClosure([]int{super})

	m := &MultiDFA{}
	index := map[string]int{}
	var sets [][]int
	intern := func(set []int) (int, bool) {
		key := fmt.Sprint(set)
		if id, ok := index[key]; ok {
			return id, false
		}
		id := len(sets)
		index[key] = id
		sets = append(sets, set)
		m.trans = append(m.trans, nil)
		best := -1
		for _, s := range set {
			if r, ok := acceptRule[s]; ok && (best < 0 || r < best) {
				best = r
			}
		}
		m.accept = append(m.accept, best)
		return id, true
	}
	startID, _ := intern(start)
	m.start = startID
	work := []int{startID}
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		set := sets[id]
		var edges []nfaEdge
		for _, s := range set {
			edges = append(edges, n.edges[s]...)
		}
		if len(edges) == 0 {
			continue
		}
		var cuts []rune
		for _, e := range edges {
			cuts = append(cuts, e.lo, e.hi+1)
		}
		sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
		cuts = dedupRunes(cuts)
		for i := 0; i < len(cuts)-1; i++ {
			lo, hiExcl := cuts[i], cuts[i+1]
			var targets []int
			for _, e := range edges {
				if e.lo <= lo && hiExcl-1 <= e.hi {
					targets = append(targets, e.to)
				}
			}
			if len(targets) == 0 {
				continue
			}
			sortInts(targets)
			targets = dedupInts(targets)
			closed := n.epsClosure(targets)
			tid, fresh := intern(closed)
			if fresh {
				work = append(work, tid)
			}
			m.trans[id] = append(m.trans[id], dfaEdge{lo: lo, hi: hiExcl - 1, to: tid})
		}
		sort.Slice(m.trans[id], func(a, b int) bool { return m.trans[id][a].lo < m.trans[id][b].lo })
		m.trans[id] = mergeEdges(m.trans[id])
	}
	return m
}

func dedupRunes(rs []rune) []rune {
	out := rs[:0]
	for i, r := range rs {
		if i == 0 || r != out[len(out)-1] {
			out = append(out, r)
		}
	}
	return out
}

func dedupInts(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

func mergeEdges(es []dfaEdge) []dfaEdge {
	var out []dfaEdge
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

// Start returns the DFA start state. Start, Next and Accept expose the
// automaton rune by rune, which is all a longest-match loop needs, and the
// only shape an incremental lexer can use: its input arrives from a reader
// in chunks, never as one complete string.
func (m *MultiDFA) Start() int { return m.start }

// Next steps the DFA from state s on rune r; a negative result means the
// automaton is dead (no pattern can extend the current prefix).
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
