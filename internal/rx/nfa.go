package rx

import "slices"

// Thompson NFA construction. States are integers; each state owns ε-edges
// and at most a small set of range-labeled edges.

type nfaEdge struct {
	lo, hi rune
	to     int
}

type nfa struct {
	// eps[s] lists ε-successors of s; edges[s] lists labeled successors.
	eps   [][]int
	edges [][]nfaEdge

	// epsClosure's reusable visited set and work stack.
	mark  []uint32
	gen   uint32
	stack []int
}

func (n *nfa) newState() int {
	n.eps = append(n.eps, nil)
	n.edges = append(n.edges, nil)
	return len(n.eps) - 1
}

func (n *nfa) epsEdge(from, to int) { n.eps[from] = append(n.eps[from], to) }

func (n *nfa) rangeEdge(from int, r Range, to int) {
	n.edges[from] = append(n.edges[from], nfaEdge{lo: r.Lo, hi: r.Hi, to: to})
}

// build compiles node into the NFA, returning (entry, exit) states.
func (n *nfa) build(node Node) (int, int) {
	switch node := node.(type) {
	case Class:
		in, out := n.newState(), n.newState()
		for _, r := range node.normalized() {
			n.rangeEdge(in, r, out)
		}
		return in, out
	case Empty:
		in, out := n.newState(), n.newState()
		n.epsEdge(in, out)
		return in, out
	case Concat:
		if len(node.Parts) == 0 {
			return n.build(Empty{})
		}
		in, cur := n.build(node.Parts[0])
		for _, p := range node.Parts[1:] {
			pin, pout := n.build(p)
			n.epsEdge(cur, pin)
			cur = pout
		}
		return in, cur
	case Alt:
		in, out := n.newState(), n.newState()
		for _, a := range node.Alts {
			ain, aout := n.build(a)
			n.epsEdge(in, ain)
			n.epsEdge(aout, out)
		}
		return in, out
	case Star:
		in, out := n.newState(), n.newState()
		iin, iout := n.build(node.Inner)
		n.epsEdge(in, iin)
		n.epsEdge(in, out)
		n.epsEdge(iout, iin)
		n.epsEdge(iout, out)
		return in, out
	case Plus:
		iin, iout := n.build(node.Inner)
		out := n.newState()
		n.epsEdge(iout, iin)
		n.epsEdge(iout, out)
		return iin, out
	case Opt:
		in, out := n.newState(), n.newState()
		iin, iout := n.build(node.Inner)
		n.epsEdge(in, iin)
		n.epsEdge(iout, out)
		n.epsEdge(in, out)
		return in, out
	default:
		panic("rx: unknown AST node")
	}
}

// epsClosure writes into dst the ε-closure of set, sorted and
// deduplicated, and returns it. The visited set is the generation-stamped
// mark slice: state s is in the closure being built when mark[s] == gen, so
// each call empties the set by bumping gen instead of allocating one.
func (n *nfa) epsClosure(dst, set []int) []int {
	if len(n.mark) < len(n.eps) {
		n.mark = make([]uint32, len(n.eps))
	}
	if n.gen++; n.gen == 0 { // wrapped: stale stamps could collide
		clear(n.mark)
		n.gen = 1
	}
	out, stack := dst[:0], n.stack[:0]
	for _, s := range set {
		if n.mark[s] != n.gen {
			n.mark[s] = n.gen
			out = append(out, s)
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range n.eps[s] {
			if n.mark[t] != n.gen {
				n.mark[t] = n.gen
				out = append(out, t)
				stack = append(stack, t)
			}
		}
	}
	n.stack = stack
	slices.Sort(out)
	return out
}
