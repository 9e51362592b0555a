package machine

import (
	"costar/internal/arena"
	"costar/internal/grammar"
	"costar/internal/tree"
)

// Mem is the machine's allocation context: slab arenas backing the values a
// run produces in O(nodes) quantity — states, stack nodes, the frames'
// processed-symbol and partial-forest accumulators (tree IDs, no pointers),
// visited-set overflow words. With a Mem attached a run costs O(slabs) heap
// allocations; without one (a nil *Mem everywhere) every helper falls back
// to plain allocation, so the functional machine API and its tests are
// unchanged.
//
// Lifetime contract (see DESIGN.md §5f):
//
//   - Everything in a Mem is scratch: it dies when the caller drops the
//     machine Result's Final state. Reset recycles it. A pooled Mem must
//     therefore never be Reset (or returned to a pool) while a *State,
//     stack node, or NTSet from the previous run is still reachable — the
//     parser drops Result.Final before releasing its Mem.
//   - The run's tree table (State.Trees) is NOT scratch and not in the Mem:
//     the parse tree escapes into the caller's Result and keeps the table
//     alive. Reset clears the states that referenced it, which detaches it;
//     the next run starts a table of its own.
//   - A run is linear (see retire): Multistep with no OnStep observer
//     recycles each stepped state and the scratch the step replaced, so
//     the arenas grow with the stack depth, not the step count. Only the
//     current state — and, at the halt, Result.Final — stays valid.
//
// A Mem belongs to a single parse on a single goroutine, like the Governor.
type Mem struct {
	states arena.Arena[State]
	prefix arena.Arena[PrefixStack]
	suffix arena.Arena[SuffixStack]
	syms   arena.Slab[grammar.SymID]
	acc    arena.Slab[tree.ID] // PrefixFrame.Trees accumulators
	words  arena.Slab[uint64]  // NTSet overflow words

	// Retired scratch, drawn from before the arenas above are bumped.
	spare      *State
	freePrefix *PrefixStack // linked through Below
	freeSuffix *SuffixStack // linked through Below
	freeSyms   freeSpans[grammar.SymID]
	freeAcc    freeSpans[tree.ID]
	freeWords  freeSpans[uint64]
}

// NewMem returns a fresh allocation context.
func NewMem() *Mem { return &Mem{} }

// Reset recycles the scratch arenas for the next run. Used prefixes are
// zeroed, so an idle pooled Mem pins no memory from the parse it last
// served — in particular not the tree table its states referenced.
func (m *Mem) Reset() {
	m.states.Reset()
	m.prefix.Reset()
	m.suffix.Reset()
	m.syms.Reset()
	m.acc.Reset()
	m.words.Reset()
	m.spare, m.freePrefix, m.freeSuffix = nil, nil, nil
	m.freeSyms.reset()
	m.freeAcc.reset()
	m.freeWords.reset()
}

func (m *Mem) newState(v State) *State {
	if m == nil {
		st := v
		return &st
	}
	if st := m.spare; st != nil {
		m.spare = nil
		*st = v
		return st
	}
	return m.states.New(v)
}

func (m *Mem) pushPrefix(f PrefixFrame, below *PrefixStack) *PrefixStack {
	if m == nil {
		return &PrefixStack{F: f, Below: below}
	}
	if n := m.freePrefix; n != nil {
		m.freePrefix = n.Below
		*n = PrefixStack{F: f, Below: below}
		return n
	}
	return m.prefix.New(PrefixStack{F: f, Below: below})
}

func (m *Mem) pushSuffix(f SuffixFrame, below *SuffixStack) *SuffixStack {
	if m == nil {
		return &SuffixStack{F: f, Below: below}
	}
	if n := m.freeSuffix; n != nil {
		m.freeSuffix = n.Below
		*n = SuffixStack{F: f, Below: below}
		return n
	}
	return m.suffix.New(SuffixStack{F: f, Below: below})
}

func (m *Mem) symSpan(n int) []grammar.SymID {
	if m == nil {
		return make([]grammar.SymID, 0, n)
	}
	if s, ok := m.freeSyms.take(n); ok {
		return s
	}
	return m.syms.Make(n)
}

func (m *Mem) accSpan(n int) []tree.ID {
	if m == nil {
		return make([]tree.ID, 0, n)
	}
	if s, ok := m.freeAcc.take(n); ok {
		return s
	}
	return m.acc.Make(n)
}

// addVisited is s.AddIn with the copied overflow words carved from m.
func (m *Mem) addVisited(s NTSet, n grammar.NTID) NTSet {
	if m == nil || n < 64 {
		return s.AddIn(nil, n)
	}
	return s.addHi(m.wordSpan(s.addWidth(n)), n)
}

// removeVisited is s.RemoveIn with the copied overflow words carved from m.
func (m *Mem) removeVisited(s NTSet, n grammar.NTID) NTSet {
	if m == nil || n < 64 || !s.Contains(n) {
		return s.RemoveIn(nil, n)
	}
	return s.removeHi(m.wordSpan(len(s.hi)), n)
}

func (m *Mem) wordSpan(n int) []uint64 {
	if s, ok := m.freeWords.take(n); ok {
		return s[:n]
	}
	return m.words.Make(n)[:n]
}

// consProcIn is PrefixFrame.consProc with the copies carved from m.
func (m *Mem) consProcIn(f PrefixFrame, s grammar.SymID, v tree.ID) PrefixFrame {
	proc := append(m.symSpan(len(f.Proc)+1), s)
	proc = append(proc, f.Proc...)
	trees := append(m.accSpan(len(f.Trees)+1), v)
	trees = append(trees, f.Trees...)
	return PrefixFrame{Proc: proc, Trees: trees}
}

// retire recycles what the continuing step st → next (taken by op) left
// unreachable: st itself, the suffix node the step replaced, the prefix
// nodes it replaced (one on consume, two on return) with their Proc and
// Trees accumulator spans, and st's visited-set overflow words when next
// no longer shares them. Everything else st reaches is shared with next.
//
// Retiring is sound only in a linear run, where nothing but next is read
// after the step: Multistep calls it only when no OnStep observer can keep
// st, LL prediction walks the machine's suffix stack only for the duration
// of Predict, and Cache.intern deep-copies what the SLL cache keeps. A run
// never retires its final state, so Result.Final and everything reachable
// from it stay valid until Reset. A nil m (no Mem) retires nothing.
func (m *Mem) retire(st, next *State, op OpKind) {
	if m == nil {
		return
	}
	switch op {
	case OpConsume:
		m.retirePrefix(st.Prefix)
	case OpReturn:
		below := st.Prefix.Below
		m.retirePrefix(st.Prefix)
		m.retirePrefix(below)
	}
	st.Suffix.Below, m.freeSuffix = m.freeSuffix, st.Suffix
	if hi := st.Visited.hi; len(hi) > 0 && (len(next.Visited.hi) == 0 || &next.Visited.hi[0] != &hi[0]) {
		m.freeWords.put(hi)
	}
	m.spare = st
}

// retirePrefix frees n and its spans. Retired nodes and states keep their
// stale fields: every reuse overwrites them whole.
func (m *Mem) retirePrefix(n *PrefixStack) {
	m.freeSyms.put(n.F.Proc)
	m.freeAcc.put(n.F.Trees)
	n.Below, m.freePrefix = m.freePrefix, n
}

// freeSpans holds retired exact-capacity spans, bucketed by capacity.
type freeSpans[T any] struct{ byCap [][][]T }

// take returns a retired span of length 0 and capacity exactly n.
func (f *freeSpans[T]) take(n int) ([]T, bool) {
	if n < len(f.byCap) {
		if l := f.byCap[n]; len(l) > 0 {
			f.byCap[n] = l[:len(l)-1]
			return l[len(l)-1][:0], true
		}
	}
	return nil, false
}

// put retires s, which nothing may reference any more.
func (f *freeSpans[T]) put(s []T) {
	n := cap(s)
	if n == 0 {
		return
	}
	if n >= len(f.byCap) {
		f.byCap = append(f.byCap, make([][][]T, n+1-len(f.byCap))...)
	}
	f.byCap[n] = append(f.byCap[n], s)
}

// reset empties every bucket, keeping the buckets' capacity.
func (f *freeSpans[T]) reset() {
	for i, l := range f.byCap {
		clear(l[:cap(l)])
		f.byCap[i] = l[:0]
	}
}
