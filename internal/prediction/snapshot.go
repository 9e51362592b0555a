package prediction

// Snapshot/import layer for the SLL DFA cache: the piece of a parser
// session that is expensive to rebuild (it is warmed by parsing a corpus)
// and the reason ahead-of-time artifacts (internal/artifact) exist.
//
// A snapshot has the live cache's shape. The cache keeps one hash-consed
// frame table per generation, each frame a grammar position (Lhs, Prod,
// Dot) plus the ID of the frame below it, and a config names only its top
// frame; the snapshot carries one table of distinct frames of the same
// shape, each naming the frame beneath it by index. SLL stacks in one DFA
// share most of their tails (the configs of a warmed Python cache reach
// ~250 k frames, ~7 k of them distinct), so both store each frame once.
// Visited sets are not stored at all: move clears them and state identity
// excludes them.
//
// Import maps the snapshot's frame table straight onto the generation's:
// each frame is validated against the grammar and hash-consed, bottom
// first, so an imported stack gets the ID a parse would give it, and each
// state's key is rebuilt from its configs' frame IDs — never read from the
// snapshot — and filed under its hash exactly as Cache.intern does. An
// imported state is therefore the state a parse would intern, and later
// warm-up extends the imported DFA seamlessly.
//
// Frame IDs depend on the order frames were interned, which racing
// goroutines decide, so Export numbers by content only. Under their below
// links the frames the states' configs reach form a forest whose roots are
// stack bottoms. Export walks it in preorder, siblings in (Lhs, Prod, Dot)
// order — hash-consing makes siblings distinct — so each frame is numbered
// after the frame below it. Configs within a state then sort by alt and
// top frame index, halted configs last in their alt; states by anomaly
// flag and then their configs; edges by terminal with NoTerm first; starts
// by nonterminal. Identical warm-ups therefore produce byte-identical
// artifacts, and golden files are stable.
//
// Shared frames let a small snapshot name long stacks: one deep chain under
// many configs costs the snapshot a frame per level plus a config each. The
// stacks a snapshot names are therefore bounded by its size
// (stackSymbolsPerEntry), and Export refuses to write a snapshot that
// Import would refuse.

import (
	"cmp"
	"fmt"
	"slices"

	"costar/internal/grammar"
)

// FrameSnapshot is one suffix-stack frame as a grammar position plus the
// frame beneath it. Prod < 0 means the frame's Rest is empty (everything
// after the occurrence was consumed); otherwise Rest is Rhs(Prod)[Dot:].
// Below indexes CacheSnapshot.Frames and is always smaller than the
// frame's own index; -1 means the frame is the bottom of its stack.
type FrameSnapshot struct {
	Lhs   grammar.NTID
	Prod  int32
	Dot   int32
	Below int32
}

// ConfigSnapshot is one subparser configuration: its alternative and the
// index of its top frame in CacheSnapshot.Frames. Top -1 means the config
// is halted (simulated a complete parse).
type ConfigSnapshot struct {
	Alt int32
	Top int32
}

// StateSnapshot is one DFA state: its configs (in canonical interning
// order), anomaly flag, and outgoing edges as parallel (terminal, state
// index) arrays sorted by terminal. haltedAlts and uniqueAlt are derived
// facts and deliberately not stored — the import recomputes them.
type StateSnapshot struct {
	Anomalous  bool
	Configs    []ConfigSnapshot
	EdgeTerms  []int32
	EdgeStates []int32
}

// StartSnapshot maps a decision nonterminal to its start state's index.
type StartSnapshot struct {
	NT    grammar.NTID
	State int32
}

// CacheSnapshot is a full warmed-DFA snapshot: the frame table every
// config's stack is drawn from, every interned state, and the start-state
// table, with all cross-references by index.
type CacheSnapshot struct {
	Frames []FrameSnapshot
	Starts []StartSnapshot
	States []StateSnapshot
}

// stackSymbolsPerEntry bounds the stacks a snapshot's configs name. Count
// each frame of a config's stack as its nonterminal plus its remaining
// right-hand side; all configs together may name at most this many stack
// symbols per frame or config the snapshot stores. A warmed Python cache,
// the deepest bundled grammar, names 14.7 per entry.
const stackSymbolsPerEntry = 64

// stackBudget is the most stack symbols the configs of a snapshot with the
// given frame table and config count may name.
func stackBudget(frames, configs int) int64 {
	return stackSymbolsPerEntry * (int64(frames) + int64(configs))
}

// Export snapshots the cache's current generation. cg must be the compiled
// grammar the cache was warmed against. The snapshot's order depends on
// content only, never on the order states or frames were interned, so
// re-exporting an equal DFA yields an equal value.
func (c *Cache) Export(cg *grammar.Compiled) (CacheSnapshot, error) {
	gen := c.gen.Load()
	sts := gen.all()
	if len(sts) == 0 {
		return CacheSnapshot{}, nil
	}
	num, syms, frames, err := walkFrames(cg, &gen.frames, sts)
	if err != nil {
		return CacheSnapshot{}, err
	}
	// Each state's configs as alt<<32 | snapshot frame index, sorted, so a
	// halted config (haltedTop) comes last in its alt.
	type state struct {
		st        *dfaState
		anomalous int
		cfgs      []uint64
	}
	all := make([]state, len(sts))
	var (
		configs int
		named   int64 // stack symbols the configs name
	)
	for i, st := range sts {
		cfgs := make([]uint64, len(st.configs))
		for j, k := range st.configs {
			if top := uint32(k); top != haltedTop {
				named += syms[top]
				k = k>>32<<32 | uint64(num[top])
			}
			cfgs[j] = k
		}
		slices.Sort(cfgs)
		all[i] = state{st: st, cfgs: cfgs}
		if st.anomalous {
			all[i].anomalous = 1
		}
		configs += len(cfgs)
	}
	if budget := stackBudget(len(frames), configs); named > budget {
		return CacheSnapshot{}, fmt.Errorf("prediction: cache export: configs name %d stack symbols, more than the %d an import of %d frames and %d configs accepts", named, budget, len(frames), configs)
	}
	slices.SortFunc(all, func(a, b state) int {
		return cmp.Or(cmp.Compare(a.anomalous, b.anomalous), slices.Compare(a.cfgs, b.cfgs))
	})

	index := make(map[*dfaState]int32, len(all))
	for i, s := range all {
		index[s.st] = int32(i)
	}
	snap := CacheSnapshot{Frames: frames, States: make([]StateSnapshot, len(all))}
	for i, s := range all {
		ss := StateSnapshot{Anomalous: s.st.anomalous}
		if len(s.cfgs) > 0 {
			ss.Configs = make([]ConfigSnapshot, len(s.cfgs))
			for j, k := range s.cfgs {
				ss.Configs[j] = ConfigSnapshot{Alt: int32(k >> 32), Top: int32(uint32(k))}
			}
		}
		for k := range s.st.edges {
			target := s.st.edges[k].Load()
			if target == nil {
				continue
			}
			ti, ok := index[target]
			if !ok {
				return CacheSnapshot{}, fmt.Errorf("prediction: cache export: edge target not interned")
			}
			ss.EdgeTerms = append(ss.EdgeTerms, int32(k-1))
			ss.EdgeStates = append(ss.EdgeStates, ti)
		}
		snap.States[i] = ss
	}
	for nt := range gen.starts {
		st := gen.starts[nt].Load()
		if st == nil {
			continue
		}
		si, ok := index[st]
		if !ok {
			return CacheSnapshot{}, fmt.Errorf("prediction: cache export: start state not interned")
		}
		snap.Starts = append(snap.Starts, StartSnapshot{NT: grammar.NTID(nt), State: si})
	}
	return snap, nil
}

// walkFrames numbers the frames that the configs of sts reach, in content
// order: a preorder walk of the forest their below links form, from the
// stack bottoms, visiting siblings in (lhs, prod, dot) order. Indexed by
// generation frame ID, it returns each frame's snapshot index (num) and
// stack symbols to the bottom (per frame its nonterminal and its rest),
// and it checks that every position is one of cg's.
func walkFrames(cg *grammar.Compiled, t *genFrames, sts []*dfaState) (num []int32, syms []int64, frames []FrameSnapshot, err error) {
	// A frame is interned after the frame below it, so the highest top is
	// the highest frame ID reached.
	n := 0
	for _, st := range sts {
		for _, k := range st.configs {
			if top := uint32(k); top != haltedTop {
				n = max(n, int(top)+1)
			}
		}
	}
	type node struct {
		genFrame
		id int32
	}
	seen := make([]bool, n)
	nodes := make([]node, 0, n)
	for _, st := range sts {
		for _, k := range st.configs {
			for id := int32(uint32(k)); id >= 0 && !seen[id]; id = t.at(id).below {
				seen[id] = true
				nodes = append(nodes, node{t.at(id), id})
			}
		}
	}
	// Sorted by the frame below, each frame's children are one run in
	// content order: nodes[off[b+1]:off[b+2]] for frame b, the stack
	// bottoms (b = -1) first.
	slices.SortFunc(nodes, func(a, b node) int {
		return cmp.Or(cmp.Compare(a.below, b.below), cmp.Compare(a.lhs, b.lhs), cmp.Compare(a.prod, b.prod), cmp.Compare(a.dot, b.dot))
	})
	off := make([]int32, n+2)
	for _, nd := range nodes {
		off[nd.below+2]++
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}

	num, syms = make([]int32, n), make([]int64, n)
	frames = slices.Grow(frames, len(nodes))
	nProds := len(cg.Grammar().Prods)
	stack := make([]int32, 0, len(nodes)) // positions in nodes
	// push stacks the children of frame b so that they pop in order.
	push := func(b int32) {
		for i := off[b+2] - 1; i >= off[b+1]; i-- {
			stack = append(stack, i)
		}
	}
	push(-1)
	//costar:allow governortick -- every reached frame is pushed once, with its siblings, when the frame below it is visited, so the walk runs once per frame the states reach
	for len(stack) > 0 {
		nd := nodes[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		below, count := int32(-1), int64(1)
		if nd.prod >= 0 {
			if int(nd.prod) >= nProds || int(nd.dot) >= len(cg.Rhs(int(nd.prod))) {
				return nil, nil, nil, fmt.Errorf("prediction: cache export: frame position (%d, %d) is not in the grammar", nd.prod, nd.dot)
			}
			count += int64(len(cg.Rhs(int(nd.prod))) - int(nd.dot))
		}
		if nd.below >= 0 {
			below = num[nd.below]
			count += syms[nd.below]
		}
		num[nd.id], syms[nd.id] = int32(len(frames)), count
		frames = append(frames, FrameSnapshot{Lhs: nd.lhs, Prod: nd.prod, Dot: nd.dot, Below: below})
		push(nd.id)
	}
	return num, syms, frames, nil
}

// Import replaces the cache's generation with one rebuilt from snap,
// re-interning every state into cache-owned memory. cg must be the grammar
// the cache was made for. Every reference is bounds-checked against it —
// Import is the trust boundary for deserialized caches, so malformed
// snapshots yield an error and leave the cache untouched. Frames are
// hash-consed into the generation's table, and state keys, uniqueAlt, and
// haltedAlts are recomputed from the imported configs, so an imported
// state is content-addressed identically to a natively interned one and
// later warm-up seamlessly extends the imported DFA. Edges and starts fill
// their slots by the same compare-and-swap from nil that a parse uses, so
// a slot named twice fails the swap, and an edge out of a state without a
// row — one SLL answers at without reading a token — is refused.
func (c *Cache) Import(cg *grammar.Compiled, snap CacheSnapshot) error {
	if cg.NumTerms() != c.terms || cg.NumNTs() != c.nts {
		return fmt.Errorf("prediction: cache snapshot: grammar has %d terminals and %d nonterminals, the cache was made for %d and %d", cg.NumTerms(), cg.NumNTs(), c.terms, c.nts)
	}
	gen := c.newGen()
	n := len(snap.States)
	for i := range gen.shards {
		gen.shards[i].states = make(map[uint64]*dfaState, n/internShards+1)
	}
	// The generation is not published yet, so frames are hash-consed and
	// every state is carved from one shard's memory without locks; the
	// shards' tables file the states by key hash.
	ids, syms, err := gen.frames.importFrames(cg, snap.Frames)
	if err != nil {
		return err
	}
	configs := 0
	for _, ss := range snap.States {
		configs += len(ss.Configs)
	}
	// Every config charges its stack to this budget.
	left := stackBudget(len(snap.Frames), configs)
	mem := &gen.shards[0].mem
	sts := make([]*dfaState, n)
	for i, ss := range snap.States {
		key, err := mem.importKey(cg, ss.Configs, ids, syms, &left)
		if err != nil {
			return fmt.Errorf("state %d: %w", i, err)
		}
		h := keyHash(ss.Anomalous, key)
		sh := gen.shard(h)
		if sh.lookup(h, ss.Anomalous, key) != nil {
			return fmt.Errorf("prediction: cache snapshot: states %d duplicates an earlier state", i)
		}
		st := mem.newDFAState(key, ss.Anomalous, c.terms)
		sh.file(h, st)
		sts[i] = st
	}
	gen.nStates.Store(int64(n))
	for i, ss := range snap.States {
		if len(ss.EdgeTerms) != len(ss.EdgeStates) {
			return fmt.Errorf("prediction: cache snapshot: state %d has %d edge terms but %d targets", i, len(ss.EdgeTerms), len(ss.EdgeStates))
		}
		if len(ss.EdgeTerms) > 0 && sts[i].edges == nil {
			return fmt.Errorf("prediction: cache snapshot: state %d has edges, but SLL never leaves it by an edge", i)
		}
		for k, t := range ss.EdgeTerms {
			// NoTerm is a legitimate edge key: a token the grammar does not
			// mention drives a move to the dead state, and that edge is
			// cached like any other.
			if (t < 0 && grammar.TermID(t) != grammar.NoTerm) || int(t) >= cg.NumTerms() {
				return fmt.Errorf("prediction: cache snapshot: state %d edge terminal %d out of range", i, t)
			}
			si := ss.EdgeStates[k]
			if si < 0 || int(si) >= n {
				return fmt.Errorf("prediction: cache snapshot: state %d edge target %d out of range", i, si)
			}
			if !sts[i].edges[t+1].CompareAndSwap(nil, sts[si]) {
				return fmt.Errorf("prediction: cache snapshot: state %d has duplicate edge on terminal %d", i, t)
			}
		}
	}
	for _, se := range snap.Starts {
		if se.NT < 0 || int(se.NT) >= cg.NumNTs() {
			return fmt.Errorf("prediction: cache snapshot: start nonterminal %d out of range", se.NT)
		}
		if se.State < 0 || int(se.State) >= n {
			return fmt.Errorf("prediction: cache snapshot: start state %d out of range", se.State)
		}
		if !gen.starts[se.NT].CompareAndSwap(nil, sts[se.State]) {
			return fmt.Errorf("prediction: cache snapshot: duplicate start for nonterminal %d", se.NT)
		}
	}
	gen.nStarts.Store(int64(len(snap.Starts)))
	c.gen.Store(gen)
	return nil
}

// importFrames hash-conses the snapshot's frame table into t, validating
// every reference against cg, and returns each snapshot frame's ID in t
// and its stack symbols to the bottom. A frame may only sit on an earlier
// frame, so no stack walk can cycle. A frame with nothing left (Prod < 0)
// loses its position, as in a parse.
func (t *genFrames) importFrames(cg *grammar.Compiled, snaps []FrameSnapshot) ([]int32, []int64, error) {
	nProds := len(cg.Grammar().Prods)
	ids := make([]int32, len(snaps))
	syms := make([]int64, len(snaps))
	for i, f := range snaps {
		g := genFrame{lhs: f.Lhs, prod: -1, below: -1}
		syms[i] = 1
		if f.Prod >= 0 {
			if int(f.Prod) >= nProds {
				return nil, nil, fmt.Errorf("prediction: cache snapshot: frame %d: production %d out of range", i, f.Prod)
			}
			rhs := cg.Rhs(int(f.Prod))
			if f.Dot < 0 || int(f.Dot) >= len(rhs) {
				return nil, nil, fmt.Errorf("prediction: cache snapshot: frame %d: dot %d out of range for production %d", i, f.Dot, f.Prod)
			}
			if cg.Lhs(int(f.Prod)) != f.Lhs {
				return nil, nil, fmt.Errorf("prediction: cache snapshot: frame %d: lhs %d does not own production %d", i, f.Lhs, f.Prod)
			}
			g.prod, g.dot = f.Prod, f.Dot
			syms[i] += int64(len(rhs) - int(f.Dot))
		} else if f.Lhs < 0 || int(f.Lhs) >= cg.NumNTs() {
			return nil, nil, fmt.Errorf("prediction: cache snapshot: frame %d: nonterminal %d out of range", i, f.Lhs)
		}
		if f.Below < -1 || int(f.Below) >= i {
			return nil, nil, fmt.Errorf("prediction: cache snapshot: frame %d: below %d is not an earlier frame", i, f.Below)
		}
		if f.Below >= 0 {
			g.below = ids[f.Below]
			syms[i] += syms[f.Below]
		}
		ids[i] = t.intern(g)
	}
	return ids, syms, nil
}

// importKey builds a state's key in m from its snapshot configs, naming
// each config's top frame by its ID in the generation (ids) and charging
// the stack symbols it names (syms) to the import's budget, *left.
func (m *stateMem) importKey(cg *grammar.Compiled, snaps []ConfigSnapshot, ids []int32, syms []int64, left *int64) ([]uint64, error) {
	if len(snaps) == 0 {
		return nil, nil
	}
	nProds := len(cg.Grammar().Prods)
	key := m.keys.Make(len(snaps))
	for ci, cs := range snaps {
		if cs.Alt < 0 || int(cs.Alt) >= nProds {
			return nil, fmt.Errorf("config %d: alt %d out of range", ci, cs.Alt)
		}
		if cs.Top < -1 || int(cs.Top) >= len(ids) {
			return nil, fmt.Errorf("config %d: top frame %d outside the %d-frame table", ci, cs.Top, len(ids))
		}
		top := haltedTop
		if cs.Top >= 0 {
			if *left -= syms[cs.Top]; *left < 0 {
				return nil, fmt.Errorf("config %d: the configs' stacks name more than %d symbols per stored frame or config", ci, stackSymbolsPerEntry)
			}
			top = uint32(ids[cs.Top])
		}
		key = append(key, uint64(uint32(cs.Alt))<<32|uint64(top))
	}
	slices.Sort(key)
	return key, nil
}
