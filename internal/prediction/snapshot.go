package prediction

// Snapshot/import layer for the SLL DFA cache: the piece of a parser
// session that is expensive to rebuild (it is warmed by parsing a corpus)
// and the reason ahead-of-time artifacts (internal/artifact) exist.
//
// The cache's content-addressed design makes it snapshot-friendly: a
// dfaState's identity is a pure function of its configs, so the snapshot
// stores configs as grammar positions and the import re-derives keys,
// uniqueAlt, and haltedAlts instead of trusting serialized copies. States
// keep no key, so Export re-derives each one to order the states, and
// Import files every state under its re-derived key's hash exactly as
// Cache.intern does.
//
// Stacks are stored once: the snapshot carries one table of distinct
// frames, each naming the frame beneath it by index, and a config names
// only its top frame. SLL stacks in one DFA share most of their tails (the
// configs of a warmed Python cache reach ~250 k frames, ~7 k of them
// distinct), and the import rebuilds the table as one span of linked nodes that every
// imported config points into, so imported states share tails the way the
// paper's persistent lists do. Visited sets are not stored at all: move
// clears them and state identity excludes them, so an interned config's
// visited set is never read.
//
// Two invariants make the grammar-position encoding mandatory rather than
// a size optimization:
//
//   - Frame Rest slices must alias the compiled production arrays
//     (prediction's closure dedup keys on the address of Rest's first
//     element — subparser.go's dedupKey). A snapshot that serialized the
//     symbols themselves would import states whose configs never merge
//     with natively built ones, silently degrading closure to exponential
//     on some grammars. Every Rest is therefore stored as (Prod, Dot) and
//     rebuilt as Rhs(Prod)[Dot:].
//
//   - Imported states must be owned by the cache (the §5f lifetime
//     contract): the frame table and the configs are carved from the new
//     generation's stateMem slabs, where Cache.intern copies scratch on the
//     cold path, so an imported generation pins no decoder memory.
//
// Export is deterministic (states sorted by canonical key, edges by
// terminal with NoTerm first, starts by nonterminal — the slot order of
// edge rows and start slots — and frames numbered in the order the sorted
// states first reach them) so that identical warm-ups produce
// byte-identical artifacts and golden files are stable.
//
// Shared frames let a small snapshot name long stacks: one deep chain under
// many configs costs the snapshot a frame per level plus a config each, but
// Import serializes every config's whole stack into its state's key. The
// stacks a snapshot names are therefore bounded by its size
// (stackSymbolsPerEntry), and Export refuses to write a snapshot that
// Import would refuse.

import (
	"fmt"
	"sort"

	"costar/internal/grammar"
	"costar/internal/machine"
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
// right-hand side, which is what a state key serializes per frame; all
// configs together may name at most this many stack symbols per frame or
// config the snapshot stores. A warmed Python cache, the deepest bundled
// grammar, names 14.7 per entry.
const stackSymbolsPerEntry = 64

// stackBudget is the most stack symbols the configs of a snapshot with the
// given frame table and config count may name.
func stackBudget(frames, configs int) int64 {
	return stackSymbolsPerEntry * (int64(frames) + int64(configs))
}

// restPos locates a compiled RHS suffix: Rest == Rhs(prod)[dot:].
type restPos struct {
	prod, dot int32
}

// restIndex maps the address of each compiled RHS element to its grammar
// position, inverting the aliasing that pins frames to productions.
func restIndex(cg *grammar.Compiled) map[*grammar.SymID]restPos {
	n := len(cg.Grammar().Prods)
	idx := make(map[*grammar.SymID]restPos)
	for i := 0; i < n; i++ {
		rhs := cg.Rhs(i)
		for d := range rhs {
			idx[&rhs[d]] = restPos{prod: int32(i), dot: int32(d)}
		}
	}
	return idx
}

// Export snapshots the cache's current generation. cg must be the compiled
// grammar the cache was warmed against. The snapshot is deterministic:
// re-exporting an identical cache yields an identical value.
func (c *Cache) Export(cg *grammar.Compiled) (CacheSnapshot, error) {
	gen := c.gen.Load()
	sts := gen.all()
	sortByKey(sts)
	index := make(map[*dfaState]int32, len(sts))
	for i, st := range sts {
		index[st] = int32(i)
	}

	var snap CacheSnapshot
	if len(sts) == 0 {
		return snap, nil
	}
	ft := frameTable{cg: cg, pos: restIndex(cg), ids: make(map[FrameSnapshot]int32)}
	snap.States = make([]StateSnapshot, len(sts))
	var (
		configs int
		named   int64 // stack symbols the configs name
	)
	for i, st := range sts {
		ss := StateSnapshot{Anomalous: st.anomalous}
		if len(st.configs) > 0 {
			ss.Configs = make([]ConfigSnapshot, len(st.configs))
			for j, cfg := range st.configs {
				top, err := ft.number(cfg.stack)
				if err != nil {
					return CacheSnapshot{}, err
				}
				if top >= 0 {
					named += ft.syms[top]
				}
				ss.Configs[j] = ConfigSnapshot{Alt: int32(cfg.alt), Top: top}
			}
			configs += len(st.configs)
		}
		for k := range st.edges {
			target := st.edges[k].Load()
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
	if budget := stackBudget(len(ft.frames), configs); named > budget {
		return CacheSnapshot{}, fmt.Errorf("prediction: cache export: configs name %d stack symbols, more than the %d an import of %d frames and %d configs accepts", named, budget, len(ft.frames), configs)
	}
	snap.Frames = ft.frames

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

// sortByKey orders states by their canonical keys, re-derived from each
// state's configs. keyBuf.build may reorder equal configs in place, so each
// state's configs are copied first: a published state is never written.
func sortByKey(sts []*dfaState) {
	var (
		kb  keyBuf
		tmp []config
	)
	keys := make(map[*dfaState]string, len(sts))
	for _, st := range sts {
		tmp = append(tmp[:0], st.configs...)
		keys[st] = string(kb.build(st.anomalous, tmp))
	}
	sort.Slice(sts, func(i, j int) bool { return keys[sts[i]] < keys[sts[j]] })
}

// frameTable builds a snapshot's frame table: every distinct frame once,
// numbered after the frames beneath it.
type frameTable struct {
	cg     *grammar.Compiled
	pos    map[*grammar.SymID]restPos
	ids    map[FrameSnapshot]int32 // frame content (Below included) → index
	frames []FrameSnapshot
	syms   []int64 // per frame: stack symbols from it to the bottom
}

// number returns the table index of s's top frame, -1 for a halted
// config's empty stack. The tail is numbered first, and a frame whose
// position and tail are already in the table is reused, so each distinct
// stack suffix is stored once and every Below precedes its frame.
func (ft *frameTable) number(s *machine.SuffixStack) (int32, error) {
	if s == nil {
		return -1, nil
	}
	below, err := ft.number(s.Below)
	if err != nil {
		return 0, err
	}
	f := FrameSnapshot{Lhs: s.F.Lhs, Prod: -1, Below: below}
	if rest := s.F.Rest; len(rest) > 0 {
		p, ok := ft.pos[&rest[0]]
		if !ok {
			return 0, fmt.Errorf("prediction: cache export: frame rest does not alias a compiled production")
		}
		if len(rest) != len(ft.cg.Rhs(int(p.prod)))-int(p.dot) {
			return 0, fmt.Errorf("prediction: cache export: frame rest is not a production suffix")
		}
		f.Prod, f.Dot = p.prod, p.dot
	}
	id, ok := ft.ids[f]
	if !ok {
		id = int32(len(ft.frames))
		ft.frames = append(ft.frames, f)
		ft.ids[f] = id
		syms := int64(1 + len(s.F.Rest))
		if below >= 0 {
			syms += ft.syms[below]
		}
		ft.syms = append(ft.syms, syms)
	}
	return id, nil
}

// Import replaces the cache's generation with one rebuilt from snap,
// re-interning every state into cache-owned heap memory. cg must be the
// grammar the cache was made for. Every reference is bounds-checked
// against it — Import is the trust boundary for deserialized caches, so
// malformed snapshots yield an error and leave the cache untouched. State
// keys, uniqueAlt, and haltedAlts are recomputed from the reconstructed
// configs, so an imported state is content-addressed identically to a
// natively interned one and later warm-up seamlessly extends the imported
// DFA. Edges and starts fill their slots by the same compare-and-swap from
// nil that a parse uses, so a slot named twice fails the swap, and an edge
// out of a state without a row — one SLL answers at without reading a
// token — is refused.
func (c *Cache) Import(cg *grammar.Compiled, snap CacheSnapshot) error {
	if cg.NumTerms() != c.terms || cg.NumNTs() != c.nts {
		return fmt.Errorf("prediction: cache snapshot: grammar has %d terminals and %d nonterminals, the cache was made for %d and %d", cg.NumTerms(), cg.NumNTs(), c.terms, c.nts)
	}
	gen := c.newGen()
	n := len(snap.States)
	for i := range gen.shards {
		gen.shards[i].states = make(map[uint64]*dfaState, n/internShards+1)
	}
	// The generation is not published yet, so every state is carved from
	// one shard's memory without locks; the shards' tables file them by key
	// hash.
	mem := &gen.shards[0].mem
	frames, syms, err := mem.importFrames(cg, snap.Frames)
	if err != nil {
		return err
	}
	configs := 0
	for _, ss := range snap.States {
		configs += len(ss.Configs)
	}
	// Every config charges its stack to this budget before any key walks
	// that stack.
	left := stackBudget(len(snap.Frames), configs)
	sts := make([]*dfaState, n)
	var (
		keys         keyBuf
		alts, halted []int
	)
	for i, ss := range snap.States {
		cfgs, err := mem.importConfigs(cg, ss.Configs, frames, syms, &left)
		if err != nil {
			return fmt.Errorf("state %d: %w", i, err)
		}
		// The key is re-derived from the imported configs — never trusted
		// from the snapshot — so a rebuilt state lands on exactly the
		// identity it would have been interned under natively.
		h := keyHash(keys.build(ss.Anomalous, cfgs))
		sh := gen.shard(h)
		if sh.lookup(h, ss.Anomalous, cfgs) != nil {
			return fmt.Errorf("prediction: cache snapshot: states %d duplicates an earlier state", i)
		}
		alts, halted = summarizeAlts(cfgs, alts[:0], halted[:0])
		st := mem.newDFAState(cfgs, alts, mem.copyInts(halted), ss.Anomalous, c.terms)
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

// importFrames rebuilds the snapshot's frame table in m as one span of
// stack nodes linked through Below, validating every reference against cg.
// A frame may only sit on an earlier frame, so no stack walk can cycle. It
// also returns, per frame, the stack symbols from that frame to the bottom.
func (m *stateMem) importFrames(cg *grammar.Compiled, snaps []FrameSnapshot) ([]machine.SuffixStack, []int64, error) {
	nProds := len(cg.Grammar().Prods)
	nodes := m.frames.Make(len(snaps))[:len(snaps)]
	syms := make([]int64, len(snaps))
	for i, f := range snaps {
		var rest []grammar.SymID
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
			// The aliasing invariant: Rest is the production's own
			// backing array, so closure dedup merges imported and
			// natively built configs by pointer identity.
			rest = rhs[f.Dot:]
		} else if f.Lhs < 0 || int(f.Lhs) >= cg.NumNTs() {
			return nil, nil, fmt.Errorf("prediction: cache snapshot: frame %d: nonterminal %d out of range", i, f.Lhs)
		}
		if f.Below < -1 || int(f.Below) >= i {
			return nil, nil, fmt.Errorf("prediction: cache snapshot: frame %d: below %d is not an earlier frame", i, f.Below)
		}
		nodes[i].F = machine.SuffixFrame{Lhs: f.Lhs, Rest: rest}
		syms[i] = int64(1 + len(rest))
		if f.Below >= 0 {
			nodes[i].Below = &nodes[f.Below]
			syms[i] += syms[f.Below]
		}
	}
	return nodes, syms, nil
}

// importConfigs rebuilds snapshot configs in m, pointing each at its top
// node in the imported frame table and charging the stack symbols it names
// (syms) to the import's budget, *left.
func (m *stateMem) importConfigs(cg *grammar.Compiled, snaps []ConfigSnapshot, frames []machine.SuffixStack, syms []int64, left *int64) ([]config, error) {
	if len(snaps) == 0 {
		return nil, nil
	}
	nProds := len(cg.Grammar().Prods)
	out := m.configs.Make(len(snaps))
	for ci, cs := range snaps {
		if cs.Alt < 0 || int(cs.Alt) >= nProds {
			return nil, fmt.Errorf("config %d: alt %d out of range", ci, cs.Alt)
		}
		if cs.Top < -1 || int(cs.Top) >= len(frames) {
			return nil, fmt.Errorf("config %d: top frame %d outside the %d-frame table", ci, cs.Top, len(frames))
		}
		var stack *machine.SuffixStack
		if cs.Top >= 0 {
			if *left -= syms[cs.Top]; *left < 0 {
				return nil, fmt.Errorf("config %d: the configs' stacks name more than %d symbols per stored frame or config", ci, stackSymbolsPerEntry)
			}
			stack = &frames[cs.Top]
		}
		out = append(out, config{alt: int(cs.Alt), stack: stack})
	}
	return out, nil
}
