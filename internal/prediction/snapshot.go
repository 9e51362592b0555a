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
// goroutines decide, so Export orders by content only: configs within a
// state by alt and then by their stacks' packed little-endian int32
// serialization (per frame from the top: nonterminal, rest length, rest
// symbols), states by the concatenation of their configs' serializations,
// edges by terminal with NoTerm first, starts by nonterminal, and frames in
// the order the sorted states first reach them, bottom first. Identical
// warm-ups therefore produce byte-identical artifacts, and golden files are
// stable.
//
// Shared frames let a small snapshot name long stacks: one deep chain under
// many configs costs the snapshot a frame per level plus a config each, but
// Export's content order serializes every config's whole stack. The stacks
// a snapshot names are therefore bounded by its size
// (stackSymbolsPerEntry), and Export refuses to write a snapshot that
// Import would refuse.

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

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
// right-hand side, which is what Export's content order serializes per
// frame; all configs together may name at most this many stack symbols per
// frame or config the snapshot stores. A warmed Python cache, the deepest
// bundled grammar, names 14.7 per entry.
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
	var snap CacheSnapshot
	sts := gen.all()
	if len(sts) == 0 {
		return snap, nil
	}
	ex := exporter{cg: cg, frames: &gen.frames, num: map[int32]int32{}, symCount: map[int32]int64{}}
	order, err := ex.sortStates(sts)
	if err != nil {
		return CacheSnapshot{}, err
	}
	index := make(map[*dfaState]int32, len(sts))
	for i, st := range sts {
		index[st] = int32(i)
	}
	snap.States = make([]StateSnapshot, len(sts))
	var (
		configs int
		named   int64 // stack symbols the configs name
	)
	for i, st := range sts {
		ss := StateSnapshot{Anomalous: st.anomalous}
		if cfgs := order[i]; len(cfgs) > 0 {
			ss.Configs = make([]ConfigSnapshot, len(cfgs))
			for j, k := range cfgs {
				top := int32(uint32(k))
				if top >= 0 {
					named += ex.syms(top)
					top = ex.number(top)
				}
				ss.Configs[j] = ConfigSnapshot{Alt: int32(k >> 32), Top: top}
			}
			configs += len(cfgs)
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
	if budget := stackBudget(len(ex.out), configs); named > budget {
		return CacheSnapshot{}, fmt.Errorf("prediction: cache export: configs name %d stack symbols, more than the %d an import of %d frames and %d configs accepts", named, budget, len(ex.out), configs)
	}
	snap.Frames = ex.out

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

// exporter orders a generation's states by content and numbers the frames
// they reach in that order.
type exporter struct {
	cg       *grammar.Compiled
	frames   *genFrames
	num      map[int32]int32 // generation frame ID → snapshot index
	out      []FrameSnapshot
	symCount map[int32]int64 // generation frame ID → stack symbols to the bottom
}

// rest returns the symbols left in frame f, checking that its position is
// one of cg's.
func (ex *exporter) rest(f genFrame) ([]grammar.SymID, error) {
	if f.prod < 0 {
		return nil, nil
	}
	if int(f.prod) >= len(ex.cg.Grammar().Prods) || int(f.dot) >= len(ex.cg.Rhs(int(f.prod))) {
		return nil, fmt.Errorf("prediction: cache export: frame position (%d, %d) is not in the grammar", f.prod, f.dot)
	}
	return ex.cg.Rhs(int(f.prod))[f.dot:], nil
}

// appendContent appends config (alt, top)'s content serialization: the alt,
// then per frame from the top a marker byte, the nonterminal, the rest's
// length and its symbols, then a byte telling a live stack from a halted
// config, all int32s packed little-endian. Frames are prefix-free (a rest's
// length precedes it), so byte order is a total order on contents. pos
// gets the frames' positions, which break ties between equal symbols at
// different grammar positions.
func (ex *exporter) appendContent(b, pos []byte, alt int32, top int32) ([]byte, []byte, error) {
	b = binary.LittleEndian.AppendUint32(b, uint32(alt))
	for id := top; id >= 0; {
		f := ex.frames.at(id)
		rest, err := ex.rest(f)
		if err != nil {
			return nil, nil, err
		}
		b = append(b, 1)
		b = binary.LittleEndian.AppendUint32(b, uint32(f.lhs))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(rest)))
		for _, sym := range rest {
			b = binary.LittleEndian.AppendUint32(b, uint32(sym))
		}
		pos = binary.LittleEndian.AppendUint32(pos, uint32(f.prod))
		pos = binary.LittleEndian.AppendUint32(pos, uint32(f.dot))
		id = f.below
	}
	if top < 0 {
		return append(b, 2), pos, nil
	}
	return append(b, 0), pos, nil
}

// sortStates sorts sts by content and returns each state's configs in
// content order: by alt, then content serialization, then positions. A
// state's order key is its anomaly byte followed by each config's
// serialization in that order, behind its length.
func (ex *exporter) sortStates(sts []*dfaState) ([][]uint64, error) {
	type entry struct {
		key uint64
		fp  string
		pos string
	}
	type state struct {
		st       *dfaState
		cfgs     []uint64
		key, pos string
	}
	all := make([]state, len(sts))
	var fp, pos []byte
	for i, st := range sts {
		es := make([]entry, len(st.configs))
		for j, k := range st.configs {
			var err error
			fp, pos, err = ex.appendContent(fp[:0], pos[:0], int32(k>>32), int32(uint32(k)))
			if err != nil {
				return nil, err
			}
			es[j] = entry{key: k, fp: string(fp), pos: string(pos)}
		}
		slices.SortFunc(es, func(a, b entry) int {
			return cmp.Or(cmp.Compare(a.key>>32, b.key>>32), strings.Compare(a.fp, b.fp), strings.Compare(a.pos, b.pos))
		})
		var key, p []byte
		if st.anomalous {
			key = append(key, 1)
		} else {
			key = append(key, 0)
		}
		cfgs := make([]uint64, len(es))
		for j, e := range es {
			key = binary.LittleEndian.AppendUint32(key, uint32(len(e.fp)))
			key = append(key, e.fp...)
			p = append(p, e.pos...)
			cfgs[j] = e.key
		}
		all[i] = state{st: st, cfgs: cfgs, key: string(key), pos: string(p)}
	}
	slices.SortFunc(all, func(a, b state) int {
		return cmp.Or(strings.Compare(a.key, b.key), strings.Compare(a.pos, b.pos))
	})
	order := make([][]uint64, len(all))
	for i, s := range all {
		sts[i] = s.st
		order[i] = s.cfgs
	}
	return order, nil
}

// number returns the snapshot index of generation frame id, numbering the
// frames beneath it first, so every Below precedes its frame and each
// distinct stack suffix is stored once.
func (ex *exporter) number(id int32) int32 {
	if i, ok := ex.num[id]; ok {
		return i
	}
	f := ex.frames.at(id)
	below := int32(-1)
	if f.below >= 0 {
		below = ex.number(f.below)
	}
	i := int32(len(ex.out))
	ex.out = append(ex.out, FrameSnapshot{Lhs: f.lhs, Prod: f.prod, Dot: f.dot, Below: below})
	ex.num[id] = i
	return i
}

// syms returns the stack symbols from generation frame id to the bottom:
// per frame its nonterminal and its rest.
func (ex *exporter) syms(id int32) int64 {
	if n, ok := ex.symCount[id]; ok {
		return n
	}
	f := ex.frames.at(id)
	n := int64(1)
	if f.prod >= 0 {
		n += int64(len(ex.cg.Rhs(int(f.prod))) - int(f.dot))
	}
	if f.below >= 0 {
		n += ex.syms(f.below)
	}
	ex.symCount[id] = n
	return n
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
