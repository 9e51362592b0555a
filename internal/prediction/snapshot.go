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
// Cache.intern does. Two invariants make the grammar-position encoding
// mandatory rather than a size optimization:
//
//   - Frame Rest slices must alias the compiled production arrays
//     (prediction's closure dedup keys on the address of Rest's first
//     element — subparser.go's dedupKey). A snapshot that serialized the
//     symbols themselves would import states whose configs never merge
//     with natively built ones, silently degrading closure to exponential
//     on some grammars. Every Rest is therefore stored as (Prod, Dot) and
//     rebuilt as Rhs(Prod)[Dot:].
//
//   - Imported states must be owned by the cache (the PR 6 lifetime
//     contract): stacks, configs and visited sets are carved from the new
//     generation's stateMem slabs, exactly where Cache.intern copies scratch on
//     the cold path, so an imported generation is indistinguishable from a
//     warmed one.
//
// Export is deterministic (states sorted by canonical key, edges by
// terminal, starts by nonterminal) so that identical warm-ups produce
// byte-identical artifacts and golden files are stable.

import (
	"fmt"
	"sort"

	"costar/internal/grammar"
	"costar/internal/machine"
)

// FrameSnapshot is one suffix-stack frame as a grammar position. Prod < 0
// means the frame's Rest is empty (everything after the occurrence was
// consumed); otherwise Rest is Rhs(Prod)[Dot:].
type FrameSnapshot struct {
	Lhs  grammar.NTID
	Prod int32
	Dot  int32
}

// ConfigSnapshot is one subparser configuration. Frames are top-first; a
// config with no frames is halted (simulated a complete parse). Visited
// holds the visited-set members ascending.
type ConfigSnapshot struct {
	Alt     int32
	Frames  []FrameSnapshot
	Visited []int32
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

// CacheSnapshot is a full warmed-DFA snapshot: every interned state plus
// the start-state table, with all cross-references by state index.
type CacheSnapshot struct {
	Starts []StartSnapshot
	States []StateSnapshot
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
	pos := restIndex(cg)

	var snap CacheSnapshot
	if len(sts) == 0 {
		return snap, nil
	}
	snap.States = make([]StateSnapshot, len(sts))
	for i, st := range sts {
		ss := StateSnapshot{Anomalous: st.anomalous}
		if len(st.configs) > 0 {
			ss.Configs = make([]ConfigSnapshot, len(st.configs))
			for j, cfg := range st.configs {
				cs, err := exportConfig(cg, cfg, pos)
				if err != nil {
					return CacheSnapshot{}, err
				}
				ss.Configs[j] = cs
			}
		}
		edges := *st.edges.Load()
		if len(edges) > 0 {
			terms := make([]int32, 0, len(edges))
			for t := range edges {
				terms = append(terms, int32(t))
			}
			sort.Slice(terms, func(a, b int) bool { return terms[a] < terms[b] })
			ss.EdgeTerms = terms
			ss.EdgeStates = make([]int32, len(terms))
			for k, t := range terms {
				target := edges[grammar.TermID(t)]
				ti, ok := index[target]
				if !ok {
					return CacheSnapshot{}, fmt.Errorf("prediction: cache export: edge target not interned")
				}
				ss.EdgeStates[k] = ti
			}
		}
		snap.States[i] = ss
	}

	starts := *gen.starts.Load()
	if len(starts) > 0 {
		snap.Starts = make([]StartSnapshot, 0, len(starts))
		for nt, st := range starts {
			si, ok := index[st]
			if !ok {
				return CacheSnapshot{}, fmt.Errorf("prediction: cache export: start state not interned")
			}
			snap.Starts = append(snap.Starts, StartSnapshot{NT: nt, State: si})
		}
		sort.Slice(snap.Starts, func(a, b int) bool { return snap.Starts[a].NT < snap.Starts[b].NT })
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

func exportConfig(cg *grammar.Compiled, cfg config, pos map[*grammar.SymID]restPos) (ConfigSnapshot, error) {
	cs := ConfigSnapshot{Alt: int32(cfg.alt)}
	for s := cfg.stack; s != nil; s = s.Below {
		f := FrameSnapshot{Lhs: s.F.Lhs, Prod: -1}
		if len(s.F.Rest) > 0 {
			p, ok := pos[&s.F.Rest[0]]
			if !ok {
				return cs, fmt.Errorf("prediction: cache export: frame rest does not alias a compiled production")
			}
			if len(s.F.Rest) != len(cg.Rhs(int(p.prod)))-int(p.dot) {
				return cs, fmt.Errorf("prediction: cache export: frame rest is not a production suffix")
			}
			f.Prod, f.Dot = p.prod, p.dot
		}
		cs.Frames = append(cs.Frames, f)
	}
	if members := cfg.visited.Members(); len(members) > 0 {
		cs.Visited = make([]int32, len(members))
		for i, id := range members {
			cs.Visited[i] = int32(id)
		}
	}
	return cs, nil
}

// Import replaces the cache's generation with one rebuilt from snap,
// re-interning every state into cache-owned heap memory. Every reference
// is bounds-checked against the compiled grammar — Import is the trust
// boundary for deserialized caches, so malformed snapshots yield an error
// and leave the cache untouched. State keys, uniqueAlt, and haltedAlts are
// recomputed from the reconstructed configs, so an imported state is
// content-addressed identically to a natively interned one and later
// warm-up seamlessly extends the imported DFA.
func (c *Cache) Import(cg *grammar.Compiled, snap CacheSnapshot) error {
	gen := newGen()
	n := len(snap.States)
	for i := range gen.shards {
		gen.shards[i].states = make(map[uint64]*dfaState, n/internShards+1)
	}
	// The generation is not published yet, so every state is carved from
	// one shard's memory without locks; the shards' tables file them by key
	// hash.
	mem := &gen.shards[0].mem
	sts := make([]*dfaState, n)
	var (
		keys         keyBuf
		alts, halted []int
		ids          []grammar.NTID
	)
	for i, ss := range snap.States {
		cfgs, err := mem.importConfigs(cg, ss.Configs, &ids)
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
		st := mem.newDFAState(cfgs, alts, mem.copyInts(halted), ss.Anomalous)
		sh.file(h, st)
		sts[i] = st
	}
	gen.nStates.Store(int64(n))
	for i, ss := range snap.States {
		if len(ss.EdgeTerms) != len(ss.EdgeStates) {
			return fmt.Errorf("prediction: cache snapshot: state %d has %d edge terms but %d targets", i, len(ss.EdgeTerms), len(ss.EdgeStates))
		}
		if len(ss.EdgeTerms) == 0 {
			continue
		}
		m := make(map[grammar.TermID]*dfaState, len(ss.EdgeTerms))
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
			if _, dup := m[grammar.TermID(t)]; dup {
				return fmt.Errorf("prediction: cache snapshot: state %d has duplicate edge on terminal %d", i, t)
			}
			m[grammar.TermID(t)] = sts[si]
		}
		sts[i].installEdges(m)
	}
	if len(snap.Starts) > 0 {
		starts := make(map[grammar.NTID]*dfaState, len(snap.Starts))
		for _, se := range snap.Starts {
			if se.NT < 0 || int(se.NT) >= cg.NumNTs() {
				return fmt.Errorf("prediction: cache snapshot: start nonterminal %d out of range", se.NT)
			}
			if se.State < 0 || int(se.State) >= n {
				return fmt.Errorf("prediction: cache snapshot: start state %d out of range", se.State)
			}
			if _, dup := starts[se.NT]; dup {
				return fmt.Errorf("prediction: cache snapshot: duplicate start for nonterminal %d", se.NT)
			}
			starts[se.NT] = sts[se.State]
		}
		gen.installStarts(starts)
	}
	c.gen.Store(gen)
	return nil
}

// importConfigs rebuilds snapshot configs in m, validating every reference
// against cg. Stack nodes, configs and visited words are carved from the
// generation's slabs like natively interned ones — a warmed Python snapshot
// carries hundreds of thousands of frames, and a per-frame or per-state
// allocation here dominated artifact load. ids is reused scratch for the
// visited members.
func (m *stateMem) importConfigs(cg *grammar.Compiled, snaps []ConfigSnapshot, ids *[]grammar.NTID) ([]config, error) {
	if len(snaps) == 0 {
		return nil, nil
	}
	nProds := len(cg.Grammar().Prods)
	out := m.configs.Make(len(snaps))
	for ci, cs := range snaps {
		if cs.Alt < 0 || int(cs.Alt) >= nProds {
			return nil, fmt.Errorf("config %d: alt %d out of range", ci, cs.Alt)
		}
		chain := m.chain(len(cs.Frames))
		for fi, f := range cs.Frames {
			var rest []grammar.SymID
			if f.Prod >= 0 {
				if int(f.Prod) >= nProds {
					return nil, fmt.Errorf("config %d frame %d: production %d out of range", ci, fi, f.Prod)
				}
				rhs := cg.Rhs(int(f.Prod))
				if f.Dot < 0 || int(f.Dot) >= len(rhs) {
					return nil, fmt.Errorf("config %d frame %d: dot %d out of range for production %d", ci, fi, f.Dot, f.Prod)
				}
				if cg.Lhs(int(f.Prod)) != f.Lhs {
					return nil, fmt.Errorf("config %d frame %d: lhs %d does not own production %d", ci, fi, f.Lhs, f.Prod)
				}
				// The aliasing invariant: Rest is the production's own
				// backing array, so closure dedup merges imported and
				// natively built configs by pointer identity.
				rest = rhs[f.Dot:]
			} else if f.Lhs < 0 || int(f.Lhs) >= cg.NumNTs() {
				return nil, fmt.Errorf("config %d frame %d: nonterminal %d out of range", ci, fi, f.Lhs)
			}
			chain[fi].F = machine.SuffixFrame{Lhs: f.Lhs, Rest: rest}
		}
		*ids = (*ids)[:0]
		for _, id := range cs.Visited {
			if id < 0 || int(id) >= cg.NumNTs() {
				return nil, fmt.Errorf("config %d: visited nonterminal %d out of range", ci, id)
			}
			*ids = append(*ids, grammar.NTID(id))
		}
		visited, ok := machine.NTSetFromMembersIn(&m.words, *ids)
		if !ok {
			return nil, fmt.Errorf("config %d: visited members not strictly ascending", ci)
		}
		out = append(out, config{alt: int(cs.Alt), stack: chainTop(chain), visited: visited})
	}
	return out, nil
}
