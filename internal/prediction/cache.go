package prediction

import (
	"hash/maphash"
	"slices"
	"sync"
	"sync/atomic"

	"costar/internal/arena"
	"costar/internal/grammar"
	"costar/internal/machine"
)

// dfaState is one state of the SLL prediction DFA: a canonical set of
// stable subparser configurations plus its precomputed resolution facts and
// outgoing edges (∆ of Figure 1, with states q as subparser sets).
//
// Concurrency: every field is immutable after interning except the slots
// of edges. A slot is written once, by a compare-and-swap from nil
// (setEdge), and read with one atomic load (edge), so both the warm hit
// path and a new edge are lock-free. Edges are indexed by dense terminal
// IDs and state identity is the content of the canonical configs, filed
// under the hash of their packed-int32 key; neither hashes a symbol name.
type dfaState struct {
	configs    []config  // stable, canonically ordered (halted included)
	haltedAlts []int     // alts with a completed simulated parse
	uniqueAlt  int       // converged alternative, or -1
	anomalous  bool      // construction involved a subparser kill
	next       *dfaState // next state filed under the same key hash

	// edges is the state's row of successors: slot 0 for NoTerm, slot t+1
	// for terminal t. Only a state SLL can leave by an edge has a row (see
	// newDFAState); sllPredict answers at every other state without
	// reading a token.
	edges []atomic.Pointer[dfaState]
}

// edge returns the successor of st over terminal t, or nil; lock-free. st
// must have a row.
func (st *dfaState) edge(t grammar.TermID) *dfaState {
	return st.edges[t+1].Load()
}

// setEdge publishes t→next and returns the edge's winner. A slot is
// written only by a compare-and-swap from nil, so under a race the first
// writer wins; because successors are interned by content, racing writers
// hold the identical *dfaState anyway, so either answer is correct and the
// loser simply discards its redundant build.
func (st *dfaState) setEdge(t grammar.TermID, next *dfaState) *dfaState {
	if st.edges[t+1].CompareAndSwap(nil, next) {
		return next
	}
	return st.edges[t+1].Load()
}

// sameContent reports whether st is the state for the canonical configs
// cfgs with the given anomaly flag. It checks exactly what the canonical
// key encodes: per config the alt, halted-ness, and each frame's Lhs and
// Rest symbols; visited sets are not part of a state's identity.
func (st *dfaState) sameContent(anomalous bool, cfgs []config) bool {
	if st.anomalous != anomalous || len(st.configs) != len(cfgs) {
		return false
	}
	for i, cfg := range cfgs {
		if !sameConfig(st.configs[i], cfg) {
			return false
		}
	}
	return true
}

// sameConfig compares two configs by content. Stacks are walked in step,
// so unequal depths and halted-ness (a nil stack) both show as one side
// ending first.
func sameConfig(a, b config) bool {
	if a.alt != b.alt {
		return false
	}
	s, t := a.stack, b.stack
	for ; s != nil && t != nil && s != t; s, t = s.Below, t.Below {
		if s.F.Lhs != t.F.Lhs || !sameRest(s.F.Rest, t.F.Rest) {
			return false
		}
	}
	return s == t
}

// sameRest compares two Rest spans by their symbols. Spans built by closure
// and by snapshot import both alias the compiled productions, so equal
// spans usually share their first element and the loop is skipped.
func sameRest(a, b []grammar.SymID) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0] || slices.Equal(a, b)
}

// cacheGen is one generation of cached DFA states; Reset swaps the whole
// generation so in-flight readers keep a consistent snapshot.
type cacheGen struct {
	starts  []atomic.Pointer[dfaState] // start state per decision nonterminal, written like an edge slot
	nStarts atomic.Int64               // filled start slots, readable without locks
	shards  [internShards]internShard
	nStates atomic.Int64 // interned states over all shards, readable without locks
}

// internShards is how many independently locked parts a generation's state
// table is split into, by key hash. Misses that race to intern different
// states copy them in parallel; two racers wait for each other only when
// their keys land in one shard.
const internShards = 8

// internShard is one lock domain of a generation's state table: the states
// whose keys hash to it and the memory new ones are carved from.
type internShard struct {
	mu     sync.Mutex           // guards states and mem
	states map[uint64]*dfaState // key hash → states filed under it, chained by next
	mem    stateMem
}

// keySeed keys the state-key hash. Only equal keys must hash equally within
// one process (artifacts never store a hash), so one process-wide seed
// serves every cache.
var keySeed = maphash.MakeSeed()

// keyHash hashes a canonical state key. The hash picks the key's shard and
// files its state there; the key itself is not kept.
func keyHash(key []byte) uint64 { return maphash.Bytes(keySeed, key) }

// shard returns the shard that owns key hash h.
func (g *cacheGen) shard(h uint64) *internShard {
	return &g.shards[h%internShards]
}

// lookup returns the state filed under h whose content is the canonical
// configs cfgs with the given anomaly flag, or nil. The caller holds sh.mu
// or owns an unpublished generation.
func (sh *internShard) lookup(h uint64, anomalous bool, cfgs []config) *dfaState {
	for st := sh.states[h]; st != nil; st = st.next {
		if st.sameContent(anomalous, cfgs) {
			return st
		}
	}
	return nil
}

// file adds st under h. st must not be published yet: its next link is
// written here and never again.
func (sh *internShard) file(h uint64, st *dfaState) {
	if sh.states == nil {
		sh.states = make(map[uint64]*dfaState)
	}
	st.next = sh.states[h]
	sh.states[h] = st
}

// all returns every state interned in g, in no particular order.
func (g *cacheGen) all() []*dfaState {
	sts := make([]*dfaState, 0, g.nStates.Load())
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.Lock()
		for _, st := range sh.states {
			for ; st != nil; st = st.next {
				sts = append(sts, st)
			}
		}
		sh.mu.Unlock()
	}
	return sts
}

// stateMem is the cache-owned memory interned states are carved from: bump
// slabs for the states, their configs, suffix-stack frames, halted-alt
// lists and edge rows. It belongs to one shard of one generation, so a new
// state costs amortized O(1) allocations however many frames it copies. A shared cache
// never resets it — Reset drops the whole generation, and the garbage
// collector frees its slabs once no in-flight parse holds one of its
// states; only Clear, on a cache no other goroutine can reach, rewinds it.
// Carving happens under the owning shard's mu, or before the generation is
// published.
type stateMem struct {
	states  arena.Arena[dfaState]
	configs arena.Slab[config]
	frames  arena.Slab[machine.SuffixStack] // one span per copied chain or imported frame table
	ints    arena.Slab[int]
	rows    arena.Slab[atomic.Pointer[dfaState]]
}

// newDFAState assembles a state from cache-owned configs and its alt
// summary (alts drive uniqueAlt; haltedAlts is retained). cfgs and
// haltedAlts must already be owned by the cache — callers copy scratch with
// copyConfigs and copyInts before passing it here. A state whose configs
// still disagree on the alternative gets an empty row of terms+1 edge
// slots; an anomalous, resolved or dead state gets none, because SLL
// answers there without following an edge.
func (m *stateMem) newDFAState(cfgs []config, alts, haltedAlts []int, anomalous bool, terms int) *dfaState {
	unique := -1
	var row []atomic.Pointer[dfaState]
	switch {
	case anomalous || len(alts) == 0:
		// LL fallback or reject: no row.
	case len(alts) == 1:
		unique = alts[0]
	default:
		row = m.rows.Make(terms + 1)[:terms+1]
	}
	return m.states.New(dfaState{
		configs:    cfgs,
		haltedAlts: haltedAlts,
		uniqueAlt:  unique,
		anomalous:  anomalous,
		edges:      row,
	})
}

// reset rewinds every slab for reuse; the arenas zero what they handed out,
// so a reset stateMem pins no state or frame and hands out empty rows.
func (m *stateMem) reset() {
	m.states.Reset()
	m.configs.Reset()
	m.frames.Reset()
	m.ints.Reset()
	m.rows.Reset()
}

// copyConfigs deep-copies configs into m: the slice and each stack chain.
// Stack tails reaching into previously interned states are copied too
// rather than detected — SLL stacks are shallow, and content-addressed
// dedup bounds the total. Visited sets are dropped: the next move clears
// them and state identity excludes them, so an interned config never
// reads its own.
func (m *stateMem) copyConfigs(cfgs []config) []config {
	out := m.configs.Make(len(cfgs))[:len(cfgs)]
	for i, cfg := range cfgs {
		out[i] = config{alt: cfg.alt, stack: m.copyStack(cfg.stack)}
	}
	return out
}

// copyStack copies s into one span of m's frames, top first, linked
// through Below. Field stores into the span replace a per-node typed copy.
func (m *stateMem) copyStack(s *machine.SuffixStack) *machine.SuffixStack {
	n := s.Height()
	if n == 0 {
		return nil
	}
	chain := m.frames.Make(n)[:n]
	for i := range chain {
		chain[i].F = s.F
		if i+1 < n {
			chain[i].Below = &chain[i+1]
		}
		s = s.Below
	}
	return &chain[0]
}

// copyInts copies xs into m.
func (m *stateMem) copyInts(xs []int) []int {
	return append(m.ints.Make(len(xs)), xs...)
}

// Cache is the persistent SLL DFA: start states per decision nonterminal
// and interned states by content. A Cache belongs to the grammar it was
// made for, whose terminal and nonterminal counts size its slots; reuse
// across inputs is safe and is how the "warmed cache" configurations of
// Figure 11 and the session API work.
//
// A Cache is safe for concurrent use by any number of goroutines. The
// design exploits ALL(*)'s cache monotonicity: states are content-addressed
// (interning is idempotent), so goroutines racing to extend the DFA
// converge on identical states and losers discard their builds. Lookups on
// the warm path (start-state fetch, edge following) are one atomic load,
// and a new edge or start state is one compare-and-swap; only interning a
// new state takes a short shard mutex.
type Cache struct {
	gen        atomic.Pointer[cacheGen]
	terms, nts int // the grammar's terminal and nonterminal counts
}

// NewCache returns an empty DFA cache for the grammar cg.
func NewCache(cg *grammar.Compiled) *Cache {
	c := &Cache{terms: cg.NumTerms(), nts: cg.NumNTs()}
	c.gen.Store(c.newGen())
	return c
}

// newGen returns an empty generation with a start slot per nonterminal.
func (c *Cache) newGen() *cacheGen {
	return &cacheGen{starts: make([]atomic.Pointer[dfaState], c.nts)}
}

// start returns the memoized start state for nt, building it on first use.
// Racing builders both run build; interning makes their results the
// identical state, so whichever publishes first wins without divergence.
// A nil build result (the builder was halted by its parse's governor) is
// returned as-is and never published: the next parse rebuilds cleanly.
func (c *Cache) start(nt grammar.NTID, build func() *dfaState) *dfaState {
	g := c.gen.Load()
	if st := g.starts[nt].Load(); st != nil {
		return st
	}
	st := build()
	if st == nil {
		return nil
	}
	if !g.starts[nt].CompareAndSwap(nil, st) {
		return g.starts[nt].Load()
	}
	g.nStarts.Add(1)
	return st
}

// intern canonicalizes a closure result into a DFA state, reusing an
// existing identical state when possible. Canonical order and identity are
// content-based (SLL stacks are shallow — bounded by lookahead depth — so
// serialization is cheap, and it is what lets distinct parses share
// states). The canonical key is a packed byte string of config
// fingerprints, each length-prefixed so the binary keys cannot collide
// across configs; a state is filed under the key's hash, and a candidate
// under that hash is confirmed by comparing content (dfaState.sameContent),
// which is the equality the key encodes. Content addressing also makes
// interning idempotent under concurrency: the hash's shard mutex picks one
// winner per content and every racer gets it.
//
// The key is built and hashed in the engine's scratch, so a miss whose
// successor state already exists allocates nothing, and a new state stores
// no key. It pays only for a deep copy of what it retains into its shard's
// stateMem: res.stable aliases the engine's decision-scoped scratch, and
// the copy keeps cached configs from pinning that scratch and makes
// publication race-free — no published state ever references another
// predictor's recycled scratch. Warm-path cache hits never reach intern.
func (c *Cache) intern(e *engine, res closureResult) *dfaState {
	anomalous := res.anomaly != anomalyNone
	h := keyHash(e.scr.keys.build(anomalous, res.stable))
	g := c.gen.Load()
	sh := g.shard(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if st := sh.lookup(h, anomalous, res.stable); st != nil {
		return st
	}
	alts, halted := e.altSummary(res.stable)
	st := sh.mem.newDFAState(sh.mem.copyConfigs(res.stable), alts, sh.mem.copyInts(halted), anomalous, c.terms)
	sh.file(h, st)
	g.nStates.Add(1)
	return st
}

// Size returns (#start states, #interned states); benchmarks report it as
// the cache footprint. Safe to call while other goroutines parse.
func (c *Cache) Size() (starts, states int) {
	g := c.gen.Load()
	return int(g.nStarts.Load()), int(g.nStates.Load())
}

// Reset discards all cached states (the "cold cache" configuration of the
// Figure 11 experiment). Safe concurrently with parses: in-flight
// predictions keep their consistent pre-Reset snapshot and merely stop
// contributing growth to the new generation.
func (c *Cache) Reset() {
	c.gen.Store(c.newGen())
}

// Clear empties the cache in place and keeps its memory for the next use:
// every shard's table and slabs are rewound (the slabs zero what they
// handed out, edge rows included, so an idle cleared cache pins nothing)
// and the start slots are zeroed. Unlike Reset, Clear is not safe
// concurrently with anything, and no state read from the cache before it
// may be used after it: it is for a cache no other goroutine can reach,
// such as a session's parse-private DFA recycled with its pooled scratch.
func (c *Cache) Clear() {
	g := c.gen.Load()
	for i := range g.shards {
		sh := &g.shards[i]
		clear(sh.states)
		sh.mem.reset()
	}
	g.nStates.Store(0)
	clear(g.starts) //costar:allow cowedges -- Clear owns a cache no other goroutine can reach
	g.nStarts.Store(0)
}
