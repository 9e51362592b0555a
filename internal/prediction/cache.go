package prediction

import (
	"hash/maphash"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"costar/internal/arena"
	"costar/internal/grammar"
)

// dfaState is one state of the SLL prediction DFA: a canonical set of
// stable subparser configurations plus its precomputed resolution facts and
// outgoing edges (∆ of Figure 1, with states q as subparser sets).
//
// Concurrency: every field is immutable after interning except the slots
// of edges. A slot is written once, by a compare-and-swap from nil
// (setEdge), and read with one atomic load (edge), so both the warm hit
// path and a new edge are lock-free. Edges are indexed by dense terminal
// IDs, and a state's identity is its configs: sorted alt<<32 | frame ID
// words over its generation's frame table, filed under their hash.
type dfaState struct {
	configs    []uint64  // the state key: stable configs, halted included, sorted
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

// haltedTop is the frame half of a halted config's key word: it sorts
// after every frame ID of the same alt.
const haltedTop = ^uint32(0)

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

// genFrame is one frame of a generation's frame table: a grammar position
// as in a decision's frame (prod -1 once the frame's rest is empty) and the
// ID of the frame below it, -1 for none. It is the shape of FrameSnapshot.
type genFrame struct {
	lhs   grammar.NTID
	prod  int32
	dot   int32
	below int32
}

// frameChunks bounds a frame table: chunk k holds frameChunk0<<k frames, so
// 24 chunks cover every int32 ID.
const (
	frameChunks = 24
	frameChunk0 = 256
)

// genFrames is a generation's frame table: every frame of an interned
// state's stacks, hash-consed, so equal stacks have equal IDs and a config
// names its whole stack by its top frame's ID. Frames live in chunks that
// are never moved, so a frame read by ID needs no lock: a reader gets the
// ID from a published state, and the frame was written before the state
// was published. mu guards the index, n and the chunks; it is a leaf —
// stateKey releases it before a shard mutex is taken.
type genFrames struct {
	mu     sync.Mutex
	slots  []int32 // open-addressing index: frame ID + 1, 0 empty
	n      int32
	chunks [frameChunks][]genFrame
}

// frameSlot locates frame id: its chunk and its offset in the chunk.
func frameSlot(id int32) (chunk, off int) {
	chunk = bits.Len32(uint32(id)/frameChunk0+1) - 1
	return chunk, int(id) + frameChunk0 - frameChunk0<<chunk
}

// at returns frame id. id must come from a published state, or the caller
// holds mu.
func (t *genFrames) at(id int32) genFrame {
	k, off := frameSlot(id)
	return t.chunks[k][off]
}

// intern returns the ID of frame f, adding it on first sight. The caller
// holds mu or owns an unpublished generation.
func (t *genFrames) intern(f genFrame) int32 {
	if 2*(int(t.n)+1) > len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	//costar:allow governortick -- an open-addressing probe: the index is at most half full, so a probe meets an empty slot within its length
	for i := frameHash(f.lhs, f.prod, f.dot, f.below) & mask; ; i = (i + 1) & mask {
		e := t.slots[i]
		if e == 0 {
			id := t.n
			k, off := frameSlot(id)
			if t.chunks[k] == nil {
				t.chunks[k] = make([]genFrame, frameChunk0<<k)
			}
			t.chunks[k][off] = f
			t.slots[i] = id + 1
			t.n++
			return id
		}
		if t.at(e-1) == f {
			return e - 1
		}
	}
}

// grow doubles the index and refiles every frame.
func (t *genFrames) grow() {
	t.slots = make([]int32, max(256, 2*len(t.slots)))
	mask := uint64(len(t.slots) - 1)
	for id := int32(0); id < t.n; id++ {
		f := t.at(id)
		i := frameHash(f.lhs, f.prod, f.dot, f.below) & mask
		//costar:allow governortick -- an open-addressing probe: the index is at most half full, so a probe meets an empty slot within its length
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = id + 1
	}
}

// reset empties the table and keeps its index and chunks for reuse.
func (t *genFrames) reset() {
	clear(t.slots)
	t.n = 0
}

// cacheGen is one generation of cached DFA states; Reset swaps the whole
// generation so in-flight readers keep a consistent snapshot.
type cacheGen struct {
	starts  []atomic.Pointer[dfaState] // start state per decision nonterminal, written like an edge slot
	nStarts atomic.Int64               // filled start slots, readable without locks
	frames  genFrames
	shards  [internShards]internShard
	nStates atomic.Int64 // interned states over all shards, readable without locks
}

// internShards is how many independently locked parts a generation's state
// table is split into, by key hash. Misses that race to intern different
// states build them in parallel; two racers wait for each other only when
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
var keySeed = maphash.Comparable(maphash.MakeSeed(), 0)

// keyHash hashes a state key and its anomaly flag. The hash picks the key's
// shard and files its state there.
func keyHash(anomalous bool, key []uint64) uint64 {
	h := keySeed ^ uint64(len(key))
	if anomalous {
		h = ^h
	}
	for _, k := range key {
		hi, lo := bits.Mul64(h^0xa0761d6478bd642f, k^0xe7037ed1a0b428db)
		h = hi ^ lo
	}
	return h
}

// shard returns the shard that owns key hash h.
func (g *cacheGen) shard(h uint64) *internShard {
	return &g.shards[h%internShards]
}

// lookup returns the state filed under h with the given key and anomaly
// flag, or nil. The caller holds sh.mu or owns an unpublished generation.
func (sh *internShard) lookup(h uint64, anomalous bool, key []uint64) *dfaState {
	for st := sh.states[h]; st != nil; st = st.next {
		if st.anomalous == anomalous && slices.Equal(st.configs, key) {
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
// slabs for the states (a one-element span each), their keys, halted-alt
// lists and edge rows. It belongs to one shard of one generation, so a new
// state costs amortized O(1) allocations. A shared cache never resets it —
// Reset drops the whole generation, and the garbage collector frees its
// slabs once no in-flight parse holds one of its states; only Clear, on a
// cache no other goroutine can reach, rewinds it. Carving happens under
// the owning shard's mu, or before the generation is published.
type stateMem struct {
	states arena.Slab[dfaState]
	keys   arena.Slab[uint64]
	ints   arena.Slab[int]
	rows   arena.Slab[atomic.Pointer[dfaState]]
}

// newDFAState assembles a state from a cache-owned key (callers copy
// scratch with copyKey first) and derives its resolution facts: the key is
// sorted by alt, so each run of one alt is a distinct alternative, and a
// run's halted config sorts last in it. A state whose configs still
// disagree on the alternative gets an empty row of terms+1 edge slots; an
// anomalous, resolved or dead state gets none, because SLL answers there
// without following an edge.
func (m *stateMem) newDFAState(key []uint64, anomalous bool, terms int) *dfaState {
	alts, halted := 0, 0
	for i, k := range key {
		if i == 0 || k>>32 != key[i-1]>>32 {
			alts++
		}
		if uint32(k) == haltedTop && (i == 0 || k != key[i-1]) {
			halted++
		}
	}
	var haltedAlts []int
	if halted > 0 {
		haltedAlts = m.ints.Make(halted)
		for i, k := range key {
			if uint32(k) == haltedTop && (i == 0 || k != key[i-1]) {
				haltedAlts = append(haltedAlts, int(k>>32))
			}
		}
	}
	unique := -1
	var row []atomic.Pointer[dfaState]
	switch {
	case anomalous || alts == 0:
		// LL fallback or reject: no row.
	case alts == 1:
		unique = int(key[0] >> 32)
	default:
		row = m.rows.Make(terms + 1)[:terms+1]
	}
	return &append(m.states.Make(1), dfaState{
		configs:    key,
		haltedAlts: haltedAlts,
		uniqueAlt:  unique,
		anomalous:  anomalous,
		edges:      row,
	})[0]
}

// reset rewinds every slab for reuse; the slabs zero what they handed out,
// so a reset stateMem pins no state and hands out empty rows.
func (m *stateMem) reset() {
	m.states.Reset()
	m.keys.Reset()
	m.ints.Reset()
	m.rows.Reset()
}

// copyKey copies a state key into m: the translation of a closure result
// into cache memory ends here.
func (m *stateMem) copyKey(key []uint64) []uint64 {
	return append(m.keys.Make(len(key)), key...)
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
// and a new edge or start state is one compare-and-swap; only interning
// takes locks: the frame table's mutex while new frames are hash-consed,
// then, once that is released, a short shard mutex.
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

// start returns generation g's memoized start state for nt, building it on
// first use. Racing builders both run build; interning makes their results
// the identical state, so whichever publishes first wins without
// divergence. A nil build result (the builder was halted by its parse's
// governor) is returned as-is and never published: the next parse rebuilds
// cleanly.
func (g *cacheGen) start(nt grammar.NTID, build func() *dfaState) *dfaState {
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

// intern canonicalizes a closure result into a DFA state of generation g,
// reusing an existing identical state when possible. stateKey translates
// the stable configs' stacks into g's frame table — hash-consing only the
// frames of configs that reach a state, so frames closure built and
// discarded never grow the cache — and sorts their alt<<32 | frameID words
// into the key. Equal stacks have equal IDs, so the key is exact: a state
// is filed under the key's hash and a candidate under that hash is
// confirmed by comparing keys. That also makes interning idempotent under
// concurrency: the hash's shard mutex picks one winner per key and every
// racer gets it.
//
// The key is built and hashed in the engine's scratch, so a miss whose
// successor state already exists allocates nothing. A new state copies its
// key into its shard's stateMem and copies no stack: the frames are already
// the generation's, so no published state references another predictor's
// recycled scratch. Warm-path cache hits never reach intern.
func (c *Cache) intern(e *engine, g *cacheGen, res closureResult) *dfaState {
	anomalous := res.anomaly != anomalyNone
	key := e.stateKey(&g.frames, res.stable)
	h := keyHash(anomalous, key)
	sh := g.shard(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if st := sh.lookup(h, anomalous, key); st != nil {
		return st
	}
	st := sh.mem.newDFAState(sh.mem.copyKey(key), anomalous, c.terms)
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
// the frame table and every shard's table and slabs are rewound (the slabs
// zero what they handed out, edge rows included, so an idle cleared cache
// pins nothing) and the start slots are zeroed. Unlike Reset, Clear is not safe
// concurrently with anything, and no state read from the cache before it
// may be used after it: it is for a cache no other goroutine can reach,
// such as a session's parse-private DFA recycled with its pooled scratch.
func (c *Cache) Clear() {
	g := c.gen.Load()
	g.frames.reset()
	for i := range g.shards {
		sh := &g.shards[i]
		clear(sh.states)
		sh.mem.reset()
	}
	g.nStates.Store(0)
	clear(g.starts) //costar:allow cowedges -- Clear owns a cache no other goroutine can reach
	g.nStarts.Store(0)
}
