package prediction

import (
	"hash/maphash"
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
// Concurrency: every field except edges is immutable after interning.
// edges grows copy-on-write — readers follow transitions with a single
// atomic load (edge), writers serialize on mu and publish a fresh map
// (setEdge) — so the warm-cache hit path is lock-free. Edges are keyed by
// dense terminal IDs and state identity is a packed-int32 byte string;
// neither hashes a symbol name.
type dfaState struct {
	key        string
	configs    []config // stable, canonically ordered (halted included)
	haltedAlts []int    // alts with a completed simulated parse
	uniqueAlt  int      // converged alternative, or -1
	anomalous  bool     // construction involved a subparser kill

	mu    sync.Mutex // serializes edge additions; readers never take it
	edges atomic.Pointer[map[grammar.TermID]*dfaState]
}

// noEdges is the edge map every state starts with. It is shared and never
// written: setEdge always publishes a fresh copy, so one empty map serves
// every new state.
var noEdges = map[grammar.TermID]*dfaState{}

// edge returns the successor of st over terminal t, lock-free.
func (st *dfaState) edge(t grammar.TermID) (*dfaState, bool) {
	next, ok := (*st.edges.Load())[t]
	return next, ok
}

// setEdge publishes t→next and returns the edge's winner. Under a race the
// first writer wins; because successors are interned by content, racing
// writers hold the identical *dfaState anyway, so either answer is correct
// and the loser simply discards its redundant build.
func (st *dfaState) setEdge(t grammar.TermID, next *dfaState) *dfaState {
	st.mu.Lock()
	defer st.mu.Unlock()
	m := st.edges.Load()
	if exist, ok := (*m)[t]; ok {
		return exist
	}
	nm := make(map[grammar.TermID]*dfaState, len(*m)+1)
	for k, v := range *m {
		nm[k] = v
	}
	nm[t] = next
	st.edges.Store(&nm)
	return next
}

// installEdges publishes a complete edge map on a state not yet visible to
// any reader — the snapshot-import bulk path, where building edges one
// setEdge at a time would copy the map once per edge. Once a state is
// shared, edges grow only through setEdge's copy-on-write protocol.
func (st *dfaState) installEdges(m map[grammar.TermID]*dfaState) {
	st.edges.Store(&m)
}

// cacheGen is one generation of cached DFA states; Reset swaps the whole
// generation so in-flight readers keep a consistent snapshot.
type cacheGen struct {
	mu      sync.Mutex // serializes copy-on-write updates to starts
	starts  atomic.Pointer[map[grammar.NTID]*dfaState]
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
	states map[string]*dfaState // canonical key → interned state
	mem    stateMem
}

// shardSeed keys the shard hash. Shard choice only spreads lock traffic,
// so one process-wide seed serves every cache.
var shardSeed = maphash.MakeSeed()

// shard returns the shard that owns key.
func (g *cacheGen) shard(key []byte) *internShard {
	return &g.shards[maphash.Bytes(shardSeed, key)%internShards]
}

// all returns every state interned in g, in no particular order.
func (g *cacheGen) all() []*dfaState {
	sts := make([]*dfaState, 0, g.nStates.Load())
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.Lock()
		for _, st := range sh.states {
			sts = append(sts, st)
		}
		sh.mu.Unlock()
	}
	return sts
}

func newGen() *cacheGen {
	g := &cacheGen{}
	m := make(map[grammar.NTID]*dfaState)
	g.starts.Store(&m)
	return g
}

// installStarts publishes a complete start map on a generation not yet
// visible to any reader (snapshot import); shared generations grow starts
// only through Cache.start's copy-on-write path.
func (g *cacheGen) installStarts(m map[grammar.NTID]*dfaState) {
	g.starts.Store(&m)
}

// stateMem is the cache-owned memory interned states are carved from: bump
// slabs for the states, their configs, suffix-stack frames, visited-set
// overflow words, and halted-alt lists. It belongs to one shard of one
// generation and is never reset — Reset drops the whole generation, and the garbage collector
// frees its slabs once no in-flight parse holds one of its states — so a
// new state costs amortized O(1) allocations however many frames it copies.
// Carving happens under the owning shard's mu, or before the generation is
// published.
type stateMem struct {
	states  arena.Arena[dfaState]
	configs arena.Slab[config]
	frames  arena.Slab[machine.SuffixStack] // one contiguous span per stack chain
	words   arena.Slab[uint64]
	ints    arena.Slab[int]
}

// newDFAState assembles a state from cache-owned configs and its alt
// summary (alts drive uniqueAlt; haltedAlts is retained). cfgs and
// haltedAlts must already be owned by the cache — callers copy scratch with
// copyConfigs and copyInts before passing it here.
func (m *stateMem) newDFAState(key string, cfgs []config, alts, haltedAlts []int, anomalous bool) *dfaState {
	st := m.states.New(dfaState{
		key:        key,
		configs:    cfgs,
		haltedAlts: haltedAlts,
		uniqueAlt:  -1,
		anomalous:  anomalous,
	})
	st.edges.Store(&noEdges)
	if len(alts) == 1 && !anomalous {
		st.uniqueAlt = alts[0]
	}
	return st
}

// copyConfigs deep-copies configs into m: the slice, each stack chain, and
// each visited set's overflow words. Stack tails reaching into previously
// interned states are copied too rather than detected — SLL stacks are
// shallow, and content-addressed dedup bounds the total.
func (m *stateMem) copyConfigs(cfgs []config) []config {
	out := m.configs.Make(len(cfgs))[:len(cfgs)]
	for i, cfg := range cfgs {
		out[i] = config{alt: cfg.alt, stack: m.copyStack(cfg.stack), visited: cfg.visited.CloneIn(&m.words)}
	}
	return out
}

func (m *stateMem) copyStack(s *machine.SuffixStack) *machine.SuffixStack {
	chain := m.chain(s.Height())
	for i := range chain {
		chain[i].F = s.F
		s = s.Below
	}
	return chainTop(chain)
}

// chain carves n linked stack nodes, chain[i].Below = &chain[i+1], for the
// caller to fill top first. Field stores into the span replace a per-node
// typed copy, which is what a snapshot import of hundreds of thousands of
// frames spent its time on.
func (m *stateMem) chain(n int) []machine.SuffixStack {
	chain := m.frames.Make(n)[:n]
	for i := 0; i+1 < n; i++ {
		chain[i].Below = &chain[i+1]
	}
	return chain
}

// chainTop returns a chain's top node, nil for an empty chain.
func chainTop(chain []machine.SuffixStack) *machine.SuffixStack {
	if len(chain) == 0 {
		return nil
	}
	return &chain[0]
}

// copyInts copies xs into m.
func (m *stateMem) copyInts(xs []int) []int {
	return append(m.ints.Make(len(xs)), xs...)
}

// Cache is the persistent SLL DFA: start states per decision nonterminal
// and interned states by fingerprint. A Cache belongs to one grammar; reuse
// across inputs is safe and is how the "warmed cache" configurations of
// Figure 11 and the session API work.
//
// A Cache is safe for concurrent use by any number of goroutines. The
// design exploits ALL(*)'s cache monotonicity: states are content-addressed
// (interning is idempotent), so goroutines racing to extend the DFA
// converge on identical states and losers discard their builds. Lookups on
// the warm path (start-state fetch, edge following) are lock-free; only
// cache growth takes short mutexes.
type Cache struct {
	gen atomic.Pointer[cacheGen]
}

// NewCache returns an empty DFA cache.
func NewCache() *Cache {
	c := &Cache{}
	c.gen.Store(newGen())
	return c
}

// start returns the memoized start state for nt, building it on first use.
// Racing builders both run build; interning makes their results the
// identical state, so whichever publishes first wins without divergence.
// A nil build result (the builder was halted by its parse's governor) is
// returned as-is and never published: the next parse rebuilds cleanly.
func (c *Cache) start(nt grammar.NTID, build func() *dfaState) *dfaState {
	g := c.gen.Load()
	if st, ok := (*g.starts.Load())[nt]; ok {
		return st
	}
	st := build()
	if st == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	m := g.starts.Load()
	if exist, ok := (*m)[nt]; ok {
		return exist
	}
	nm := make(map[grammar.NTID]*dfaState, len(*m)+1)
	for k, v := range *m {
		nm[k] = v
	}
	nm[nt] = st
	g.starts.Store(&nm)
	return st
}

// intern canonicalizes a closure result into a DFA state, reusing an
// existing identical state when possible. Canonical order and identity are
// content-based (SLL stacks are shallow — bounded by lookahead depth — so
// serialization is cheap, and it is what lets distinct parses share
// states). Identity is a packed byte string of config fingerprints, each
// length-prefixed so the binary keys cannot collide across configs.
// Content addressing also makes interning idempotent under concurrency:
// the key's shard mutex picks one winner per key and every racer gets it.
//
// The key is built in the engine's scratch and probed without a copy, so a
// miss whose successor state already exists allocates nothing. A new state
// pays for its key string and a deep copy of what it retains into its
// shard's stateMem: res.stable aliases the engine's decision-scoped
// scratch, and the copy keeps cached configs from pinning that scratch and
// makes publication race-free — no published state ever references another
// predictor's recycled scratch. Warm-path cache hits never reach intern.
func (c *Cache) intern(e *engine, res closureResult) *dfaState {
	anomalous := res.anomaly != anomalyNone
	key := e.scr.keys.build(anomalous, res.stable)
	g := c.gen.Load()
	sh := g.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if st, ok := sh.states[string(key)]; ok {
		return st
	}
	if sh.states == nil {
		sh.states = make(map[string]*dfaState)
	}
	alts, halted := e.altSummary(res.stable)
	st := sh.mem.newDFAState(string(key), sh.mem.copyConfigs(res.stable), alts, sh.mem.copyInts(halted), anomalous)
	sh.states[st.key] = st
	g.nStates.Add(1)
	return st
}

// Size returns (#start states, #interned states); benchmarks report it as
// the cache footprint. Safe to call while other goroutines parse.
func (c *Cache) Size() (starts, states int) {
	g := c.gen.Load()
	return len(*g.starts.Load()), int(g.nStates.Load())
}

// Reset discards all cached states (the "cold cache" configuration of the
// Figure 11 experiment). Safe concurrently with parses: in-flight
// predictions keep their consistent pre-Reset snapshot and merely stop
// contributing growth to the new generation.
func (c *Cache) Reset() {
	c.gen.Store(newGen())
}
