// Package prediction implements CoStar's adaptivePredict (Section 3.4): the
// combination of fast, cached, imprecise SLL prediction with a failover to
// slow, precise LL prediction.
//
// Both modes launch one subparser per right-hand side of the decision
// nonterminal and advance them in lockstep over the remaining tokens,
// closing over push/return operations between consumes. LL subparsers
// simulate on the machine's real suffix stack and are exact; SLL subparsers
// carry only local context and, when their stack empties, return into every
// statically possible continuation (analysis.Targets — the "stable return
// frames" of Section 3.5), which makes SLL an overapproximation of LL.
// SLL steps are cached in a DFA whose states are subparser sets; the cache
// persists across decisions, across a whole input, and (via parser
// sessions) across inputs. The cache is safe for concurrent use: states
// are content-addressed, so goroutines racing to extend the DFA intern
// identical states and converge (see Cache), which lets one warm DFA
// serve many parsing goroutines at once.
//
// Subparser stacks are the paper's persistent lists with maximal sharing:
// every frame (lhs, grammar position, frame below) is hash-consed to an
// int32 ID, first in the decision's scratch table (stacks) and, when a
// state is interned, in the cache generation's table (genFrames). Equal
// stacks therefore get equal IDs, a config is (alt, top frame ID), closure
// dedups configs by comparing integers, and a DFA state is keyed by the
// sorted alt<<32 | frameID words of its configs. No symbol name is hashed
// or compared on this path — the §6.1 string-comparison cost the paper
// measures is gone.
package prediction

import (
	"slices"
	"sort"

	"costar/internal/arena"
	"costar/internal/grammar"
	"costar/internal/machine"
)

// config is one subparser θ = (γ, Ψ): a candidate production (identified by
// its global index alt) plus a simulated suffix stack, named by its top
// frame in the decision's frame table. top < 0 means the subparser has
// simulated a complete parse ("halted"); it survives only if the input ends
// exactly here.
type config struct {
	alt     int32
	top     int32
	visited machine.NTSet
}

// key identifies a config for closure-time merging: the alt and the top
// frame, which hash-consing makes an exact name for the whole stack. The
// visited set is deliberately excluded: within a round every config starts
// with an empty visited set (move clears it), so two configs with equal
// (alt, stack) have futures that differ at most in when a left-recursion
// kill fires — and any such kill still witnesses a genuine nullable loop.
// Merging is therefore sound, and it is what keeps closure polynomial on
// deep expression grammars.
func (c config) key() uint64 { return uint64(uint32(c.alt))<<32 | uint64(uint32(c.top)) }

// anomalyKind classifies events that make an SLL outcome untrustworthy.
type anomalyKind uint8

const (
	anomalyNone anomalyKind = iota
	// anomalyLeftRec: a subparser was killed by dynamic left-recursion
	// detection. In SLL mode the overapproximated context can make this
	// spurious, so the result must be recomputed in LL mode; in LL mode it
	// is genuine and becomes a LeftRecursive error.
	anomalyLeftRec
	// anomalyBudget: the per-call closure step budget was exhausted — a
	// defensive backstop, unreachable for well-formed grammars. Every
	// exhaustion is counted in Stats.BudgetExhaustions; in SLL mode the
	// decision falls back to LL, in LL mode it becomes a structured error.
	anomalyBudget
	// anomalyGoverned: the parse's Governor halted the closure — context
	// canceled, deadline expired, or the cumulative MaxClosureWork limit
	// exhausted. The decision must abort with govErr immediately (retrying
	// in LL mode would burn the same budget), and the result must never be
	// interned into the shared SLL cache, where it would poison decisions
	// of unrelated parses sharing the DFA.
	anomalyGoverned
)

// closureResult is the outcome of closing a set of configs: the stable
// configs (top symbol is a terminal, or halted), plus anomaly bookkeeping.
type closureResult struct {
	stable  []config
	anomaly anomalyKind
	lrNT    grammar.NTID   // offending nonterminal for anomalyLeftRec
	govErr  *machine.Error // sticky governor failure for anomalyGoverned
}

// closureBudget bounds the number of closure expansions per call: generous
// enough for any realistic grammar, small enough to stop runaway fuzz
// inputs quickly. It is the per-call backstop, distinct from the cumulative
// Limits.MaxClosureWork that the parse's governor enforces.
const closureBudget = 1 << 20

// mode distinguishes the two prediction strategies where their pop
// behaviour differs.
type mode uint8

const (
	modeLL mode = iota
	modeSLL
)

// engine carries the pieces shared by all prediction calls: the compiled
// grammar and static analyses (immutable), the per-parse governor, the
// per-call closure budget, a pointer to the predictor's Stats so budget
// exhaustions are reported rather than silently absorbed, and the reused
// scratch buffers.
type engine struct {
	c       *grammar.Compiled
	targets *Targets
	gov     *machine.Governor
	budget  int // per-closure-call expansion budget (closureBudget)
	stats   *Stats
	scr     *scratch
}

// scratch is the engine's reusable prediction memory: worklists, the dedup
// set, the decision's frame table, alt summaries, the state-key buffer and
// the visited-set words. Everything here is recycled — buffers across calls,
// the frame table and the words at the start of each decision — so the warm
// prediction path allocates nothing.
//
// Lifetime contract: a []config returned by closure (res.stable), move, or
// altSummary is valid only until the engine's next call of the same kind,
// and every config's frames and visited set die when the current decision
// ends. What must outlive a decision — DFA states — is translated by
// Cache.intern into the cache generation's frame table and cache-owned
// keys.
type scratch struct {
	work    []config
	stable  []config
	moved   []config
	initial []config
	seen    configSet
	stacks  stacks
	alts    []int
	halted  []int
	key     []uint64           // the state key stateKey builds
	words   arena.Slab[uint64] // visited-set overflow words
}

// newScratch returns empty prediction scratch for the compiled grammar c.
func newScratch(c *grammar.Compiled) *scratch {
	return &scratch{seen: configSet{stamp: 1}, stacks: stacks{c: c, stamp: 1}}
}

// beginDecision recycles the decision-scoped scratch. Safe because nothing
// built in it survives a decision (see scratch).
func (e *engine) beginDecision() {
	e.scr.stacks.reset()
	e.scr.words.Reset()
}

// Targets is re-exported from analysis to keep this package's surface
// self-contained.
type Targets = targetsAlias

// frame is one suffix-stack frame [β] of a decision's subparsers at a
// grammar position: its rest is Rhs(prod)[dot:]. Once the rest is empty
// the position no longer matters and prod is -1 (dot 0). A frame of the
// machine's own stack, which only LL prediction reaches, has prod -2-k for
// the frame k levels below the decision's, and its rest is that machine
// frame's Rest[dot:]. below names the frame beneath, -1 for none. Frames
// hold no pointers, so building one costs the collector nothing.
type frame struct {
	genFrame
	gen int32 // intern's memo: the cache generation's frame for this stack, -1 unknown
}

// stacks is a decision's frame table: every frame its subparsers build,
// hash-consed on (lhs, prod, dot, below), so equal stacks get equal IDs.
// The index is open addressing over slots, each entry stamped with the
// decision that wrote it, so reset empties the table without clearing it.
type stacks struct {
	c       *grammar.Compiled
	fs      []frame
	slots   []uint64 // stamp<<32 | frame ID; an entry of another stamp is empty
	stamp   uint32
	genMemo []uint64 // generation frame ID → stamp<<32 | ID of its copy in fs
	machine []*machine.SuffixStack
}

// reset empties the table for the next decision.
func (s *stacks) reset() {
	s.fs = s.fs[:0]
	if s.stamp++; s.stamp == 0 {
		clear(s.slots)
		clear(s.genMemo)
		s.stamp = 1
	}
	if len(s.machine) > 0 {
		clear(s.machine) // pins no machine frame past the decision
		s.machine = s.machine[:0]
	}
}

// frameHash mixes a frame's identity for the open-addressing indexes.
func frameHash(lhs grammar.NTID, prod, dot, below int32) uint64 {
	h := (uint64(uint32(lhs)) | uint64(uint32(prod))<<32) * 0x9e3779b97f4a7c15
	h ^= (uint64(uint32(dot)) | uint64(uint32(below))<<32) * 0xc2b2ae3d27d4eb4f
	return h ^ h>>32
}

// intern returns the ID of the frame (lhs, prod, dot, below), adding it on
// first sight.
func (s *stacks) intern(lhs grammar.NTID, prod, dot, below int32) int32 {
	if 2*(len(s.fs)+1) > len(s.slots) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	//costar:allow governortick -- an open-addressing probe: the index is at most half full, so a probe meets an empty slot within its length
	for i := frameHash(lhs, prod, dot, below) & mask; ; i = (i + 1) & mask {
		e := s.slots[i]
		if uint32(e>>32) != s.stamp {
			id := int32(len(s.fs))
			s.fs = append(s.fs, frame{genFrame{lhs: lhs, prod: prod, dot: dot, below: below}, -1})
			s.slots[i] = uint64(s.stamp)<<32 | uint64(uint32(id))
			return id
		}
		if f := &s.fs[uint32(e)]; f.genFrame == (genFrame{lhs: lhs, prod: prod, dot: dot, below: below}) {
			return int32(uint32(e))
		}
	}
}

// grow doubles the index and refiles the decision's frames.
func (s *stacks) grow() {
	s.slots = make([]uint64, max(64, 2*len(s.slots)))
	mask := uint64(len(s.slots) - 1)
	for id := range s.fs {
		f := &s.fs[id]
		i := frameHash(f.lhs, f.prod, f.dot, f.below) & mask
		//costar:allow governortick -- an open-addressing probe: the index is at most half full, so a probe meets an empty slot within its length
		for uint32(s.slots[i]>>32) == s.stamp {
			i = (i + 1) & mask
		}
		s.slots[i] = uint64(s.stamp)<<32 | uint64(id)
	}
}

// rest returns the symbols left in f.
func (s *stacks) rest(f *frame) []grammar.SymID {
	switch {
	case f.prod >= 0:
		return s.c.Rhs(int(f.prod))[f.dot:]
	case f.prod == -1:
		return nil
	}
	return s.machine[-2-f.prod].F.Rest[f.dot:]
}

// push returns the frame at (prod, dot) of lhs on below; a production
// position with nothing left is the empty frame of lhs.
func (s *stacks) push(lhs grammar.NTID, prod, dot, below int32) int32 {
	if prod >= 0 && int(dot) == len(s.c.Rhs(int(prod))) {
		prod, dot = -1, 0
	}
	return s.intern(lhs, prod, dot, below)
}

// advance returns f with its head symbol consumed.
func (s *stacks) advance(f *frame) int32 {
	return s.push(f.lhs, f.prod, f.dot+1, f.below)
}

// enterMachine makes the machine's suffix stack the bottom of LL
// prediction's stacks and returns the frame of the decision's caller: the
// machine's top frame past the decision nonterminal. The frames beneath it
// enter one at a time, by machineBelow, as subparsers return into them.
func (s *stacks) enterMachine(suffix *machine.SuffixStack) int32 {
	s.machine = append(s.machine[:0], suffix)
	return s.intern(suffix.F.Lhs, -2, 1, -1)
}

// machineBelow returns the frame of the machine stack under the machine
// frame with position prod, or -1 when that frame is the bottom.
func (s *stacks) machineBelow(prod int32) int32 {
	k := int(-2-prod) + 1
	if k == len(s.machine) {
		next := s.machine[k-1].Below
		if next == nil {
			return -1
		}
		s.machine = append(s.machine, next)
	}
	return s.intern(s.machine[k].F.Lhs, int32(-2-k), 0, -1)
}

// fromGen returns the decision frame for generation frame id of gf, copying
// the stack into the table on its first use in the decision.
func (s *stacks) fromGen(gf *genFrames, id int32) int32 {
	if int(id) >= len(s.genMemo) {
		s.genMemo = append(s.genMemo, make([]uint64, max(int(id)+1, 2*len(s.genMemo))-len(s.genMemo))...)
	}
	if e := s.genMemo[id]; uint32(e>>32) == s.stamp {
		return int32(uint32(e))
	}
	f := gf.at(id)
	below := int32(-1)
	if f.below >= 0 {
		below = s.fromGen(gf, f.below)
	}
	d := s.intern(f.lhs, f.prod, f.dot, below)
	s.fs[d].gen = id
	s.genMemo[id] = uint64(s.stamp)<<32 | uint64(uint32(d))
	return d
}

// toGen returns the generation frame for decision frame id, hash-consing
// the stack into gf from the bottom up. The caller holds gf.mu or owns an
// unpublished generation; only SLL stacks, which hold no machine frame,
// are translated.
func (s *stacks) toGen(gf *genFrames, id int32) int32 {
	f := &s.fs[id]
	if f.gen >= 0 {
		return f.gen
	}
	below := int32(-1)
	if f.below >= 0 {
		below = s.toGen(gf, f.below)
	}
	g := gf.intern(genFrame{lhs: f.lhs, prod: f.prod, dot: f.dot, below: below})
	s.fs[id].gen = g
	if int(g) < len(s.genMemo) {
		s.genMemo[g] = uint64(s.stamp)<<32 | uint64(uint32(id))
	}
	return g
}

// configSet is closure's dedup set of config keys: open addressing over
// slots stamped with the closure call that wrote them, so reset empties it
// without clearing.
type configSet struct {
	slots []configSlot
	n     int
	stamp uint32
}

type configSlot struct {
	key   uint64
	stamp uint32
}

// reset empties the set.
func (s *configSet) reset() {
	s.n = 0
	if s.stamp++; s.stamp == 0 {
		clear(s.slots)
		s.stamp = 1
	}
}

// add inserts k and reports whether it was absent.
func (s *configSet) add(k uint64) bool {
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	//costar:allow governortick -- an open-addressing probe: the index is at most half full, so a probe meets an empty slot within its length
	for i := keyMix(k) & mask; ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.stamp != s.stamp {
			*sl = configSlot{key: k, stamp: s.stamp}
			s.n++
			return true
		}
		if sl.key == k {
			return false
		}
	}
}

// grow doubles the set, keeping the current call's keys.
func (s *configSet) grow() {
	old := s.slots
	s.slots = make([]configSlot, max(64, 2*len(old)))
	mask := uint64(len(s.slots) - 1)
	for _, sl := range old {
		if sl.stamp != s.stamp {
			continue
		}
		i := keyMix(sl.key) & mask
		//costar:allow governortick -- an open-addressing probe: the index is at most half full, so a probe meets an empty slot within its length
		for s.slots[i].stamp == s.stamp {
			i = (i + 1) & mask
		}
		s.slots[i] = sl
	}
}

func keyMix(k uint64) uint64 {
	k *= 0x9e3779b97f4a7c15
	return k ^ k>>32
}

// closure drives every config to a stable configuration, expanding
// nonterminals into all their right-hand sides (push), popping exhausted
// frames (return), and fanning empty SLL stacks out to their static return
// targets. Left-recursive expansions kill the config and record an anomaly.
//
// The input slice is consumed; the returned res.stable aliases engine
// scratch and is valid until the next closure call.
func (e *engine) closure(m mode, in []config) (res closureResult) {
	budget := e.budget
	work := append(e.scr.work[:0], in...)
	stable := e.scr.stable[:0]
	seen := &e.scr.seen
	seen.reset()
	st := &e.scr.stacks
	defer func() {
		// Hand the (possibly grown) buffers back so later calls reuse them.
		e.scr.work = work[:0]
		e.scr.stable = stable
		res.stable = stable
	}()
	for len(work) > 0 {
		if budget--; budget < 0 {
			e.stats.BudgetExhaustions++
			res.anomaly = anomalyBudget
			return res
		}
		if gErr := e.gov.ClosureTick(1); gErr != nil {
			res.anomaly = anomalyGoverned
			res.govErr = gErr
			return res
		}
		cfg := work[len(work)-1]
		work = work[:len(work)-1]

		// Every append to stable below follows this first sighting of the
		// config's key, so stable holds each key once.
		if !seen.add(cfg.key()) {
			continue
		}
		if cfg.top < 0 {
			stable = append(stable, cfg)
			continue
		}
		top := st.fs[cfg.top] // a copy: pushes below may grow st.fs
		rest := st.rest(&top)
		if len(rest) == 0 {
			below := top.below
			if below < 0 && top.prod < -1 {
				below = st.machineBelow(top.prod)
			}
			if below >= 0 {
				// Ordinary return to the caller frame.
				work = append(work, config{
					alt:     cfg.alt,
					top:     below,
					visited: cfg.visited.RemoveIn(&e.scr.words, top.lhs),
				})
				continue
			}
			if m == modeLL || top.lhs == grammar.NoNT {
				// Bottom of the real parse: a complete simulated parse.
				work = append(work, config{alt: cfg.alt, top: -1, visited: cfg.visited})
				continue
			}
			// SLL: the local context is exhausted at nonterminal top.lhs —
			// return into every statically possible continuation.
			v := cfg.visited.RemoveIn(&e.scr.words, top.lhs)
			for _, rt := range e.targets.For(top.lhs) {
				work = append(work, config{
					alt:     cfg.alt,
					top:     st.push(rt.Lhs, int32(rt.Prod), int32(rt.Dot+1), -1),
					visited: v,
				})
			}
			if e.targets.CanFinish(top.lhs) {
				work = append(work, config{alt: cfg.alt, top: -1, visited: v})
			}
			continue
		}
		head := rest[0]
		if head.IsT() {
			stable = append(stable, cfg)
			continue
		}
		// Push: expand the nonterminal into each right-hand side.
		x := head.NT()
		if cfg.visited.Contains(x) {
			if res.anomaly == anomalyNone {
				res.anomaly = anomalyLeftRec
				res.lrNT = x
			}
			continue // kill this subparser
		}
		prods := e.c.ProdsFor(x)
		if len(prods) == 0 {
			// Undefined nonterminal: derives nothing; the subparser dies.
			// (Validated grammars never reach this.)
			continue
		}
		below := st.advance(&top)
		v := cfg.visited.AddIn(&e.scr.words, x)
		for _, pi := range prods {
			work = append(work, config{
				alt:     cfg.alt,
				top:     st.push(x, int32(pi), 0, below),
				visited: v,
			})
		}
	}
	return res
}

// move advances every stable config across terminal t: configs whose top
// symbol matches consume it (and reset their visited set, mirroring the
// machine's consume); mismatching and halted configs die. An input terminal
// the grammar does not mention (NoTerm) matches nothing. The returned slice
// aliases engine scratch and is valid until the next move call.
func (e *engine) move(cfgs []config, t grammar.TermID) []config {
	out := e.scr.moved[:0]
	st := &e.scr.stacks
	for _, cfg := range cfgs {
		if cfg.top < 0 {
			continue // claimed the parse ends here, but input continues
		}
		f := &st.fs[cfg.top]
		if rest := st.rest(f); len(rest) == 0 || !rest[0].IsT() || rest[0].Term() != t {
			continue
		}
		out = append(out, config{alt: cfg.alt, top: st.advance(f)})
	}
	e.scr.moved = out[:0]
	return out
}

// moveState is move over the configs of DFA state keys, whose stacks live
// in the generation frame table gf: a matching config's stack enters the
// decision's table below its advanced top frame.
func (e *engine) moveState(gf *genFrames, keys []uint64, t grammar.TermID) []config {
	out := e.scr.moved[:0]
	st := &e.scr.stacks
	for _, k := range keys {
		top := int32(uint32(k))
		if top < 0 {
			continue
		}
		f := gf.at(top)
		if f.prod < 0 {
			continue
		}
		if s := e.c.Rhs(int(f.prod))[f.dot]; !s.IsT() || s.Term() != t {
			continue
		}
		below := int32(-1)
		if f.below >= 0 {
			below = st.fromGen(gf, f.below)
		}
		out = append(out, config{alt: int32(k >> 32), top: st.push(f.lhs, f.prod, f.dot+1, below)})
	}
	e.scr.moved = out[:0]
	return out
}

// stateKey translates the stable configs' stacks into the generation frame
// table gf and returns the state key: each config as alt<<32 | frame ID
// (haltedTop when halted), sorted. Frames are hash-consed under gf.mu,
// taken only when some stack is not in gf yet, and released before the
// caller takes a shard mutex. The key aliases engine scratch and is valid
// until the next stateKey call.
func (e *engine) stateKey(gf *genFrames, cfgs []config) []uint64 {
	st := &e.scr.stacks
	for _, cfg := range cfgs {
		if cfg.top >= 0 && st.fs[cfg.top].gen < 0 {
			gf.mu.Lock()
			for _, cfg := range cfgs {
				if cfg.top >= 0 {
					st.toGen(gf, cfg.top)
				}
			}
			gf.mu.Unlock()
			break
		}
	}
	key := e.scr.key[:0]
	for _, cfg := range cfgs {
		top := haltedTop
		if cfg.top >= 0 {
			top = uint32(st.fs[cfg.top].gen)
		}
		key = append(key, uint64(uint32(cfg.alt))<<32|uint64(top))
	}
	slices.Sort(key)
	e.scr.key = key
	return key
}

// altSummary returns the distinct alts over stable configs (halted and
// live), ascending. The returned slices alias engine scratch and are valid
// until the next altSummary call.
func (e *engine) altSummary(cfgs []config) (alts []int, haltedAlts []int) {
	alts, haltedAlts = summarizeAlts(cfgs, e.scr.alts[:0], e.scr.halted[:0])
	e.scr.alts, e.scr.halted = alts[:0], haltedAlts[:0]
	return alts, haltedAlts
}

// summarizeAlts appends the distinct alts over cfgs to alts and the
// distinct halted alts to haltedAlts, each ascending. The dedup is a linear
// scan — a decision has at most a handful of alternatives, where a map
// costs more than it saves.
func summarizeAlts(cfgs []config, alts, haltedAlts []int) ([]int, []int) {
	for _, c := range cfgs {
		if !containsInt(alts, int(c.alt)) {
			alts = append(alts, int(c.alt))
		}
		if c.top < 0 && !containsInt(haltedAlts, int(c.alt)) {
			haltedAlts = append(haltedAlts, int(c.alt))
		}
	}
	sort.Ints(alts)
	sort.Ints(haltedAlts)
	return alts, haltedAlts
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
