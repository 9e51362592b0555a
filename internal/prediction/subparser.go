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
// SLL steps are cached in a DFA keyed by subparser-set fingerprints; the
// cache persists across decisions, across a whole input, and (via parser
// sessions) across inputs. The cache is safe for concurrent use: states
// are content-addressed, so goroutines racing to extend the DFA intern
// identical states and converge (see Cache), which lets one warm DFA
// serve many parsing goroutines at once.
//
// Everything here runs on the compiled grammar: configs hold dense symbol
// IDs, the visited sets are bitsets, and DFA fingerprints are packed int32
// byte strings rather than symbol names — the §6.1 string-comparison cost
// the paper measures is gone from this hot path.
package prediction

import (
	"bytes"
	"cmp"
	"slices"
	"sort"

	"costar/internal/arena"
	"costar/internal/grammar"
	"costar/internal/machine"
)

// config is one subparser θ = (γ, Ψ): a candidate production (identified by
// its global index alt) plus a simulated suffix stack. A nil stack means
// the subparser has simulated a complete parse ("halted"); it survives only
// if the input ends exactly here.
type config struct {
	alt     int
	stack   *machine.SuffixStack
	visited machine.NTSet
}

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

// scratch is the engine's reusable prediction memory: worklists, dedup
// maps, alt summaries, and the arenas configs are built in. Everything here
// is recycled — buffers across calls, arenas at the start of each decision
// — so the warm prediction path allocates nothing.
//
// Lifetime contract: a []config returned by closure (res.stable), move, or
// altSummary is valid only until the engine's next call of the same kind,
// and every config's stack and visited set die when the current decision
// ends. Results that must outlive a decision — DFA states — are
// deep-copied by Cache.intern into cache-owned memory.
type scratch struct {
	work    []config
	stable  []config
	moved   []config
	initial []config
	seen    map[dedupKey]bool
	alts    []int
	halted  []int
	keys    keyBuf                           // canonical DFA-state keys
	suffix  arena.Arena[machine.SuffixStack] // closure-built stack nodes
	words   arena.Slab[uint64]               // visited-set overflow words
}

// beginDecision recycles the decision-scoped arenas. Safe because nothing
// allocated from them survives a decision (see scratch).
func (e *engine) beginDecision() {
	e.scr.suffix.Reset()
	e.scr.words.Reset()
}

// push allocates a suffix node from the decision arena.
func (e *engine) push(f machine.SuffixFrame, below *machine.SuffixStack) *machine.SuffixStack {
	return e.scr.suffix.New(machine.SuffixStack{F: f, Below: below})
}

// Targets is re-exported from analysis to keep this package's surface
// self-contained.
type Targets = targetsAlias

// dedupKey identifies a config cheaply for closure-time merging: the top
// frame by content (Rest slices alias compiled production arrays, so the
// address of their first element pins the grammar position) and the tail by
// pointer. The visited set is deliberately excluded: within a round every
// config starts with an empty visited set (move clears it), so two configs
// with equal (alt, stack) have futures that differ at most in when a
// left-recursion kill fires — and any such kill still witnesses a genuine
// nullable loop. Merging is therefore sound, and it is what keeps closure
// polynomial on deep expression grammars.
type dedupKey struct {
	alt      int
	lhs      grammar.NTID
	restHead *grammar.SymID
	restLen  int
	below    *machine.SuffixStack
	halted   bool
}

func keyOf(c config) dedupKey {
	k := dedupKey{alt: c.alt}
	if c.stack == nil {
		k.halted = true
		return k
	}
	k.lhs = c.stack.F.Lhs
	k.restLen = len(c.stack.F.Rest)
	if k.restLen > 0 {
		k.restHead = &c.stack.F.Rest[0]
	}
	k.below = c.stack.Below
	return k
}

// closure drives every config to a stable configuration, expanding
// nonterminals into all their right-hand sides (push), popping exhausted
// frames (return), and fanning empty SLL stacks out to their static return
// targets. Left-recursive expansions kill the config and record an anomaly.
//
// The input slice is consumed; the returned res.stable aliases engine
// scratch and is valid until the next closure call (Cache.intern copies).
func (e *engine) closure(m mode, in []config) (res closureResult) {
	budget := e.budget
	work := append(e.scr.work[:0], in...)
	stable := e.scr.stable[:0]
	seen := e.scr.seen
	if seen == nil {
		seen = make(map[dedupKey]bool)
		e.scr.seen = seen
	} else {
		clear(seen)
	}
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

		key := keyOf(cfg)
		if seen[key] {
			continue
		}
		seen[key] = true

		// Every append to stable below follows this first sighting of the
		// config's key, so stable holds each key once.
		if cfg.stack == nil {
			stable = append(stable, cfg)
			continue
		}
		top := cfg.stack.F
		if len(top.Rest) == 0 {
			if cfg.stack.Below != nil {
				// Ordinary return to the caller frame.
				work = append(work, config{
					alt:     cfg.alt,
					stack:   cfg.stack.Below,
					visited: cfg.visited.RemoveIn(&e.scr.words, top.Lhs),
				})
				continue
			}
			if m == modeLL || top.Lhs == grammar.NoNT {
				// Bottom of the real parse: a complete simulated parse.
				work = append(work, config{alt: cfg.alt, visited: cfg.visited})
				continue
			}
			// SLL: the local context is exhausted at nonterminal top.Lhs —
			// return into every statically possible continuation.
			v := cfg.visited.RemoveIn(&e.scr.words, top.Lhs)
			for _, rt := range e.targets.For(top.Lhs) {
				work = append(work, config{
					alt:     cfg.alt,
					stack:   e.push(machine.SuffixFrame{Lhs: rt.Lhs, Rest: rt.Rest}, nil),
					visited: v,
				})
			}
			if e.targets.CanFinish(top.Lhs) {
				work = append(work, config{alt: cfg.alt, visited: v})
			}
			continue
		}
		head := top.Rest[0]
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
		caller := machine.SuffixFrame{Lhs: top.Lhs, Rest: top.Rest[1:]}
		below := e.push(caller, cfg.stack.Below)
		v := cfg.visited.AddIn(&e.scr.words, x)
		for _, pi := range prods {
			work = append(work, config{
				alt:     cfg.alt,
				stack:   e.push(machine.SuffixFrame{Lhs: x, Rest: e.c.Rhs(pi)}, below),
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
	for _, cfg := range cfgs {
		if cfg.stack == nil {
			continue // claimed the parse ends here, but input continues
		}
		top := cfg.stack.F
		if len(top.Rest) == 0 || !top.Rest[0].IsT() || top.Rest[0].Term() != t {
			continue
		}
		out = append(out, config{
			alt:   cfg.alt,
			stack: e.push(machine.SuffixFrame{Lhs: top.Lhs, Rest: top.Rest[1:]}, cfg.stack.Below),
		})
	}
	e.scr.moved = out[:0]
	return out
}

func appendInt32(b []byte, v int32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// Fingerprint frame markers: every frame is introduced by fpFrame and the
// serialization ends with fpLive or fpHalted, so the packed byte string is
// prefix-free across configs with different stack shapes.
const (
	fpLive   = 0
	fpFrame  = 1
	fpHalted = 2
)

// appendFingerprint serializes the config as packed int32 bytes for
// canonical state identity. The visited set is left out: it is irrelevant
// once a config is stable, because the next move clears it. Unlike the
// pre-compilation fingerprint, no symbol name is rendered: identity is a
// flat byte-compare over IDs, which is what makes DFA-state interning
// cheap enough for the warm path.
func (c config) appendFingerprint(b []byte) []byte {
	b = appendInt32(b, int32(c.alt))
	for s := c.stack; s != nil; s = s.Below {
		b = append(b, fpFrame)
		b = appendInt32(b, int32(s.F.Lhs))
		b = appendInt32(b, int32(len(s.F.Rest)))
		for _, sym := range s.F.Rest {
			b = appendInt32(b, int32(sym))
		}
	}
	if c.stack == nil {
		b = append(b, fpHalted)
	} else {
		b = append(b, fpLive)
	}
	return b
}

// fingerprint is appendFingerprint as an immutable string key.
func (c config) fingerprint() string {
	return string(c.appendFingerprint(nil))
}

// keyBuf is reusable memory for canonical state keys: the packed
// fingerprint buffer, per-config offsets, the sort permutation, and the
// reordered configs. Interning builds every key here, so probing the cache
// for an existing state allocates nothing.
type keyBuf struct {
	buf    []byte
	offs   []int // offs[i]: start of config i's length prefix; offs[len]: end
	idx    []int
	sorted []config
	key    []byte
}

// build orders cfgs canonically in place (by alt, then content
// fingerprint) and returns the packed state key: one anomaly byte followed
// by the length-prefixed config fingerprints in sorted order. Fingerprints
// are built once each into the shared buffer and compared as byte slices —
// they dominate DFA-state interning cost, so neither a per-config string
// nor a comparator-time recomputation is affordable. The returned key
// aliases kb and is valid until the next build.
func (kb *keyBuf) build(anomalous bool, cfgs []config) []byte {
	buf := append(kb.buf[:0], 0)
	if anomalous {
		buf[0] = 1
	}
	offs := append(kb.offs[:0], 1)
	for i := range cfgs {
		buf = appendInt32(buf, 0) // placeholder, patched below
		start := len(buf)
		buf = cfgs[i].appendFingerprint(buf)
		n := int32(len(buf) - start)
		buf[start-4], buf[start-3], buf[start-2], buf[start-1] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
		offs = append(offs, len(buf))
	}
	idx := kb.idx[:0]
	for i := range cfgs {
		idx = append(idx, i)
	}
	kb.buf, kb.offs, kb.idx = buf, offs, idx
	slices.SortFunc(idx, func(i, j int) int {
		if c := cmp.Compare(cfgs[i].alt, cfgs[j].alt); c != 0 {
			return c
		}
		return bytes.Compare(buf[offs[i]+4:offs[i+1]], buf[offs[j]+4:offs[j+1]])
	})
	inOrder := true
	for i, j := range idx {
		if i != j {
			inOrder = false
			break
		}
	}
	if inOrder {
		return buf
	}
	sorted := kb.sorted[:0]
	for _, i := range idx {
		sorted = append(sorted, cfgs[i])
	}
	copy(cfgs, sorted)
	key := append(kb.key[:0], buf[0])
	for _, i := range idx {
		key = append(key, buf[offs[i]:offs[i+1]]...)
	}
	kb.sorted, kb.key = sorted, key
	return key
}

// altSummary returns the distinct alts over stable configs (halted and
// live), ascending. The returned slices alias engine scratch and are valid
// until the next altSummary call; Cache.intern copies what it retains.
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
		if !containsInt(alts, c.alt) {
			alts = append(alts, c.alt)
		}
		if c.stack == nil && !containsInt(haltedAlts, c.alt) {
			haltedAlts = append(haltedAlts, c.alt)
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
