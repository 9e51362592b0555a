package prediction

// Tests for the interning path: every stack gets one frame ID however it
// was built, so the key built in scratch equals a plain reference
// construction over stack contents; a probe that finds an existing state
// must not allocate; a new state must cost O(1) allocations however deep
// its stacks; and the hash-keyed table must find states by key.

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"costar/internal/grammar"
	"costar/internal/languages/pylang"
	"costar/internal/machine"
	"costar/internal/source"
)

// pythonClosures calls visit with the SLL closure of every one-token move
// out of every Python decision's start state, interning into ap's cache:
// real subparser sets with deep stacks, halted configs and visited overflow
// words (the grammar has more than 64 nonterminals). stable is decision
// scratch, valid only during the call.
func pythonClosures(ap *AdaptivePredictor, visit func(stable []config)) {
	c := ap.eng.c
	g := ap.cache.gen.Load()
	for nt := grammar.NTID(0); int(nt) < c.NumNTs(); nt++ {
		if len(c.ProdsFor(nt)) < 2 {
			continue
		}
		ap.eng.beginDecision()
		st := ap.buildStart(g, nt)
		for term := grammar.TermID(0); int(term) < c.NumTerms(); term++ {
			res := ap.eng.closure(modeSLL, ap.eng.moveState(&g.frames, st.configs, term))
			if len(res.stable) > 0 {
				visit(res.stable)
			}
		}
	}
}

func pythonPredictor() *AdaptivePredictor { return New(pylang.Lang.Grammar(), Options{}) }

// decisionStack renders the stack under decision frame id by content: per
// frame from the top, its nonterminal and grammar position.
func decisionStack(st *stacks, id int32) string {
	var b strings.Builder
	for ; id >= 0; id = st.fs[id].below {
		f := st.fs[id]
		fmt.Fprintf(&b, "%d:%d.%d/", f.lhs, f.prod, f.dot)
	}
	return b.String()
}

// genStack renders the stack under generation frame id like decisionStack.
func genStack(gf *genFrames, id int32) string {
	var b strings.Builder
	for ; id >= 0; id = gf.at(id).below {
		f := gf.at(id)
		fmt.Fprintf(&b, "%d:%d.%d/", f.lhs, f.prod, f.dot)
	}
	return b.String()
}

// TestStateKeyMatchesReference checks the key stateKey builds against the
// obvious construction: find each config's stack among the generation's
// frames by content, and sort the alt<<32 | frame words. It also checks
// that no two generation frames hold one stack and that the key does not
// depend on the configs' order.
func TestStateKeyMatchesReference(t *testing.T) {
	ap := pythonPredictor()
	gf := &ap.cache.gen.Load().frames
	byContent := map[string]int32{}
	checked, reordered := 0, 0
	pythonClosures(ap, func(stable []config) {
		for _, reverse := range []bool{false, true} {
			cfgs := slices.Clone(stable)
			if reverse {
				slices.Reverse(cfgs)
			}
			got := slices.Clone(ap.eng.stateKey(gf, cfgs))
			for id := int32(len(byContent)); id < gf.n; id++ {
				s := genStack(gf, id)
				if _, dup := byContent[s]; dup {
					t.Fatalf("generation frames %d and %d hold one stack %s", byContent[s], id, s)
				}
				byContent[s] = id
			}
			var want []uint64
			for _, c := range cfgs {
				top := haltedTop
				if c.top >= 0 {
					id, ok := byContent[decisionStack(&ap.eng.scr.stacks, c.top)]
					if !ok {
						t.Fatalf("config stack %s is not in the generation", decisionStack(&ap.eng.scr.stacks, c.top))
					}
					top = uint32(id)
				}
				want = append(want, uint64(uint32(c.alt))<<32|uint64(top))
			}
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("scratch-built key differs from the reference (%d configs)", len(cfgs))
			}
			if reverse && len(cfgs) > 1 {
				reordered++
			}
		}
		checked++
	})
	if checked < 100 || reordered == 0 {
		t.Fatalf("checked %d closure results (%d reordered); the Python grammar should give hundreds", checked, reordered)
	}
}

// TestStateKeys pins what a state key tells apart: a stack is named by one
// frame ID however it was built (pushed, advanced, copied in from the
// generation), a frame with nothing left forgets its position, and a key
// encodes each config's alt and halted-ness but not its visited set.
func TestStateKeys(t *testing.T) {
	g := grammar.MustParseBNF(`S -> a B | B ; B -> b | c`)
	c := g.Compiled()
	ap := New(g, Options{})
	gf := &ap.cache.gen.Load().frames
	st := &ap.eng.scr.stacks
	sID, _ := c.NTIDOf("S")
	bID, _ := c.NTIDOf("B")
	sProds, bProds := c.ProdsFor(sID), c.ProdsFor(bID)
	ap.eng.beginDecision()

	caller := st.push(sID, int32(sProds[0]), 1, -1)
	if adv := st.advance(&st.fs[st.push(sID, int32(sProds[0]), 0, -1)]); adv != caller {
		t.Errorf("advancing S -> . a B gave frame %d, pushing S -> a . B gave %d", adv, caller)
	}
	done := st.push(bID, int32(bProds[0]), 1, caller)
	if other := st.push(bID, int32(bProds[1]), 1, caller); other != done {
		t.Errorf("two finished B frames on one caller got frames %d and %d", done, other)
	}
	if other := st.push(bID, int32(bProds[0]), 1, -1); other == done {
		t.Error("finished B frames on different stacks share a frame")
	}
	if st.fs[done].prod != -1 || len(st.rest(&st.fs[done])) != 0 {
		t.Errorf("a finished frame keeps position %d.%d", st.fs[done].prod, st.fs[done].dot)
	}

	key := func(cfgs ...config) []uint64 { return slices.Clone(ap.eng.stateKey(gf, cfgs)) }
	live := config{alt: 1, top: done}
	if slices.Equal(key(live), key(config{alt: 2, top: done})) {
		t.Error("alt not encoded in the key")
	}
	if slices.Equal(key(config{alt: 1, top: -1}), key(live)) {
		t.Error("a halted config must differ from a live config whose top frame is empty")
	}
	if !slices.Equal(key(live), key(config{alt: 1, top: done, visited: machine.NTSet{}.Add(3)})) {
		t.Error("visited set must not affect canonical identity")
	}
	if !slices.Equal(key(live, config{alt: 0, top: caller}), key(config{alt: 0, top: caller}, live)) {
		t.Error("the key depends on the configs' order")
	}

	// A stack copied back from the generation in a later decision is the
	// stack a push builds there.
	gid := st.fs[done].gen
	ap.eng.beginDecision()
	again := st.push(bID, int32(bProds[1]), 1, st.push(sID, int32(sProds[0]), 1, -1))
	if copied := st.fromGen(gf, gid); copied != again {
		t.Errorf("the generation's stack entered as frame %d, the same stack pushed is frame %d", copied, again)
	}
	if st.fs[again].gen != gid {
		t.Errorf("the pushed stack's generation frame is %d, want %d", st.fs[again].gen, gid)
	}
}

// TestInternAllocations pins the allocation cost of the SLL miss path: a
// miss whose successor state is already interned allocates nothing, and a
// new state allocates only amortized slab, frame-table and state-table
// growth — measured at 0.14 allocs per new state (0.46–0.54 while states
// copied stacks, 1.54 while each state kept its key string).
func TestInternAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ap := pythonPredictor()
	g := ap.cache.gen.Load()
	intern := func(stable []config) {
		ap.cache.intern(&ap.eng, g, closureResult{stable: stable})
	}
	// Warm the decision scratch first, so the counted pass measures
	// interning.
	pythonClosures(ap, func([]config) {})
	_, before := ap.cache.Size()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	pythonClosures(ap, intern)
	runtime.ReadMemStats(&ms)
	_, after := ap.cache.Size()
	perState := float64(ms.Mallocs-mallocs) / float64(after-before)
	t.Logf("%d new states, %d frames, %.2f allocs per new state", after-before, g.frames.n, perState)
	if perState > 2 {
		t.Errorf("interning allocates %.2f times per new state; want amortized slab and table growth", perState)
	}
	if probe := testing.AllocsPerRun(1, func() { pythonClosures(ap, intern) }); probe != 0 {
		t.Errorf("a pass that finds every state interned allocates %.0f times, want 0", probe)
	}
}

// TestInternShardsPartitionStates checks the sharded state table: every
// state sits under its key's hash in the shard that hash picks, the shards
// together hold each state once and agree with Size, and real keys spread
// over every shard.
func TestInternShardsPartitionStates(t *testing.T) {
	ap := pythonPredictor()
	g := ap.cache.gen.Load()
	interned := 0
	pythonClosures(ap, func(stable []config) {
		ap.cache.intern(&ap.eng, g, closureResult{stable: stable})
		interned++
	})
	filed := map[*dfaState]bool{}
	for i := range g.shards {
		sh := &g.shards[i]
		if len(sh.states) == 0 {
			t.Errorf("shard %d is empty after %d interned closures", i, interned)
		}
		for h, st := range sh.states {
			for ; st != nil; st = st.next {
				if filed[st] {
					t.Fatalf("a state is filed twice")
				}
				filed[st] = true
				if keyHash(st.anomalous, st.configs) != h || g.shard(h) != sh {
					t.Fatalf("state filed under shard %d does not hash there", i)
				}
				if !slices.IsSorted(st.configs) {
					t.Fatalf("a state's key is not sorted")
				}
			}
		}
	}
	if _, states := ap.cache.Size(); states != len(filed) || len(g.all()) != len(filed) {
		t.Fatalf("Size reports %d states, shards hold %d, all returns %d", states, len(filed), len(g.all()))
	}
}

// TestInternHashCollisions files states with different keys under one
// forced hash: the table chains them, and a lookup confirms a candidate by
// its key and anomaly flag, so each state is found by its own key and a
// third key, looked up under the same hash but never filed, misses.
func TestInternHashCollisions(t *testing.T) {
	ap := pythonPredictor()
	gf := &ap.cache.gen.Load().frames
	var distinct [][]uint64
	pythonClosures(ap, func(stable []config) {
		key := slices.Clone(ap.eng.stateKey(gf, stable))
		if len(distinct) < 3 && !slices.ContainsFunc(distinct, func(k []uint64) bool { return slices.Equal(k, key) }) {
			distinct = append(distinct, key)
		}
	})
	if len(distinct) < 3 {
		t.Fatalf("found %d distinct closure results, want 3", len(distinct))
	}
	const h = 42
	sh := &NewCache(pylang.Lang.Grammar().Compiled()).gen.Load().shards[h%internShards]
	var filed []*dfaState
	for _, key := range distinct[:2] {
		st := sh.mem.newDFAState(sh.mem.copyKey(key), false, 0)
		sh.file(h, st)
		filed = append(filed, st)
	}
	for i, key := range distinct[:2] {
		if got := sh.lookup(h, false, key); got != filed[i] {
			t.Errorf("lookup of state %d's key under the shared hash found the wrong state", i)
		}
		if got := sh.lookup(h, true, key); got != nil {
			t.Errorf("lookup of state %d's key with the anomaly flag set found a state", i)
		}
	}
	if got := sh.lookup(h, false, distinct[2]); got != nil {
		t.Errorf("lookup of an unfiled key under the shared hash found a state")
	}
}

// TestInternedStatesOutliveScratch checks the lifetime half of the intern
// contract: states built from decision scratch keep their content after
// the scratch is recycled and reused.
func TestInternedStatesOutliveScratch(t *testing.T) {
	g := fig2()
	c := g.Compiled()
	ap := New(g, Options{})
	sID, _ := c.NTIDOf("S")
	w := word("a", "a", "b", "c")
	ap.Predict(sID, machine.Init(g, g.Start, w).Suffix, source.FromTokens(c, w))
	gen := ap.Cache().gen.Load()
	render := func(st *dfaState) string {
		var b strings.Builder
		for _, k := range st.configs {
			fmt.Fprintf(&b, "%d[", k>>32)
			if top := int32(uint32(k)); top >= 0 {
				b.WriteString(genStack(&gen.frames, top))
			}
			b.WriteString("]")
		}
		return b.String()
	}
	states := gen.all()
	before := make([]string, len(states))
	for i, st := range states {
		before[i] = render(st)
	}
	// Churn the scratch: many decisions on other words reset and refill
	// the decision tables the states were built from.
	for _, w := range raceWords(40) {
		ap.Predict(sID, machine.Init(g, g.Start, w).Suffix, source.FromTokens(c, w))
	}
	for i, st := range states {
		if render(st) != before[i] {
			t.Fatalf("interned state changed after its scratch was recycled")
		}
	}
}
