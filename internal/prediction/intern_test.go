package prediction

// Tests for the interning path: keys built in scratch must be byte-identical
// to the plain reference construction (artifact export orders states by
// key, so the format is pinned), a probe that finds an existing state must
// not allocate, a new state must cost O(1) allocations however many frames
// it copies, and the hash-keyed table must find states by content.

import (
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"costar/internal/grammar"
	"costar/internal/languages/pylang"
	"costar/internal/machine"
	"costar/internal/source"
)

// referenceKey is the canonical key built the obvious way: one string per
// config fingerprint, ordered by (alt, fingerprint), each length-prefixed
// behind the anomaly byte. It returns the key and the canonical order.
func referenceKey(anomalous bool, cfgs []config) (string, []config) {
	type entry struct {
		cfg config
		fp  string
	}
	es := make([]entry, len(cfgs))
	for i, c := range cfgs {
		es[i] = entry{c, c.fingerprint()}
	}
	sort.SliceStable(es, func(a, b int) bool {
		if es[a].cfg.alt != es[b].cfg.alt {
			return es[a].cfg.alt < es[b].cfg.alt
		}
		return es[a].fp < es[b].fp
	})
	var b strings.Builder
	if anomalous {
		b.WriteByte(1)
	} else {
		b.WriteByte(0)
	}
	order := make([]config, len(es))
	for i, e := range es {
		b.Write(appendInt32(nil, int32(len(e.fp))))
		b.WriteString(e.fp)
		order[i] = e.cfg
	}
	return b.String(), order
}

// pythonClosures calls visit with the SLL closure of every one-token move
// out of every Python decision's start state: real subparser sets with
// deep stacks, halted configs and visited overflow words (the grammar has
// more than 64 nonterminals).
func pythonClosures(t *testing.T, visit func(ap *AdaptivePredictor, stable []config)) {
	t.Helper()
	g := pylang.Lang.Grammar()
	c := g.Compiled()
	ap := New(g, Options{})
	for nt := grammar.NTID(0); int(nt) < c.NumNTs(); nt++ {
		if len(c.ProdsFor(nt)) < 2 {
			continue
		}
		ap.eng.beginDecision()
		st := ap.buildStart(nt)
		for term := grammar.TermID(0); int(term) < c.NumTerms(); term++ {
			res := ap.eng.closure(modeSLL, ap.eng.move(st.configs, term))
			if len(res.stable) > 0 {
				visit(ap, res.stable)
			}
		}
	}
}

func TestCanonicalKeyMatchesReference(t *testing.T) {
	var kb keyBuf
	checked, reordered := 0, 0
	pythonClosures(t, func(_ *AdaptivePredictor, stable []config) {
		for _, anomalous := range []bool{false, true} {
			for _, reverse := range []bool{false, true} {
				cfgs := slices.Clone(stable)
				if reverse {
					slices.Reverse(cfgs)
				}
				want, order := referenceKey(anomalous, cfgs)
				if got := kb.build(anomalous, cfgs); string(got) != want {
					t.Fatalf("scratch-built key differs from the reference (%d configs)", len(cfgs))
				}
				for i := range cfgs {
					if cfgs[i].alt != order[i].alt || cfgs[i].fingerprint() != order[i].fingerprint() {
						t.Fatalf("config %d not in canonical order", i)
					}
				}
				if reverse && len(cfgs) > 1 {
					reordered++
				}
			}
		}
		checked++
	})
	if checked < 100 || reordered == 0 {
		t.Fatalf("checked %d closure results (%d reordered); the Python grammar should give hundreds", checked, reordered)
	}
}

// TestInternAllocations pins the allocation cost of the SLL miss path: a
// miss whose successor state is already interned allocates nothing, and a
// new state allocates only amortized slab and table growth — measured at
// 0.54 allocs per new state (1.54 while each state kept its key string).
func TestInternAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	// The closures alias decision arenas that are recycled per decision,
	// so each is copied out before the next one is built.
	var results []closureResult
	var eng *engine
	own := &stateMem{}
	pythonClosures(t, func(ap *AdaptivePredictor, stable []config) {
		eng = &ap.eng
		results = append(results, closureResult{stable: own.copyConfigs(stable)})
	})

	c := NewCache(pylang.Lang.Grammar().Compiled())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for _, r := range results {
		c.intern(eng, r)
	}
	runtime.ReadMemStats(&ms)
	_, states := c.Size()
	perState := float64(ms.Mallocs-before) / float64(states)
	t.Logf("%d closure results, %d distinct states, %.2f allocs per new state", len(results), states, perState)
	if perState > 2 {
		t.Errorf("interning allocates %.2f times per new state; want amortized slab and table growth", perState)
	}
	i := 0
	if probe := testing.AllocsPerRun(len(results)-1, func() {
		c.intern(eng, results[i])
		i++
	}); probe != 0 {
		t.Errorf("probing existing states allocates %.2f times per call, want 0", probe)
	}
}

// TestInternShardsPartitionStates checks the sharded state table: every
// state sits under its re-derived key's hash in the shard that hash picks,
// the shards together hold each state once and agree with Size, and real
// keys spread over every shard.
func TestInternShardsPartitionStates(t *testing.T) {
	c := NewCache(pylang.Lang.Grammar().Compiled())
	interned := 0
	pythonClosures(t, func(ap *AdaptivePredictor, stable []config) {
		c.intern(&ap.eng, closureResult{stable: stable})
		interned++
	})
	g := c.gen.Load()
	var kb keyBuf
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
				key := kb.build(st.anomalous, slices.Clone(st.configs))
				if keyHash(key) != h || g.shard(h) != sh {
					t.Fatalf("state filed under shard %d does not hash there", i)
				}
			}
		}
	}
	if _, states := c.Size(); states != len(filed) || len(g.all()) != len(filed) {
		t.Fatalf("Size reports %d states, shards hold %d, all returns %d", states, len(filed), len(g.all()))
	}
}

// TestInternHashCollisions files states with different content under one
// forced hash: the table chains them, and a lookup confirms a candidate by
// content, so each state is found by its own configs and a third content,
// looked up under the same hash but never filed, misses.
func TestInternHashCollisions(t *testing.T) {
	var kb keyBuf
	own := &stateMem{}
	var distinct [][]config
	seen := map[string]bool{}
	pythonClosures(t, func(_ *AdaptivePredictor, stable []config) {
		if len(distinct) == 3 {
			return
		}
		cfgs := own.copyConfigs(stable)
		if key := string(kb.build(false, cfgs)); !seen[key] {
			seen[key] = true
			distinct = append(distinct, cfgs)
		}
	})
	if len(distinct) < 3 {
		t.Fatalf("found %d distinct closure results, want 3", len(distinct))
	}
	const h = 42
	sh := &NewCache(pylang.Lang.Grammar().Compiled()).gen.Load().shards[h%internShards]
	var filed []*dfaState
	for _, cfgs := range distinct[:2] {
		st := sh.mem.newDFAState(sh.mem.copyConfigs(cfgs), nil, nil, false, 0)
		sh.file(h, st)
		filed = append(filed, st)
	}
	for i, cfgs := range distinct[:2] {
		if got := sh.lookup(h, false, cfgs); got != filed[i] {
			t.Errorf("lookup of state %d's content under the shared hash found the wrong state", i)
		}
		if got := sh.lookup(h, true, cfgs); got != nil {
			t.Errorf("lookup of state %d's content with the anomaly flag set found a state", i)
		}
	}
	if got := sh.lookup(h, false, distinct[2]); got != nil {
		t.Errorf("lookup of unfiled content under the shared hash found a state")
	}
}

// TestInternedStatesOutliveScratch checks the lifetime half of the intern
// contract: states built from decision scratch keep their content after
// the scratch arenas are recycled and reused.
func TestInternedStatesOutliveScratch(t *testing.T) {
	g := fig2()
	c := g.Compiled()
	ap := New(g, Options{})
	sID, _ := c.NTIDOf("S")
	w := word("a", "a", "b", "c")
	ap.Predict(sID, machine.Init(g, g.Start, w).Suffix, source.FromTokens(c, w))
	states := ap.Cache().gen.Load().all()
	before := make([]string, len(states))
	for i, st := range states {
		var b strings.Builder
		for _, cfg := range st.configs {
			b.WriteString(cfg.fingerprint())
		}
		before[i] = b.String()
	}
	// Churn the scratch: many decisions on other words reset and refill
	// the decision arenas the states were built from.
	for _, w := range raceWords(40) {
		ap.Predict(sID, machine.Init(g, g.Start, w).Suffix, source.FromTokens(c, w))
	}
	for i, st := range states {
		want := before[i]
		var b strings.Builder
		for _, cfg := range st.configs {
			b.WriteString(cfg.fingerprint())
		}
		if b.String() != want {
			t.Fatalf("interned state changed after its scratch was recycled")
		}
	}
}
