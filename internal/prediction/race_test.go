package prediction

// Concurrency tests for the shared SLL DFA cache. Run with -race: the
// interesting property is not just that answers are right but that racing
// builders, edge-extenders, and Size/Reset callers never trip the race
// detector. The tests force heavy edge construction by fanning many
// goroutines over many distinct lookahead words on a cold cache.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"costar/internal/grammar"
	"costar/internal/machine"
	"costar/internal/source"
)

// raceWords builds a family of distinct fig2 words: a^n b (c|d), so every
// depth forces a different DFA path and racing goroutines collide on the
// same states and edges.
func raceWords(n int) [][]grammar.Token {
	var out [][]grammar.Token
	for i := 0; i < n; i++ {
		var w []grammar.Token
		for j := 0; j < i%17; j++ {
			w = append(w, grammar.Tok("a", "a"))
		}
		w = append(w, grammar.Tok("b", "b"))
		if i%2 == 0 {
			w = append(w, grammar.Tok("c", "c"))
		} else {
			w = append(w, grammar.Tok("d", "d"))
		}
		out = append(out, w)
	}
	return out
}

// TestCacheConcurrentWarm shares one cold Cache among many goroutines, each
// with its own predictor, and checks every concurrent prediction against a
// sequential reference predictor on a private cache.
func TestCacheConcurrentWarm(t *testing.T) {
	g := fig2()
	words := raceWords(64)

	c := g.Compiled()
	startID, _ := c.NTIDOf("S")
	ref := New(g, Options{})
	want := make([]machine.Prediction, len(words))
	for i, w := range words {
		want[i] = ref.Predict(startID, machine.Init(g, g.Start, w).Suffix, source.FromTokens(c, w))
	}

	shared := NewCache(g.Compiled())
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*len(words))
	for k := 0; k < goroutines; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			ap := New(g, Options{Cache: shared})
			for off := 0; off < len(words); off++ {
				i := (off + k*7) % len(words) // distinct orders per goroutine
				w := words[i]
				got := ap.Predict(startID, machine.Init(g, g.Start, w).Suffix, source.FromTokens(c, w))
				if got.Kind != want[i].Kind {
					errs <- fmt.Sprintf("word %s: kind %v, want %v", grammar.WordString(w), got.Kind, want[i].Kind)
				} else if got.Kind == machine.PredUnique && &got.Rhs[0] != &want[i].Rhs[0] {
					errs <- fmt.Sprintf("word %s: predicted a different production", grammar.WordString(w))
				}
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// The shared cache must have converged to the same DFA the sequential
	// reference built: content addressing means equal state sets, and the
	// frame IDs racing goroutines assigned in their own orders never reach
	// an export.
	refStarts, refStates := ref.Cache().Size()
	starts, states := shared.Size()
	if starts != refStarts || states != refStates {
		t.Errorf("shared cache (%d starts, %d states) != sequential cache (%d, %d)",
			starts, states, refStarts, refStates)
	}
	refSnap, err := ref.Cache().Export(c)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := shared.Export(c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, refSnap) {
		t.Errorf("the shared cache exports differently from the sequential cache (%d vs %d frames)",
			len(snap.Frames), len(refSnap.Frames))
	}
}

// TestCacheConcurrentParses runs whole parses (machine + prediction) over a
// shared cache, mixed with concurrent Size readers and a mid-flight Reset,
// which must be safe (in-flight parses keep their snapshot).
func TestCacheConcurrentParses(t *testing.T) {
	g := fig2()
	words := raceWords(32)
	shared := NewCache(g.Compiled())
	var wg sync.WaitGroup
	for k := 0; k < 6; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			ap := New(g, Options{Cache: shared})
			for i, w := range words {
				res := parse(g, ap, w)
				if res.Kind != machine.Unique {
					t.Errorf("goroutine %d word %d: %v (%s)", k, i, res.Kind, res.Reason)
					return
				}
			}
		}(k)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			starts, states := shared.Size()
			if starts < 0 || states < 0 {
				t.Error("negative cache size")
				return
			}
			if i == 100 {
				shared.Reset()
			}
		}
	}()
	wg.Wait()
}

// TestCacheEdgeIdempotence checks the interning invariant directly: racing
// setEdge calls for one (state, terminal) pair converge on a single
// successor pointer.
func TestCacheEdgeIdempotence(t *testing.T) {
	g := fig2()
	c := g.Compiled()
	startID, _ := c.NTIDOf("S")
	aID, _ := c.TermIDOf("a")
	shared := NewCache(g.Compiled())
	const goroutines = 16
	got := make([]*dfaState, goroutines)
	var wg sync.WaitGroup
	for k := 0; k < goroutines; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			ap := New(g, Options{Cache: shared})
			gen := shared.gen.Load()
			ap.eng.beginDecision()
			st := gen.start(startID, func() *dfaState { return ap.buildStart(gen, startID) })
			res := ap.eng.closure(modeSLL, ap.eng.moveState(&gen.frames, st.configs, aID))
			got[k] = st.setEdge(aID, shared.intern(&ap.eng, gen, res))
		}(k)
	}
	wg.Wait()
	for k := 1; k < goroutines; k++ {
		if got[k] != got[0] {
			t.Fatalf("goroutine %d got a different successor state", k)
		}
	}
}

// TestCacheStartIdempotence is the start-slot twin of
// TestCacheEdgeIdempotence: racing start calls for one nonterminal
// converge on a single state, and Size counts it once.
func TestCacheStartIdempotence(t *testing.T) {
	g := fig2()
	startID, _ := g.Compiled().NTIDOf("S")
	shared := NewCache(g.Compiled())
	const goroutines = 16
	got := make([]*dfaState, goroutines)
	var wg sync.WaitGroup
	for k := 0; k < goroutines; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			ap := New(g, Options{Cache: shared})
			gen := shared.gen.Load()
			ap.eng.beginDecision()
			got[k] = gen.start(startID, func() *dfaState { return ap.buildStart(gen, startID) })
		}(k)
	}
	wg.Wait()
	for k := 1; k < goroutines; k++ {
		if got[k] != got[0] {
			t.Fatalf("goroutine %d got a different start state", k)
		}
	}
	if starts, _ := shared.Size(); starts != 1 {
		t.Fatalf("Size reports %d start states after racing one nonterminal, want 1", starts)
	}
}
