package machine

import (
	"math/rand"

	"costar/internal/grammar"
)

// ScratchCap reports what m retains between runs, in elements: its
// per-depth levels, the accumulator capacity of their prefix nodes, and the
// visited set's overflow words. The run's tree table is not in the Mem: it
// belongs to the Result.
func (m *Mem) ScratchCap() map[string]int {
	syms, trees := 0, 0
	for _, lv := range m.levels {
		syms += cap(lv.p.F.Proc)
		trees += cap(lv.p.F.Trees)
	}
	return map[string]int{"levels": len(m.levels), "syms": syms, "trees": trees, "words": cap(m.words)}
}

// Owns reports whether st is m's in-place state: what Result.Final is after
// an in-place run on m.
func (m *Mem) Owns(st *State) bool { return st == &m.state }

// WideGrammar and RandomGrammarFor expose the property-test grammars to
// the external differential tests.
var (
	WideGrammar      = wideGrammar
	RandomGrammarFor = randomGrammarFor
)

// NewChaosPredictor returns the property tests' predictor, which picks an
// arbitrary right-hand side from a generator seeded with seed.
func NewChaosPredictor(g *grammar.Grammar, seed int64) Predictor {
	return chaosPredictor{g: g, rng: rand.New(rand.NewSource(seed))}
}
