// Fixture: the intern-copy fast path. The SLL DFA cache interns decision
// scratch into dfaStates; newDFAState retains parameters 0 (cfgs) and 2
// (haltedAlts), so raw scratch slices must be deep-copied before the
// call, and dfaState field stores must hold copies too. Matching is by
// declared package name, so this replica is held to the same spec as the
// real internal/prediction.
package prediction

type config struct{ state, alt int }

// scratch is the decision scratch: every field aliases pooled memory.
type scratch struct {
	stable []config
	halted []int
}

type engine struct{ scr *scratch }

// closureResult.stable aliases the decision scratch.
type closureResult struct {
	stable  []config
	anomaly uint8
}

// dfaState is cache-retained: it outlives every parse.
type dfaState struct {
	configs    []config
	haltedAlts []int
}

// stateMem is the cache generation's memory; its copy methods are the
// recognized deep copies.
type stateMem struct {
	configs []config
	ints    []int
}

func (m *stateMem) copyConfigs(cfgs []config) []config {
	m.configs = append(m.configs, cfgs...)
	return m.configs[len(m.configs)-len(cfgs):]
}

func (m *stateMem) copyInts(xs []int) []int {
	m.ints = append(m.ints, xs...)
	return m.ints[len(m.ints)-len(xs):]
}

// newDFAState retains cfgs and haltedAlts (params 0 and 2) in the state
// it returns; alts is only read.
func (m *stateMem) newDFAState(cfgs []config, alts []int, haltedAlts []int, anomalous bool) *dfaState {
	_, _ = alts, anomalous
	return &dfaState{configs: cfgs, haltedAlts: haltedAlts}
}

// internRaw hands scratch-aliasing slices straight to the cache: both
// retained arguments are flagged.
func internRaw(e *engine, m *stateMem, alts []int) *dfaState {
	return m.newDFAState(
		e.scr.stable, // want "retained by the DFA cache"
		alts,
		e.scr.halted, // want "retained by the DFA cache"
		false)
}

// internCopied is the sanctioned path: the generation's copies for the
// configs and the halted alternatives.
func internCopied(e *engine, m *stateMem, alts []int) *dfaState {
	return m.newDFAState(m.copyConfigs(e.scr.stable), alts, m.copyInts(e.scr.halted), false)
}

// internAppended copies the halted alternatives with an element-copying
// append (int elements cannot alias pooled memory, so the fresh backing
// array is a deep copy); accepted.
func internAppended(e *engine, m *stateMem, alts []int) *dfaState {
	return m.newDFAState(m.copyConfigs(e.scr.stable), alts, append([]int(nil), e.scr.halted...), false)
}

// internResult hands a closure result's stable configs to the cache
// uncopied: flagged, with no visited-set clone anywhere on the path.
func internResult(res closureResult, m *stateMem, alts []int) *dfaState {
	return m.newDFAState(res.stable, alts, nil, res.anomaly != 0) // want "retained by the DFA cache"
}

// internResultCopied copies the stable configs first; accepted.
func internResultCopied(res closureResult, m *stateMem, alts []int) *dfaState {
	return m.newDFAState(m.copyConfigs(res.stable), alts, nil, res.anomaly != 0)
}

// storeRaw writes scratch into an interned state after construction.
func storeRaw(e *engine, st *dfaState) {
	st.configs = e.scr.stable // want "cache-retained"
}

// storeCopied holds a deep copy; accepted.
func storeCopied(e *engine, m *stateMem, st *dfaState) {
	st.configs = m.copyConfigs(e.scr.stable)
}

// readBack reads cache-owned data; nothing escapes.
func readBack(st *dfaState) int {
	return len(st.configs) + len(st.haltedAlts)
}
