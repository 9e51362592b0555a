// Fixture: the intern path. The SLL DFA cache interns decision scratch into
// dfaStates: stateKey translates a closure result's stacks into frame IDs
// and leaves the state key in scratch, and newDFAState retains parameter 0
// (the key), so the key must be copied into cache memory (copyKey) before
// the call, and dfaState field stores must hold copies too. Matching is by
// declared package name, so this replica is held to the same spec as the
// real internal/prediction.
package prediction

type config struct{ alt, top int32 }

// scratch is the decision scratch: every field aliases pooled memory.
type scratch struct {
	key    []uint64
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
	configs    []uint64
	haltedAlts []int
}

// stateMem is the cache generation's memory; copyKey is the recognized
// copy into it.
type stateMem struct {
	keys []uint64
}

func (m *stateMem) copyKey(key []uint64) []uint64 {
	m.keys = append(m.keys, key...)
	return m.keys[len(m.keys)-len(key):]
}

// stateKey builds a closure result's key in scratch.
func (e *engine) stateKey(cfgs []config) []uint64 {
	key := e.scr.key[:0]
	for _, c := range cfgs {
		key = append(key, uint64(uint32(c.alt))<<32|uint64(uint32(c.top)))
	}
	e.scr.key = key
	return key
}

// newDFAState retains key (param 0) in the state it returns.
func (m *stateMem) newDFAState(key []uint64, anomalous bool, terms int) *dfaState {
	_, _ = anomalous, terms
	return &dfaState{configs: key}
}

// internRaw hands the scratch-built key straight to the cache: flagged.
func internRaw(e *engine, m *stateMem, res closureResult) *dfaState {
	return m.newDFAState(e.stateKey(res.stable), res.anomaly != 0, 0) // want "retained by the DFA cache"
}

// internCopied is the sanctioned path: the key is copied into cache
// memory; accepted.
func internCopied(e *engine, m *stateMem, res closureResult) *dfaState {
	return m.newDFAState(m.copyKey(e.stateKey(res.stable)), res.anomaly != 0, 0)
}

// internScratchKey reads the key buffer directly: flagged.
func internScratchKey(e *engine, m *stateMem) *dfaState {
	return m.newDFAState(e.scr.key, false, 0) // want "retained by the DFA cache"
}

// internAppended copies the key with an element-copying append (uint64
// elements cannot alias pooled memory, so the fresh backing array is a
// copy); accepted.
func internAppended(e *engine, m *stateMem) *dfaState {
	return m.newDFAState(append([]uint64(nil), e.scr.key...), false, 0)
}

// storeRaw writes scratch into an interned state after construction.
func storeRaw(e *engine, st *dfaState) {
	st.configs = e.scr.key       // want "cache-retained"
	st.haltedAlts = e.scr.halted // want "cache-retained"
}

// storeCopied holds a copy in cache memory; accepted.
func storeCopied(e *engine, m *stateMem, st *dfaState) {
	st.configs = m.copyKey(e.scr.key)
}

// readBack reads cache-owned data; nothing escapes.
func readBack(st *dfaState) int {
	return len(st.configs) + len(st.haltedAlts)
}
