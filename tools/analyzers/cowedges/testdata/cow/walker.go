package prediction

// writeThrough mutates the shared map in place, racing every lock-free
// reader.
func writeThrough(st *dfaState, k int, v *dfaState) {
	(*st.edges.Load())[k] = v // want "write through shared DFA map"
}

// clearThrough empties the shared map in place, racing every lock-free
// reader just as a delete would.
func clearThrough(st *dfaState) {
	clear(*st.edges.Load()) // want "write through shared DFA map"
}

// clearScratch empties a map no reader shares; accepted.
func clearScratch(seen map[int]bool) {
	clear(seen)
}

// publishElsewhere calls the publishing mutator outside cache.go,
// bypassing the writer mutex.
func publishElsewhere(st *dfaState, next *map[int]*dfaState) {
	st.edges.Store(next) // want "bypasses the COW writer mutex"
}

// lookup reads through the atomic pointer — the whole point of the
// scheme; accepted.
func lookup(st *dfaState, k int) *dfaState {
	return (*st.edges.Load())[k]
}
