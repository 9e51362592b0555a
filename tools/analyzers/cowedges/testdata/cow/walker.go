package prediction

// overwrite stores over an edge another goroutine may have followed.
func overwrite(st *dfaState, t int, next *dfaState) {
	st.edges[t].Store(next) // want "Store on a DFA edges slot"
}

// swapStart replaces a published start state.
func swapStart(g *cacheGen, nt int, st *dfaState) *dfaState {
	return g.starts[nt].Swap(st) // want "Swap on a DFA starts slot"
}

// replaceEdge swaps from a non-nil old value.
func replaceEdge(st *dfaState, t int, old, next *dfaState) bool {
	return st.edges[t].CompareAndSwap(old, next) // want "non-nil old value"
}

// dropRow replaces a published state's row.
func dropRow(st *dfaState) {
	st.edges = nil // want "plain write through DFA slot table edges"
}

// clearThrough zeroes a shared row in place, racing every reader.
func clearThrough(st *dfaState) {
	clear(st.edges) // want "plain write through DFA slot table edges"
}

// clearScratch empties a map no reader shares; accepted.
func clearScratch(seen map[int]bool) {
	clear(seen)
}

// lookup is one atomic load; accepted.
func lookup(st *dfaState, t int) *dfaState {
	return st.edges[t].Load()
}
