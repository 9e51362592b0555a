// Fixture: the slot protocol as cache.go implements it. A slot is
// published by a compare-and-swap from nil, tables are built in composite
// literals, loads are free, and the one wholesale zeroing of a private
// cache carries its annotation.
package prediction

import "sync/atomic"

type dfaState struct {
	edges []atomic.Pointer[dfaState]
}

type cacheGen struct {
	starts []atomic.Pointer[dfaState]
}

// setEdge publishes from nil and adopts a racer's winner; accepted.
func (st *dfaState) setEdge(t int, next *dfaState) *dfaState {
	if st.edges[t].CompareAndSwap(nil, next) {
		return next
	}
	return st.edges[t].Load()
}

// newState hands its row over in a composite literal; accepted.
func newState(row []atomic.Pointer[dfaState]) *dfaState {
	return &dfaState{edges: row}
}

// reset zeroes a cache no other goroutine can reach; accepted under its
// annotation.
func (g *cacheGen) reset() {
	clear(g.starts) //costar:allow cowedges -- fixture: the cache is private to its caller
}
