// Fixture: the leaf-mutex rule in the prediction package. The SLL cache's
// shard mutexes guard interning only; a goroutine holds at most one of
// them, and never while holding another watched mutex. Slot writes are
// compare-and-swaps and need no mutex.
package prediction

import (
	"sync"
	"sync/atomic"
)

type internShard struct {
	mu sync.Mutex
	n  int
}

type dfaState struct {
	edges []atomic.Pointer[dfaState]
}

// intern holds one shard's mutex to function end; accepted.
func intern(sh *internShard) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.n++
}

// count visits the shards one after another; accepted.
func count(shards []internShard) int {
	n := 0
	for i := range shards {
		sh := &shards[i]
		sh.mu.Lock()
		n += sh.n
		sh.mu.Unlock()
	}
	return n
}

// setEdge publishes without a lock; accepted.
func setEdge(st *dfaState, t int, next *dfaState) bool {
	return st.edges[t].CompareAndSwap(nil, next)
}

// nestShards holds two shard mutexes at once.
func nestShards(a, b *internShard) {
	a.mu.Lock()
	b.mu.Lock() // want "must never nest"
	b.n = a.n
	b.mu.Unlock()
	a.mu.Unlock()
}
