// Fixture: the leaf-mutex rule in the prediction package. The SLL cache's
// shard mutexes guard interning only, and its frame table's mutex guards
// hash-consing; a goroutine holds at most one of them, and never while
// holding another watched mutex — so frames are hash-consed before a shard
// mutex is taken, never under it, whether the frame table is locked here
// or in a function called here. Slot writes are compare-and-swaps and need
// no mutex.
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

type genFrames struct {
	mu sync.Mutex
	n  int
}

// add hash-conses one frame under the frame table's mutex.
func (t *genFrames) add() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.n++
	return t.n
}

// translate acquires the frame table's mutex through add.
func (t *genFrames) translate() int { return t.add() }

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

// internFramesFirst hash-conses frames, then takes the shard mutex; the
// sanctioned order, accepted.
func internFramesFirst(sh *internShard, t *genFrames) {
	n := t.translate()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.n = n
}

// framesUnderShard locks the frame table inside a shard's critical section.
func framesUnderShard(sh *internShard, t *genFrames) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	t.mu.Lock() // want "must never nest"
	sh.n = t.n
	t.mu.Unlock()
}

// addUnderShard calls a function that locks the frame table while the
// shard mutex is held.
func addUnderShard(sh *internShard, t *genFrames) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.n = t.add() // want "calling add, which acquires t.mu"
}

// translateUnderShard reaches the frame table's mutex two calls down.
func translateUnderShard(sh *internShard, t *genFrames) {
	sh.mu.Lock()
	sh.n = t.translate() // want "calling translate, which acquires t.mu"
	sh.mu.Unlock()
}

// translateAfterShard releases the shard mutex first; accepted.
func translateAfterShard(sh *internShard, t *genFrames) {
	sh.mu.Lock()
	n := sh.n
	sh.mu.Unlock()
	sh.n = n + t.translate()
}
