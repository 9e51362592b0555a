// Package arena provides slab-based bump allocators so a parse performs
// O(slabs) rather than O(nodes) heap allocations.
//
// An Arena[T] hands out *T one element at a time from geometrically growing
// slabs; a Slab[T] hands out []T spans the same way. Neither supports
// freeing individual elements: lifetime is wholesale. There are two
// disciplines, chosen per use site:
//
//   - GC-scoped: the arena is dropped when the values it backs become
//     unreachable (e.g. a shared SLL cache generation's state slabs, once
//     no parse holds one of its states). The garbage collector releases
//     every slab at once.
//   - Pooled: the arena lives in a per-session pool and is Reset between
//     parses. Reset zeroes the used prefix of every touched slab and rewinds
//     to the first, retaining the slabs themselves — a warm arena serves the
//     next parse of similar size with zero slab allocations, while pinning
//     no value from the parse it last served (pointers are cleared; only
//     bare capacity is held, and the pool itself is droppable by the GC).
//
// Arenas are single-goroutine values. Publishing an element pointer to
// another goroutine is safe under the usual Go memory model (distinct
// addresses, happens-before established by the publishing primitive), but
// two goroutines must not allocate from the same arena concurrently.
package arena

// Slab growth: first slab holds minSlab elements, doubling to maxSlab.
// The bound keeps worst-case waste (unused tail of the last slab) small
// relative to total allocation while keeping slab count logarithmic then
// linear with small constant.
const (
	minSlab = 64
	maxSlab = 4096
)

// Arena is a bump allocator for single elements of type T.
// The zero value is ready to use.
type Arena[T any] struct {
	buf   []T // active slab (aliases slabs[cur]); buf[:off] are live
	off   int
	slabs [][]T // every slab ever allocated, reused in order after Reset
	cur   int   // index of the active slab within slabs
	next  int   // capacity of the next slab to allocate
}

// New allocates a slot, stores v in it, and returns its address. The
// address stays valid until the arena (or the slab, under GC scoping)
// becomes unreachable; Reset recycles addresses, so pooled arenas must only
// back values that die before the arena returns to the pool.
func (a *Arena[T]) New(v T) *T {
	if a.off == len(a.buf) {
		a.grow()
	}
	p := &a.buf[a.off]
	a.off++
	*p = v
	return p
}

func (a *Arena[T]) grow() {
	if a.cur+1 < len(a.slabs) {
		// A retained slab from an earlier, larger parse: reuse it.
		a.cur++
		a.buf = a.slabs[a.cur]
		a.off = 0
		return
	}
	n := a.next
	if n < minSlab {
		n = minSlab
	}
	a.buf = make([]T, n)
	a.off = 0
	if a.slabs == nil {
		a.slabs = make([][]T, 0, 8)
	}
	a.slabs = append(a.slabs, a.buf)
	a.cur = len(a.slabs) - 1
	if n < maxSlab {
		a.next = n * 2
	} else {
		a.next = maxSlab
	}
}

// Reset recycles the arena for a fresh parse: the used prefix of every
// touched slab is zeroed (so no stale pointers pin dead trees or input
// buffers from the pool) and the allocator rewinds to the first slab. Slabs
// are retained for reuse — a warm arena's steady state allocates nothing.
// An arena nothing was carved from since its last Reset is already reset,
// so Reset returns at once.
func (a *Arena[T]) Reset() {
	if a.cur == 0 && a.off == 0 {
		return
	}
	for i := 0; i < a.cur; i++ {
		clear(a.slabs[i])
	}
	clear(a.buf[:a.off])
	a.off = 0
	if len(a.slabs) > 0 {
		a.cur = 0
		a.buf = a.slabs[0]
	}
}

// Slab is a bump allocator for []T spans.
// The zero value is ready to use.
type Slab[T any] struct {
	buf   []T
	off   int
	slabs [][]T
	cur   int
	next  int
}

// Make returns a span with length 0 and capacity exactly n, carved from the
// current slab. The exact capacity means append beyond n reallocates rather
// than clobbering a neighbor. Spans of at least half a slab bypass the
// arena and are allocated directly.
func (s *Slab[T]) Make(n int) []T {
	if n >= maxSlab/2 {
		return make([]T, 0, n)
	}
	if s.off+n > len(s.buf) {
		s.grow(n)
	}
	sp := s.buf[s.off : s.off : s.off+n]
	s.off += n
	return sp
}

func (s *Slab[T]) grow(n int) {
	if s.cur+1 < len(s.slabs) && len(s.slabs[s.cur+1]) >= n {
		// Reuse the next retained slab when it is big enough for the span.
		s.cur++
		s.buf = s.slabs[s.cur]
		s.off = 0
		return
	}
	c := s.next
	if c < minSlab {
		c = minSlab
	}
	for c < n {
		c *= 2
	}
	s.buf = make([]T, c)
	s.off = 0
	if s.cur+1 < len(s.slabs) {
		// The retained slab was too small for this span: replace it (the
		// rare shape change between parses; later grows recheck sizes).
		s.slabs[s.cur+1] = s.buf
		s.cur++
	} else {
		if s.slabs == nil {
			s.slabs = make([][]T, 0, 8)
		}
		s.slabs = append(s.slabs, s.buf)
		s.cur = len(s.slabs) - 1
	}
	if c < maxSlab {
		s.next = c * 2
	} else {
		s.next = maxSlab
	}
}

// Reset recycles the slab allocator: the used prefix of every touched slab
// is zeroed so pooled scratch cannot pin previously returned spans, and the
// allocator rewinds to the first slab, retaining capacity for the next
// parse. Like Arena.Reset, it returns at once when nothing was carved since
// the last Reset.
func (s *Slab[T]) Reset() {
	if s.cur == 0 && s.off == 0 {
		return
	}
	for i := 0; i < s.cur; i++ {
		clear(s.slabs[i])
	}
	clear(s.buf[:s.off])
	s.off = 0
	if len(s.slabs) > 0 {
		s.cur = 0
		s.buf = s.slabs[0]
	}
}
