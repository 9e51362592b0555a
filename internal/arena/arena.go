// Package arena provides a slab-based bump allocator so a parse performs
// O(slabs) rather than O(values) heap allocations.
//
// A Slab[T] hands out []T spans from geometrically growing slabs; a single
// value is a one-element span. It does not support freeing individual
// spans: lifetime is wholesale. There are two disciplines, chosen per use
// site:
//
//   - GC-scoped: the slab is dropped when the values it backs become
//     unreachable (e.g. a shared SLL cache generation's state slabs, once
//     no parse holds one of its states). The garbage collector releases
//     every slab at once.
//   - Pooled: the slab lives in a per-session pool and is Reset between
//     parses. Reset zeroes the used prefix of every touched slab and rewinds
//     to the first, retaining the slabs themselves — a warm slab serves the
//     next parse of similar size with zero slab allocations, while pinning
//     no value from the parse it last served (pointers are cleared; only
//     bare capacity is held, and the pool itself is droppable by the GC).
//
// Slabs are single-goroutine values. Publishing a span to another
// goroutine is safe under the usual Go memory model (distinct addresses,
// happens-before established by the publishing primitive), but two
// goroutines must not carve from the same slab concurrently.
package arena

// Slab growth: first slab holds minSlab elements, doubling to maxSlab.
// The bound keeps worst-case waste (unused tail of the last slab) small
// relative to total allocation while keeping slab count logarithmic then
// linear with small constant.
const (
	minSlab = 64
	maxSlab = 4096
)

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
// parse. It returns at once when nothing was carved since the last Reset.
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
