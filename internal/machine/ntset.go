package machine

import (
	"math/bits"
	"sort"
	"strings"

	"costar/internal/arena"
	"costar/internal/grammar"
)

// NTSet is a persistent set of nonterminal IDs, the machine's visited set
// (Section 4.1). It replaces the string-keyed AVL set of the Coq
// development (whose compareNT cost the paper's §6.1 calls out) with a
// dense bitset over the compiled grammar's NTID space: membership is one
// shift and mask, and Add/Remove share structure like the AVL version did —
// the inline word covers grammars up to 64 nonterminals with zero
// allocation, and the overflow words are copied on write.
//
// The zero value is the empty set. NTSet is a value type: Add and Remove
// return new sets and never mutate the receiver or its overflow storage.
// The one exception is an in-place run's visited set, whose overflow words
// belong to the run's Mem and are written by set, unset and empty.
type NTSet struct {
	lo uint64   // NTIDs 0..63
	hi []uint64 // NTIDs 64..; immutable once stored, except in place
}

// Contains reports membership. Negative IDs (NoNT) are never members.
func (s NTSet) Contains(n grammar.NTID) bool {
	if n < 0 {
		return false
	}
	if n < 64 {
		return s.lo&(1<<uint(n)) != 0
	}
	w := int(n-64) >> 6
	if w >= len(s.hi) {
		return false
	}
	return s.hi[w]&(1<<uint((n-64)&63)) != 0
}

// Add returns the set with n included.
func (s NTSet) Add(n grammar.NTID) NTSet { return s.AddIn(nil, n) }

// AddIn is Add with the copy-on-write overflow words carved from sl (nil
// falls back to plain allocation). The resulting set's lifetime is bounded
// by sl's next Reset; prediction passes its decision scratch's word slab.
func (s NTSet) AddIn(sl *arena.Slab[uint64], n grammar.NTID) NTSet {
	if n < 0 {
		return s
	}
	if n < 64 {
		return NTSet{lo: s.lo | 1<<uint(n), hi: s.hi}
	}
	hi := makeWords(sl, max(len(s.hi), int(n-64)>>6+1))
	clear(hi[copy(hi, s.hi):])
	hi[int(n-64)>>6] |= 1 << uint((n-64)&63)
	return NTSet{lo: s.lo, hi: hi}
}

// Remove returns the set with n excluded.
func (s NTSet) Remove(n grammar.NTID) NTSet { return s.RemoveIn(nil, n) }

// RemoveIn is Remove with overflow words carved from sl, under the same
// lifetime contract as AddIn.
func (s NTSet) RemoveIn(sl *arena.Slab[uint64], n grammar.NTID) NTSet {
	if !s.Contains(n) {
		return s
	}
	if n < 64 {
		return NTSet{lo: s.lo &^ (1 << uint(n)), hi: s.hi}
	}
	hi := makeWords(sl, len(s.hi))
	copy(hi, s.hi)
	hi[int(n-64)>>6] &^= 1 << uint((n-64)&63)
	return NTSet{lo: s.lo, hi: hi}
}

func makeWords(sl *arena.Slab[uint64], width int) []uint64 {
	if sl == nil {
		return make([]uint64, width)
	}
	return sl.Make(width)[:width]
}

// set adds n (>= 0) in place; hi must already cover n.
func (s *NTSet) set(n grammar.NTID) {
	if n < 64 {
		s.lo |= 1 << uint(n)
		return
	}
	s.hi[int(n-64)>>6] |= 1 << uint((n-64)&63)
}

// unset removes n (>= 0) in place; hi must already cover n.
func (s *NTSet) unset(n grammar.NTID) {
	if n < 64 {
		s.lo &^= 1 << uint(n)
		return
	}
	s.hi[int(n-64)>>6] &^= 1 << uint((n-64)&63)
}

// empty removes every member in place.
func (s *NTSet) empty() {
	s.lo = 0
	clear(s.hi)
}

// Len returns the number of members.
func (s NTSet) Len() int {
	n := bits.OnesCount64(s.lo)
	for _, w := range s.hi {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no members.
func (s NTSet) Empty() bool {
	if s.lo != 0 {
		return false
	}
	for _, w := range s.hi {
		if w != 0 {
			return false
		}
	}
	return true
}

// Members returns the member IDs in ascending order.
func (s NTSet) Members() []grammar.NTID {
	var out []grammar.NTID
	for w := s.lo; w != 0; w &= w - 1 {
		out = append(out, grammar.NTID(bits.TrailingZeros64(w)))
	}
	for i, word := range s.hi {
		for w := word; w != 0; w &= w - 1 {
			out = append(out, grammar.NTID(64+i*64+bits.TrailingZeros64(w)))
		}
	}
	return out
}

// StringWith renders the set as "{A, S}" with names sorted, matching the
// rendering of the old string-keyed set for traces and tests.
func (s NTSet) StringWith(c *grammar.Compiled) string {
	ids := s.Members()
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = c.NTName(id)
	}
	sort.Strings(names)
	return "{" + strings.Join(names, ", ") + "}"
}
