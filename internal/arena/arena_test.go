package arena

import (
	"testing"
	"unsafe"
)

func TestArenaDistinctAddressesAndValues(t *testing.T) {
	var a Arena[int]
	const n = 1000
	ps := make([]*int, n)
	for i := 0; i < n; i++ {
		ps[i] = a.New(i)
	}
	seen := make(map[*int]bool, n)
	for i, p := range ps {
		if *p != i {
			t.Fatalf("element %d: got %d", i, *p)
		}
		if seen[p] {
			t.Fatalf("element %d: address reused", i)
		}
		seen[p] = true
	}
}

func TestArenaAmortizedAllocations(t *testing.T) {
	// 1000 elements should cost O(slabs) heap allocations, far fewer than
	// one per element: 64+128+256+512+1024 covers 1000 in 5 slabs.
	allocs := testing.AllocsPerRun(10, func() {
		var a Arena[[4]uint64]
		for i := 0; i < 1000; i++ {
			a.New([4]uint64{uint64(i)})
		}
	})
	if allocs > 8 {
		t.Fatalf("1000 arena elements cost %.0f heap allocations; want O(slabs)", allocs)
	}
}

func TestArenaResetClearsUsedPrefix(t *testing.T) {
	var a Arena[*int]
	x := 7
	p := a.New(&x)
	if *p != &x {
		t.Fatal("stored value lost")
	}
	a.Reset()
	// The slot must be zeroed so pooled arenas don't pin dead objects.
	if *p != nil {
		t.Fatal("Reset left a stale pointer in the recycled slab")
	}
	q := a.New(nil)
	if q != p {
		t.Fatal("Reset did not rewind the bump offset")
	}
}

func TestSlabExactCapacityAndNoOverlap(t *testing.T) {
	var s Slab[int]
	a := s.Make(3)
	b := s.Make(5)
	if cap(a) != 3 || cap(b) != 5 || len(a) != 0 || len(b) != 0 {
		t.Fatalf("got cap %d/%d len %d/%d", cap(a), cap(b), len(a), len(b))
	}
	a = append(a, 1, 2, 3)
	b = append(b, 10, 20, 30, 40, 50)
	if a[0] != 1 || a[2] != 3 || b[0] != 10 || b[4] != 50 {
		t.Fatal("spans overlap")
	}
	// Appending past the exact capacity must reallocate, not clobber b.
	a2 := append(a, 4)
	if &a2[0] == &a[0] {
		t.Fatal("append past capacity did not reallocate")
	}
	if b[0] != 10 {
		t.Fatal("append past capacity clobbered the neighboring span")
	}
}

func TestSlabLargeSpanBypassesArena(t *testing.T) {
	var s Slab[byte]
	before := unsafe.SliceData(s.Make(1))
	big := s.Make(maxSlab) // >= maxSlab/2: direct allocation
	if cap(big) != maxSlab {
		t.Fatalf("cap = %d", cap(big))
	}
	after := unsafe.SliceData(s.Make(1))
	// The two small spans must be adjacent: the big one didn't consume slab.
	if uintptr(unsafe.Pointer(after))-uintptr(unsafe.Pointer(before)) != 1 {
		t.Fatal("large span consumed slab space")
	}
}

func TestSlabResetZeroesAndRewinds(t *testing.T) {
	var s Slab[*int]
	x := 1
	sp := append(s.Make(2), &x, &x)
	s.Reset()
	if sp[0] != nil || sp[1] != nil {
		t.Fatal("Reset left stale pointers")
	}
	sp2 := s.Make(2)
	if unsafe.SliceData(sp2[:1]) != unsafe.SliceData(sp[:1]) {
		t.Fatal("Reset did not rewind")
	}
}

func TestZeroValueGrowthSequence(t *testing.T) {
	var a Arena[byte]
	// Fill more than maxSlab elements to exercise the growth cap.
	for i := 0; i < 3*maxSlab; i++ {
		a.New(byte(i))
	}
	if len(a.buf) != maxSlab {
		t.Fatalf("slab size after growth cap: %d, want %d", len(a.buf), maxSlab)
	}
}

// TestResetWithNothingCarvedKeepsRewind: a Reset with nothing carved since
// the last one returns at once and leaves both allocators rewound, so the
// next carve reuses the first slot.
func TestResetWithNothingCarvedKeepsRewind(t *testing.T) {
	var a Arena[int]
	var s Slab[int]
	for i := 0; i < 3*minSlab; i++ {
		a.New(i)
		s.Make(1)
	}
	a.Reset()
	s.Reset()
	a.Reset()
	s.Reset()
	if a.cur != 0 || a.off != 0 || s.cur != 0 || s.off != 0 {
		t.Fatalf("second Reset moved the allocators: arena at slab %d+%d, slab at %d+%d", a.cur, a.off, s.cur, s.off)
	}
	if p := a.New(9); p != &a.slabs[0][0] || *p != 9 {
		t.Fatal("the arena does not carve from its first slot after a second Reset")
	}
	if sp := s.Make(1); unsafe.SliceData(sp[:1]) != &s.slabs[0][0] {
		t.Fatal("the slab allocator does not carve from its first slot after a second Reset")
	}
}
