package arena

import (
	"testing"
	"unsafe"
)

func TestSlabAmortizedAllocations(t *testing.T) {
	// 1000 one-element spans should cost O(slabs) heap allocations, far
	// fewer than one per span: 64+128+256+512+1024 covers 1000 in 5 slabs.
	allocs := testing.AllocsPerRun(10, func() {
		var s Slab[[4]uint64]
		for i := 0; i < 1000; i++ {
			_ = append(s.Make(1), [4]uint64{uint64(i)})
		}
	})
	if allocs > 8 {
		t.Fatalf("1000 one-element spans cost %.0f heap allocations; want O(slabs)", allocs)
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
	var s Slab[byte]
	// Fill more than maxSlab elements to exercise the growth cap.
	for i := 0; i < 3*maxSlab; i++ {
		s.Make(1)
	}
	if len(s.buf) != maxSlab {
		t.Fatalf("slab size after growth cap: %d, want %d", len(s.buf), maxSlab)
	}
}

// TestResetWithNothingCarvedKeepsRewind: a Reset with nothing carved since
// the last one returns at once and leaves the allocator rewound, so the
// next carve reuses the first slot.
func TestResetWithNothingCarvedKeepsRewind(t *testing.T) {
	var s Slab[int]
	for i := 0; i < 3*minSlab; i++ {
		s.Make(1)
	}
	s.Reset()
	s.Reset()
	if s.cur != 0 || s.off != 0 {
		t.Fatalf("second Reset moved the allocator: at slab %d+%d", s.cur, s.off)
	}
	if sp := s.Make(1); unsafe.SliceData(sp[:1]) != &s.slabs[0][0] {
		t.Fatal("the slab allocator does not carve from its first slot after a second Reset")
	}
}
