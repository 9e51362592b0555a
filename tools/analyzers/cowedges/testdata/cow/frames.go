package prediction

// The frame table as cache.go implements it: frames are read by ID without
// a lock, and only genFrames.intern writes the chunks, at the ID it
// allocates.

type genFrame struct{ lhs, prod, dot, below int32 }

type genFrames struct {
	n      int32
	chunks [4][]genFrame
}

// intern is the one writer; accepted.
func (t *genFrames) intern(f genFrame) int32 {
	id := t.n
	if t.chunks[0] == nil {
		t.chunks[0] = make([]genFrame, 256)
	}
	t.chunks[0][id] = f
	t.n++
	return id
}

// at reads a frame; accepted.
func (t *genFrames) at(id int32) genFrame { return t.chunks[0][id] }

// reset rewinds the count and leaves the chunks; accepted.
func (t *genFrames) reset() { t.n = 0 }

// patch rewrites a frame a published state may name.
func (t *genFrames) patch(id int32, f genFrame) {
	t.chunks[0][id] = f // want "outside genFrames.intern"
}

// wipe zeroes frames under their readers.
func (t *genFrames) wipe() {
	clear(t.chunks[0]) // want "outside genFrames.intern"
}

// intern on another type is not the frame table's writer.
func (s *shadow) intern(f genFrame) {
	s.frames.chunks[0][0] = f // want "outside genFrames.intern"
}

type shadow struct{ frames genFrames }
