package main

// Spans for the traced run. The benchmark records a span around each of its
// own calls into a module's public functions (spans inside the engine are
// not recorded). Spans stay in memory and are written out when the run
// ends; per-layer metrics are computed from their self times.

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call. Parent is the index of the enclosing span, or -1.
// ID names the file or request the call worked on. Allocs and Bytes are the
// heap allocation deltas across the call, recorded only for spans opened by
// the driving goroutine (see tracer.begin).
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id,omitempty"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs,omitempty"`
	Bytes  uint64 `json:"bytes,omitempty"`

	heap0 heap
	heapd bool
}

// tracer collects spans. A nil *tracer records nothing, so untraced code
// paths pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index. withHeap records allocation
// deltas; it must only be set by the single goroutine driving the run.
func (t *tracer) begin(name, id string, parent int, withHeap bool) int {
	if t == nil {
		return -1
	}
	s := span{Name: name, ID: id, Parent: parent, heapd: withHeap}
	if withHeap {
		s.heap0 = readHeap()
	}
	t.mu.Lock()
	s.Start = int64(time.Since(t.t0))
	t.spans = append(t.spans, s)
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	s := &t.spans[i]
	s.End = now
	heapd, heap0 := s.heapd, s.heap0
	t.mu.Unlock()
	if heapd {
		d := readHeap().sub(heap0)
		t.mu.Lock()
		t.spans[i].Allocs, t.spans[i].Bytes = d.objects, d.bytes
		t.mu.Unlock()
	}
}

// layerTotal aggregates the spans of one name: summed self time (a span's
// duration minus the part of it its children cover) and summed allocation
// deltas.
type layerTotal struct {
	SelfNS int64
	Allocs uint64
	Bytes  uint64
}

func (t *tracer) totals() map[string]*layerTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]*layerTotal)
	for i, s := range t.spans {
		self := s.End - s.Start - covered(children[i], s.Start, s.End)
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.Name] = lt
		}
		lt.SelfNS += self
		lt.Allocs += s.Allocs
		lt.Bytes += s.Bytes
	}
	return out
}

// covered returns how much of [lo, hi) the union of the intervals covers.
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}
