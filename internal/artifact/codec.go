package artifact

// Binary codec for the artifact container. Everything is little-endian and
// length-prefixed; there are no pointers, offsets, or alignment games, so
// the decoder is a single forward pass.
//
// The decoder is a trust boundary: artifact bytes come from disk or a
// build pipeline and may be truncated, bit-flipped, or adversarial. It
// therefore never panics and never allocates proportionally to a length
// field without first checking that many encoded bytes actually remain —
// a fuzzer-supplied "count = 2^31" costs a bounds check, not 8 GiB. All
// failures are sticky (the first error wins) and wrap ErrCorrupt /
// ErrNotArtifact / ErrVersion for errors.Is dispatch.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"costar/internal/grammar"
	"costar/internal/prediction"
)

// checksum hashes b with CRC-32C (Castagnoli), the container's integrity
// check. It detects accidental corruption; identity and tamper rejection
// come from the grammar fingerprint and certificate re-verification on
// load. Castagnoli is hardware-accelerated on the platforms we care about,
// which matters because the checksum is the only pass over the full byte
// stream on the artifact fast path.
func checksum(b []byte) uint32 {
	return crc32.Checksum(b, castagnoli)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode serializes the artifact. Encoding is deterministic: equal
// artifacts yield identical bytes (Build already canonicalizes section
// order), which keeps golden files and content-addressed storage stable.
func Encode(a *Artifact) []byte {
	var e encoder
	e.b = append(e.b, magic[:]...)
	e.u32(Version)

	e.str(a.Name)
	e.u64(a.Fingerprint)
	e.str(a.LexerG4)

	// Grammar tables.
	t := &a.Tables
	e.strs(t.TermNames)
	e.strs(t.NTNames)
	e.u32(uint32(t.NumDefined))
	e.i32(int32(t.Start))
	e.u32(uint32(len(t.ProdLhs)))
	for i, lhs := range t.ProdLhs {
		e.i32(int32(lhs))
		e.u32(uint32(len(t.ProdRhs[i])))
		for _, s := range t.ProdRhs[i] {
			e.i32(int32(s))
		}
	}
	if len(t.ProdLines) == len(t.ProdLhs) && len(t.ProdLines) > 0 {
		e.bool(true)
		for _, line := range t.ProdLines {
			e.u32(uint32(line))
		}
	} else {
		e.bool(false)
	}

	// Certificate.
	if a.Cert != nil {
		e.bool(true)
		e.u64(a.Cert.Fingerprint)
		e.str(a.Cert.Issuer)
		e.strs(a.Cert.Checks)
	} else {
		e.bool(false)
	}

	// SLL DFA cache snapshot: the shared frame table, then the start table
	// and the states, whose configs name their top frames.
	e.u32(uint32(len(a.Cache.Frames)))
	for _, f := range a.Cache.Frames {
		e.i32(int32(f.Lhs))
		e.i32(f.Prod)
		e.i32(f.Dot)
		e.i32(f.Below)
	}
	e.u32(uint32(len(a.Cache.Starts)))
	for _, se := range a.Cache.Starts {
		e.i32(int32(se.NT))
		e.i32(se.State)
	}
	e.u32(uint32(len(a.Cache.States)))
	for i := range a.Cache.States {
		ss := &a.Cache.States[i]
		e.bool(ss.Anomalous)
		e.u32(uint32(len(ss.Configs)))
		for _, cs := range ss.Configs {
			e.i32(cs.Alt)
			e.i32(cs.Top)
		}
		e.i32s(ss.EdgeTerms)
		e.i32s(ss.EdgeStates)
	}

	e.u32(checksum(e.b))
	return e.b
}

// Decode parses artifact bytes, verifying magic, version, and checksum
// before touching the payload. It never panics on malformed input.
func Decode(b []byte) (*Artifact, error) {
	if len(b) < len(magic)+4+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the fixed header", ErrCorrupt, len(b))
	}
	if string(b[:len(magic)]) != string(magic[:]) {
		return nil, ErrNotArtifact
	}
	if v := binary.LittleEndian.Uint32(b[len(magic):]); v != Version {
		return nil, fmt.Errorf("%w: artifact version %d, this build reads version %d", ErrVersion, v, Version)
	}
	body, sum := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if got := checksum(body); got != sum {
		return nil, fmt.Errorf("%w: checksum %08x, recorded %08x", ErrCorrupt, got, sum)
	}

	d := &decoder{b: body, off: len(magic) + 4}
	a := &Artifact{}
	a.Name = d.str()
	a.Fingerprint = d.u64()
	a.LexerG4 = d.str()

	// Grammar tables.
	a.Tables.TermNames = d.strs()
	a.Tables.NTNames = d.strs()
	a.Tables.NumDefined = int(d.u32())
	a.Tables.Start = grammar.NTID(d.i32())
	nProds := d.count(8) // lhs i32 + rhs count u32 per production, minimum
	if d.err == nil {
		a.Tables.ProdLhs = make([]grammar.NTID, 0, nProds)
		a.Tables.ProdRhs = make([][]grammar.SymID, 0, nProds)
	}
	for i := 0; i < nProds && d.err == nil; i++ {
		a.Tables.ProdLhs = append(a.Tables.ProdLhs, grammar.NTID(d.i32()))
		nRhs := d.count(4)
		var rhs []grammar.SymID
		if nRhs > 0 && d.err == nil {
			rhs = make([]grammar.SymID, 0, nRhs)
			for j := 0; j < nRhs; j++ {
				rhs = append(rhs, grammar.SymID(d.i32()))
			}
		}
		a.Tables.ProdRhs = append(a.Tables.ProdRhs, rhs)
	}
	if d.bool() {
		n := len(a.Tables.ProdLhs)
		if d.err == nil {
			a.Tables.ProdLines = make([]int, 0, min(n, d.remaining()/4))
		}
		for i := 0; i < n && d.err == nil; i++ {
			a.Tables.ProdLines = append(a.Tables.ProdLines, int(d.u32()))
		}
	}

	// Certificate.
	if d.bool() {
		cert := &grammar.Certificate{}
		cert.Fingerprint = d.u64()
		cert.Issuer = d.str()
		cert.Checks = d.strs()
		if d.err == nil {
			a.Cert = cert
		}
	}

	// SLL DFA cache snapshot.
	nFrames := d.count(16) // lhs, prod, dot, below
	if b := d.take(16 * nFrames); nFrames > 0 && b != nil {
		a.Cache.Frames = make([]prediction.FrameSnapshot, nFrames)
		for i := range a.Cache.Frames {
			e := b[16*i : 16*i+16]
			a.Cache.Frames[i] = prediction.FrameSnapshot{
				Lhs:   grammar.NTID(binary.LittleEndian.Uint32(e)),
				Prod:  int32(binary.LittleEndian.Uint32(e[4:])),
				Dot:   int32(binary.LittleEndian.Uint32(e[8:])),
				Below: int32(binary.LittleEndian.Uint32(e[12:])),
			}
		}
	}
	nStarts := d.count(8)
	if nStarts > 0 && d.err == nil {
		a.Cache.Starts = make([]prediction.StartSnapshot, 0, nStarts)
	}
	for i := 0; i < nStarts && d.err == nil; i++ {
		var se prediction.StartSnapshot
		se.NT = grammar.NTID(d.i32())
		se.State = d.i32()
		a.Cache.Starts = append(a.Cache.Starts, se)
	}
	nStates := d.count(13) // anomalous + config count + two edge counts, minimum
	if nStates > 0 && d.err == nil {
		a.Cache.States = make([]prediction.StateSnapshot, 0, nStates)
	}
	for i := 0; i < nStates && d.err == nil; i++ {
		var ss prediction.StateSnapshot
		ss.Anomalous = d.bool()
		nConfigs := d.count(8) // alt, top frame
		if b := d.take(8 * nConfigs); nConfigs > 0 && b != nil {
			ss.Configs = carve(&d.configChunk, nConfigs, d.remaining()/8+nConfigs)
			for j := range ss.Configs {
				ss.Configs[j] = prediction.ConfigSnapshot{
					Alt: int32(binary.LittleEndian.Uint32(b[8*j:])),
					Top: int32(binary.LittleEndian.Uint32(b[8*j+4:])),
				}
			}
		}
		ss.EdgeTerms = d.i32s()
		ss.EdgeStates = d.i32s()
		a.Cache.States = append(a.Cache.States, ss)
	}

	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("%w: %d trailing bytes after payload", ErrCorrupt, len(d.b)-d.off)
	}
	return a, nil
}

// encoder accumulates the little-endian byte stream.
type encoder struct {
	b []byte
}

func (e *encoder) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *encoder) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *encoder) i32(v int32)  { e.u32(uint32(v)) }

func (e *encoder) bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

func (e *encoder) strs(s []string) {
	e.u32(uint32(len(s)))
	for _, v := range s {
		e.str(v)
	}
}

func (e *encoder) i32s(s []int32) {
	e.u32(uint32(len(s)))
	for _, v := range s {
		e.i32(v)
	}
}

// decoder is the sticky-error forward reader. After the first failure
// every primitive returns zero values and the final error survives.
//
// The DFA snapshot holds thousands of states, each with a config list and
// two edge lists. Those slices, and the other int32 lists, are carved as
// exact-capacity sub-slices of decoder-owned chunks, so a load costs
// O(chunks) allocations rather than several per state. Each fixed-width
// run is read with one bounds check.
type decoder struct {
	b   []byte
	off int
	err error

	configChunk []prediction.ConfigSnapshot
	intChunk    []int32
}

// chunkElems is the element count of a fresh decoder chunk, unless a
// single span needs more or the input cannot fill that many.
const chunkElems = 8192

// carve returns a span of exactly n zeroed elements (capacity n) from
// *chunk, starting a new chunk when the current one is full. limit caps a
// new chunk at what the remaining input could still fill, so hostile
// counts — already capped by count — never size a chunk beyond the input.
func carve[T any](chunk *[]T, n, limit int) []T {
	c := *chunk
	if len(c)+n > cap(c) {
		c = make([]T, 0, max(n, min(chunkElems, limit)))
	}
	end := len(c) + n
	*chunk = c[:end]
	return c[len(c):end:end]
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

func (d *decoder) remaining() int { return len(d.b) - d.off }

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > d.remaining() {
		d.fail("truncated at offset %d (need %d bytes, have %d)", d.off, n, d.remaining())
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) i32() int32 { return int32(d.u32()) }

func (d *decoder) bool() bool {
	b := d.take(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("invalid boolean byte %#x at offset %d", b[0], d.off-1)
		return false
	}
}

// count reads a u32 element count and validates it against the bytes that
// remain, given the minimum encoded size of one element — the allocation
// cap that keeps hostile counts from turning into huge allocations.
func (d *decoder) count(minElemSize int) int {
	n := d.u32()
	if d.err != nil {
		return 0
	}
	if int64(n)*int64(minElemSize) > int64(d.remaining()) {
		d.fail("count %d at offset %d exceeds remaining input", n, d.off-4)
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	n := d.count(1)
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

func (d *decoder) strs() []string {
	n := d.count(4)
	if n == 0 || d.err != nil {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, d.str())
	}
	return out
}

func (d *decoder) i32s() []int32 {
	n := d.count(4)
	b := d.take(4 * n)
	if n == 0 || b == nil {
		return nil
	}
	out := carve(&d.intChunk, n, d.remaining()/4+n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}
