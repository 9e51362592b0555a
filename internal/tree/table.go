package tree

import "costar/internal/grammar"

// ID names one node of a Table. IDs are opaque: each encodes a chunk number
// and an offset in that chunk, so they are neither dense nor ordered.
type ID int32

// ErrNT is the reserved label of nodes named ErrLabel (recovery's groups of
// skipped tokens), which belong to no grammar nonterminal.
const ErrNT grammar.NTID = -1

// Table stores parse-tree nodes in three append-only columns:
//
//   - recs: one fixed-size, pointer-free record per node;
//   - kids: every interior node's children, one contiguous span of IDs per
//     node, also pointer-free;
//   - toks: one grammar.Token per leaf — the only column holding pointers.
//
// Interior labels index names: for a parse that is the compiled grammar's
// nonterminal name table, shared and read-only. A Tree is a handle on one
// node of a table, so a parse of N nodes costs O(chunks) allocations, and
// its tree hands the garbage collector two columns it never scans.
//
// Lifetime is Result-scoped: a run builds its tree in one table, the root's
// handle escapes into the Result, and the garbage collector frees the
// table's chunks when the last handle dies. Tables are never pooled or
// reset. A table is built by one goroutine; once built it is read-only and
// safe for concurrent readers.
type Table struct {
	names []string
	recs  column[rec]
	kids  column[ID]
	toks  column[grammar.Token]
}

// rec is one node: 12 bytes, no pointers.
type rec struct {
	label int32  // interior: index into names, or ErrNT
	first ID     // interior: slot of the first child in kids; leaf: token slot in toks
	meta  uint32 // leafBit | errBit | child count
}

const (
	leafBit   = 1 << 31
	errBit    = 1 << 30
	countMask = errBit - 1
)

func (r *rec) isLeaf() bool { return r.meta&leafBit != 0 }
func (r *rec) isErr() bool  { return r.meta&errBit != 0 }

// NewTable returns an empty table whose interior labels index names. The
// table keeps names and never writes to it. The table and the first chunk
// of each column are one allocation, so a parse's tree costs one
// allocation until it outgrows those chunks.
func NewTable(names []string) *Table {
	s := &seededTable{Table: Table{names: names}}
	s.recs.seed(s.rec0[:])
	s.kids.seed(s.kid0[:])
	s.toks.seed(s.tok0[:])
	return &s.Table
}

// seededTable is a table allocated with its columns' first chunks. The
// token chunk comes first, so its 32-byte tokens sit on cache-line
// boundaries as a chunk of their own does, and the pointer-free chunks
// come last, so the collector's scan of the allocation ends where they
// begin.
type seededTable struct {
	tok0 [firstChunk]grammar.Token
	Table
	rec0 [firstChunk]rec
	kid0 [firstChunk]ID
}

// Tree returns a handle on node id.
func (t *Table) Tree(id ID) *Tree { return &Tree{t: t, id: id} }

// Leaf appends a leaf for token tok.
func (t *Table) Leaf(tok grammar.Token) ID { return t.leaf(tok, 0) }

// ErrorLeaf appends a leaf for a terminal synthesized by recovery.
func (t *Table) ErrorLeaf(tok grammar.Token) ID { return t.leaf(tok, errBit) }

// Node appends an interior node labeled nt over kids, in order.
func (t *Table) Node(nt grammar.NTID, kids []ID) ID {
	id, span := t.node(int32(nt), len(kids), 0)
	copy(span, kids)
	return id
}

// ErrorNode appends a recovery error node labeled nt over kids, in order.
func (t *Table) ErrorNode(nt grammar.NTID, kids []ID) ID {
	id, span := t.node(int32(nt), len(kids), errBit)
	copy(span, kids)
	return id
}

func (t *Table) leaf(tok grammar.Token, flags uint32) ID {
	return t.recs.push(rec{first: t.toks.push(tok), meta: leafBit | flags})
}

// node appends an interior node with n child slots and returns the slots
// for the caller to fill.
func (t *Table) node(label int32, n int, flags uint32) (ID, []ID) {
	var first ID
	var span []ID
	if n > 0 {
		first, span = t.kids.alloc(n)
	}
	return t.recs.push(rec{label: label, first: first, meta: flags | uint32(n)}), span
}

// copyFrom appends a copy of src's subtree at id and returns the copy's
// root. Labels are copied by name, so src may use another name table.
func (t *Table) copyFrom(src *Table, id ID) ID {
	r := src.recs.at(id)
	if r.isLeaf() {
		return t.leaf(*src.toks.at(r.first), r.meta&errBit)
	}
	t.names = append(t.names, src.name(r.label))
	nid, span := t.node(int32(len(t.names)-1), int(r.meta&countMask), r.meta&errBit)
	for i, k := range src.kidsOf(r) {
		span[i] = t.copyFrom(src, k)
	}
	return nid
}

func (t *Table) name(label int32) string {
	if label < 0 {
		return ErrLabel
	}
	return t.names[label]
}

// kidsOf returns interior node r's children.
func (t *Table) kidsOf(r *rec) []ID {
	n := int(r.meta & countMask)
	if r.isLeaf() || n == 0 {
		return nil
	}
	return t.kids.span(r.first, n)
}

// Column chunks: chunk k holds firstChunk<<k elements up to maxChunk, so a
// slot's ID is its chunk number shifted left by chunkShift plus its offset.
// A span longer than maxChunk gets a chunk of its own, starting at offset 0.
const (
	firstShift   = 8
	firstChunk   = 1 << firstShift // 256
	chunkShift   = 14
	maxChunk     = 1 << chunkShift // 16,384
	inlineChunks = 8
)

// column is an append-only sequence of T stored in chunks that never move.
// Growing appends a chunk and copies nothing, so a column costs its chunks
// and no discarded copies, and the first inlineChunks chunk headers live in
// the column itself.
type column[T any] struct {
	chunks [][]T // the last chunk is filled up to used
	used   int
	inline [inlineChunks][]T
}

// push appends v and returns its slot.
func (c *column[T]) push(v T) ID {
	id, s := c.alloc(1)
	s[0] = v
	return id
}

// alloc returns n (> 0) contiguous fresh slots and the ID of the first.
func (c *column[T]) alloc(n int) (ID, []T) {
	k := len(c.chunks) - 1
	if k < 0 || c.used+n > len(c.chunks[k]) {
		c.grow(n)
		k++
	}
	s := c.chunks[k][c.used : c.used+n : c.used+n]
	id := ID(k<<chunkShift | c.used)
	c.used += n
	return id, s
}

// seed gives an empty column first, of firstChunk elements, as its first
// chunk.
func (c *column[T]) seed(first []T) {
	c.chunks = append(c.inline[:0], first)
}

func (c *column[T]) grow(n int) {
	if c.chunks == nil {
		c.chunks = c.inline[:0]
	}
	size := maxChunk
	if k := len(c.chunks); k < chunkShift-firstShift {
		size = firstChunk << k
	}
	c.chunks = append(c.chunks, make([]T, max(size, n)))
	c.used = 0
}

func (c *column[T]) at(id ID) *T { return &c.chunks[id>>chunkShift][id&(maxChunk-1)] }

func (c *column[T]) span(id ID, n int) []T {
	off := int(id & (maxChunk - 1))
	return c.chunks[id>>chunkShift][off : off+n]
}
