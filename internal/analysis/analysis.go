// Package analysis computes the static grammar facts the CoStar engines
// and their baselines read:
//
//   - NULLABLE, FIRST, and FOLLOW fixpoints;
//   - the stable return targets of SLL mode (targets.go), the static
//     information behind the "stable return frames" a subparser returns
//     into when its stack empties (Section 3.5);
//   - reachability and productivity (useless-symbol detection), computed
//     on demand.
//
// The fixpoints run on the compiled grammar: NULLABLE is a []bool indexed
// by NTID and FIRST/FOLLOW are bitset rows over TermIDs (with EOF as a
// virtual terminal column), so each fixpoint iteration is word-parallel OR
// instead of string-map traffic. The name-level accessors decode the rows
// when called; nothing keyed by a symbol name is built up front.
//
// Left recursion is not decided here: grammarlint's SCC pass is the one
// decision procedure (the paper's Section 8 lists it as future work).
package analysis

import (
	"math/bits"
	"sort"

	"costar/internal/grammar"
)

// EOF is the pseudo-terminal that FOLLOW sets use to mark "end of input".
// It never appears in grammars or token words.
const EOF = "$$EOF$$"

// Analysis holds the computed facts for one grammar. Construct with New;
// the zero value is not usable. An Analysis is immutable after construction
// and safe for concurrent use.
type Analysis struct {
	G *grammar.Grammar
	c *grammar.Compiled

	// Dense tables, indexed by NTID; the columns of the bitset rows are
	// TermIDs, with column NumTerms standing for EOF.
	nullableID []bool
	firstRow   [][]uint64
	followRow  [][]uint64
	rowWords   int
	eofCol     int
}

// New runs the NULLABLE, FIRST, and FOLLOW fixpoints for g. Cost is
// polynomial in grammar size; the result should be cached alongside the
// grammar (parser sessions do this).
func New(g *grammar.Grammar) *Analysis {
	c := g.Compiled()
	a := &Analysis{G: g, c: c}
	a.eofCol = c.NumTerms()
	a.rowWords = (a.eofCol + 1 + 63) / 64
	n := c.NumNTs()
	a.nullableID = make([]bool, n)
	a.firstRow = newRows(n, a.rowWords)
	a.followRow = newRows(n, a.rowWords)
	a.computeNullable()
	a.computeFirst()
	a.computeFollow()
	return a
}

func newRows(n, words int) [][]uint64 {
	backing := make([]uint64, n*words)
	rows := make([][]uint64, n)
	for i := range rows {
		rows[i] = backing[i*words : (i+1)*words]
	}
	return rows
}

func setBit(row []uint64, i int) bool {
	w, b := i>>6, uint(i&63)
	if row[w]&(1<<b) != 0 {
		return false
	}
	row[w] |= 1 << b
	return true
}

func hasBit(row []uint64, i int) bool {
	return row[i>>6]&(1<<uint(i&63)) != 0
}

// orRow ORs src into dst, reporting whether dst changed.
func orRow(dst, src []uint64) bool {
	changed := false
	for i, w := range src {
		if dst[i]|w != dst[i] {
			dst[i] |= w
			changed = true
		}
	}
	return changed
}

// Dense-row accessors for engine-side bitset consumers (the recovery
// driver's anchor sets). Rows are rowWords() uint64 words; terminal t
// occupies bit t and the synthetic end-of-input column occupies bit
// EOFCol(). Returned slices are live views into the fixpoint tables and
// must not be modified.

// RowWords is the length in uint64 words of every FIRST/FOLLOW row.
func (a *Analysis) RowWords() int { return a.rowWords }

// EOFCol is the bit column that represents end-of-input in FOLLOW rows.
func (a *Analysis) EOFCol() int { return a.eofCol }

// FirstRowID returns the FIRST bitset row for n, or nil if n is out of
// range.
func (a *Analysis) FirstRowID(n grammar.NTID) []uint64 {
	if n < 0 || int(n) >= len(a.firstRow) {
		return nil
	}
	return a.firstRow[n]
}

// FollowRowID returns the FOLLOW bitset row for n, or nil if n is out of
// range.
func (a *Analysis) FollowRowID(n grammar.NTID) []uint64 {
	if n < 0 || int(n) >= len(a.followRow) {
		return nil
	}
	return a.followRow[n]
}

// RowHas reports whether bit i is set in row (nil-row safe).
func RowHas(row []uint64, i int) bool {
	return i >= 0 && i>>6 < len(row) && hasBit(row, i)
}

// RowSet sets bit i in row.
func RowSet(row []uint64, i int) { setBit(row, i) }

// RowOr ORs src into dst (no-op when src is nil).
func RowOr(dst, src []uint64) {
	if src != nil {
		orRow(dst, src)
	}
}

// Nullable reports whether nt derives the empty word.
func (a *Analysis) Nullable(nt string) bool {
	id, ok := a.c.NTIDOf(nt)
	return ok && a.NullableID(id)
}

// NullableID is Nullable on a compiled nonterminal ID — the engines' form.
func (a *Analysis) NullableID(n grammar.NTID) bool {
	return n >= 0 && int(n) < len(a.nullableID) && a.nullableID[n]
}

// NullableForm reports whether every symbol of the sentential form is
// nullable (terminals never are).
func (a *Analysis) NullableForm(form []grammar.Symbol) bool {
	for _, s := range form {
		if s.IsT() || !a.Nullable(s.Name) {
			return false
		}
	}
	return true
}

// NullableFormIDs is NullableForm on a compiled sentential form.
func (a *Analysis) NullableFormIDs(form []grammar.SymID) bool {
	for _, s := range form {
		if s.IsT() || !a.NullableID(s.NT()) {
			return false
		}
	}
	return true
}

// FirstOfForm computes FIRST of a sentential form (terminals that can begin
// a word derived from it), allocating a fresh set.
func (a *Analysis) FirstOfForm(form []grammar.Symbol) map[string]bool {
	out := make(map[string]bool)
	for _, s := range form {
		if s.IsT() {
			out[s.Name] = true
			return out
		}
		id, ok := a.c.NTIDOf(s.Name)
		if !ok {
			return out
		}
		a.addRowNames(out, a.firstRow[id])
		if !a.nullableID[id] {
			return out
		}
	}
	return out
}

// FirstOfFormIDs is FirstOfForm on a compiled sentential form, returning
// terminal names (it feeds error messages, so the string hop is fine).
func (a *Analysis) FirstOfFormIDs(form []grammar.SymID) map[string]bool {
	out := make(map[string]bool)
	for _, s := range form {
		if s.IsT() {
			out[a.c.TermName(s.Term())] = true
			return out
		}
		n := s.NT()
		if n >= 0 && int(n) < len(a.firstRow) {
			a.addRowNames(out, a.firstRow[n])
		}
		if !a.NullableID(n) {
			return out
		}
	}
	return out
}

// addRowNames adds the terminal names of a bitset row (excluding EOF) to set.
func (a *Analysis) addRowNames(set map[string]bool, row []uint64) {
	for w, word := range row {
		for ; word != 0; word &= word - 1 {
			col := w*64 + bits.TrailingZeros64(word)
			if col == a.eofCol {
				continue
			}
			set[a.c.TermName(grammar.TermID(col))] = true
		}
	}
}

// Follow returns FOLLOW(nt): terminals that can appear immediately after nt
// in a sentential form derived from the start symbol, plus EOF when nt can
// end such a form. It decodes a fresh set per call; nil for a name that
// is not a defined nonterminal.
func (a *Analysis) Follow(nt string) map[string]bool {
	id, ok := a.c.NTIDOf(nt)
	if !ok || !a.c.HasNTID(id) {
		return nil
	}
	row := a.followRow[id]
	out := make(map[string]bool)
	a.addRowNames(out, row)
	if hasBit(row, a.eofCol) {
		out[EOF] = true
	}
	return out
}

func (a *Analysis) computeNullable() {
	c := a.c
	changed := true
	for changed {
		changed = false
		for i := 0; i < len(c.Grammar().Prods); i++ {
			lhs := c.Lhs(i)
			if a.nullableID[lhs] {
				continue
			}
			ok := true
			for _, s := range c.Rhs(i) {
				if s.IsT() || !a.nullableID[s.NT()] {
					ok = false
					break
				}
			}
			if ok {
				a.nullableID[lhs] = true
				changed = true
			}
		}
	}
}

func (a *Analysis) computeFirst() {
	c := a.c
	changed := true
	for changed {
		changed = false
		for i := 0; i < len(c.Grammar().Prods); i++ {
			row := a.firstRow[c.Lhs(i)]
			for _, s := range c.Rhs(i) {
				if s.IsT() {
					if setBit(row, int(s.Term())) {
						changed = true
					}
					break
				}
				if orRow(row, a.firstRow[s.NT()]) {
					changed = true
				}
				if !a.nullableID[s.NT()] {
					break
				}
			}
		}
	}
}

// firstOfRestInto accumulates FIRST(form) into row, reporting whether the
// whole form is nullable.
func (a *Analysis) firstOfRestInto(row []uint64, form []grammar.SymID) (nullable, changed bool) {
	for _, s := range form {
		if s.IsT() {
			return false, setBit(row, int(s.Term()))
		}
		if orRow(row, a.firstRow[s.NT()]) {
			changed = true
		}
		if !a.nullableID[s.NT()] {
			return false, changed
		}
	}
	return true, changed
}

func (a *Analysis) computeFollow() {
	c := a.c
	if start := c.Start(); c.HasNTID(start) {
		setBit(a.followRow[start], a.eofCol)
	}
	changed := true
	for changed {
		changed = false
		for i := 0; i < len(c.Grammar().Prods); i++ {
			rhs := c.Rhs(i)
			lhsRow := a.followRow[c.Lhs(i)]
			for j, s := range rhs {
				if !s.IsNT() {
					continue
				}
				row := a.followRow[s.NT()]
				nullable, ch := a.firstOfRestInto(row, rhs[j+1:])
				if ch {
					changed = true
				}
				if nullable {
					if orRow(row, lhsRow) {
						changed = true
					}
				}
			}
		}
	}
}

// Reachable returns the nonterminals reachable from g's start symbol.
func Reachable(g *grammar.Grammar) map[string]bool {
	out := map[string]bool{}
	if !g.HasNT(g.Start) {
		return out
	}
	work := []string{g.Start}
	out[g.Start] = true
	for len(work) > 0 {
		nt := work[len(work)-1]
		work = work[:len(work)-1]
		for _, rhs := range g.RhssFor(nt) {
			for _, s := range rhs {
				if s.IsNT() && !out[s.Name] {
					out[s.Name] = true
					work = append(work, s.Name)
				}
			}
		}
	}
	return out
}

// Productive returns the nonterminals of g that derive at least one
// (finite) terminal word.
func Productive(g *grammar.Grammar) map[string]bool {
	out := map[string]bool{}
	changed := true
	for changed {
		changed = false
		for _, p := range g.Prods {
			if out[p.Lhs] {
				continue
			}
			ok := true
			for _, s := range p.Rhs {
				if s.IsNT() && !out[s.Name] {
					ok = false
					break
				}
			}
			if ok {
				out[p.Lhs] = true
				changed = true
			}
		}
	}
	return out
}

// SortedSet renders a terminal set deterministically, for tests and
// diagnostics.
func SortedSet(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}
