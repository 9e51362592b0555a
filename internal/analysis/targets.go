package analysis

import (
	"fmt"
	"sort"
	"strings"

	"costar/internal/grammar"
)

// ReturnTarget is a static continuation an SLL subparser may return into
// when its local stack empties at nonterminal X: the remainder Rest of some
// production of Lhs after an occurrence of X (chased transitively through
// empty remainders). Rest is always non-empty; it aliases the compiled
// production array, and Prod and Dot name its grammar position, which is
// how prediction's frames record it.
//
// This is the Section 3.5 "stable return frames" idea: rather than tracking
// the true caller (which SLL, by design, does not know), the subparser
// simulates a return into every statically possible continuation.
type ReturnTarget struct {
	Lhs  grammar.NTID    // enclosing production's left-hand side
	Rest []grammar.SymID // compiled remainder after the occurrence
	Prod int             // production the occurrence sits in
	Dot  int             // occurrence position: Rest == Rhs(Prod)[Dot+1:]
}

// StringWith renders the target as "Lhs: rest…".
func (rt ReturnTarget) StringWith(c *grammar.Compiled) string {
	return c.NTName(rt.Lhs) + ": " + c.FormString(rt.Rest)
}

// Targets holds, for every nonterminal, its stable return targets and
// whether a pop chain from it can reach the end of the whole parse, both
// indexed densely by NTID. Construct with NewTargets; both the verified
// machine's SLL mode and the imperative allstar baseline read it, so the
// two engines share one computation of the static return frames.
type Targets struct {
	c         *grammar.Compiled
	byNT      [][]ReturnTarget
	canFinish []bool
}

// NewTargets computes stable return targets for every nonterminal of g,
// with g.Start as the parse's start symbol.
func NewTargets(g *grammar.Grammar) *Targets {
	return NewTargetsFor(g, g.Start)
}

// NewTargetsFor is NewTargets with an explicit start symbol (the start
// symbol determines which pop chains can finish the parse).
//
// One pass over the productions indexes every nonterminal's occurrences:
// those with a non-empty remainder become return targets, and those that
// end a production of Y become an edge to Y, whose own targets an empty
// remainder delegates to. A nonterminal's targets are then the indexed
// occurrences of everything it reaches over those edges (cycles of empty
// remainders are cut by the reached set), in grammar-position order; and
// its pop chain can finish the parse exactly when the start symbol is
// among what it reaches.
func NewTargetsFor(g *grammar.Grammar, start string) *Targets {
	c := g.Compiled()
	n := c.NumNTs()
	t := &Targets{
		c:         c,
		byNT:      make([][]ReturnTarget, n),
		canFinish: make([]bool, n),
	}
	type position struct{ prod, dot int }
	occ := make([][]position, n)      // occurrences with a non-empty remainder
	ends := make([][]grammar.NTID, n) // ends[X]: each Y with a production ending in X
	for i := range c.Grammar().Prods {
		rhs := c.Rhs(i)
		for j, s := range rhs {
			if !s.IsNT() {
				continue
			}
			if x := s.NT(); j == len(rhs)-1 {
				ends[x] = append(ends[x], c.Lhs(i))
			} else {
				occ[x] = append(occ[x], position{i, j})
			}
		}
	}
	startID, startOK := c.NTIDOf(start)
	reached := make([]grammar.NTID, n) // reached[Y] == X+1: X reaches Y
	var work []grammar.NTID
	for x := grammar.NTID(0); int(x) < n; x++ {
		mark := x + 1
		reached[x] = mark
		work = append(work[:0], x)
		var out []ReturnTarget
		for len(work) > 0 {
			y := work[len(work)-1]
			work = work[:len(work)-1]
			for _, o := range occ[y] {
				out = append(out, ReturnTarget{Lhs: c.Lhs(o.prod), Rest: c.Rhs(o.prod)[o.dot+1:], Prod: o.prod, Dot: o.dot})
			}
			for _, z := range ends[y] {
				if reached[z] != mark {
					reached[z] = mark
					work = append(work, z)
				}
			}
		}
		// Canonical order: grammar position. Deterministic, and cheap — no
		// string rendering in the comparator.
		sort.Slice(out, func(i, j int) bool {
			if out[i].Prod != out[j].Prod {
				return out[i].Prod < out[j].Prod
			}
			return out[i].Dot < out[j].Dot
		})
		t.byNT[x] = out
		t.canFinish[x] = startOK && reached[startID] == mark
	}
	return t
}

// Compiled returns the compiled grammar the targets index into.
func (t *Targets) Compiled() *grammar.Compiled { return t.c }

// For returns the stable return targets of nt. The slice must not be
// modified. Out-of-range IDs have no targets.
func (t *Targets) For(nt grammar.NTID) []ReturnTarget {
	if nt < 0 || int(nt) >= len(t.byNT) {
		return nil
	}
	return t.byNT[nt]
}

// CanFinish reports whether an SLL pop chain from nt can reach the bottom
// of the parse — i.e. some derivation from the start symbol ends exactly
// with nt (possibly through trailing occurrences chained transitively).
// A subparser whose stack empties at such an nt may legitimately stop at
// end of input.
func (t *Targets) CanFinish(nt grammar.NTID) bool {
	return nt >= 0 && int(nt) < len(t.canFinish) && t.canFinish[nt]
}

// DebugString renders all targets by nonterminal name, for golden tests.
func (t *Targets) DebugString() string {
	type row struct {
		name string
		id   grammar.NTID
	}
	rows := make([]row, 0, len(t.byNT))
	for id := range t.byNT {
		rows = append(rows, row{t.c.NTName(grammar.NTID(id)), grammar.NTID(id)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s (finish=%v):", r.name, t.canFinish[r.id])
		for _, rt := range t.byNT[r.id] {
			fmt.Fprintf(&b, " [%s]", rt.StringWith(t.c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
