// Package transform provides grammar transformations around left
// recursion. Section 4.1 notes that "ANTLR is able to avoid most instances
// of this problem by rewriting the grammar to eliminate common forms of
// left recursion" and that CoStar leaves verifying such rewrites to future
// work; this package supplies the rewrite (Paull's algorithm), with the
// verification burden carried — as everywhere in this repository — by
// differential tests: the transformed grammar accepts the same language
// (checked against the Earley oracle) and is accepted by CoStar.
//
// It also provides useless-symbol removal (unreachable or unproductive
// nonterminals), which Paull's algorithm needs to behave predictably.
package transform

import (
	"fmt"

	"costar/internal/analysis"
	"costar/internal/grammar"
	"costar/internal/grammarlint"
)

// RemoveUseless returns a grammar containing only productions whose
// nonterminals are all reachable from the start symbol and productive
// (derive at least one finite word). The start symbol is kept even when
// unproductive, so the result always validates if the input did.
func RemoveUseless(g *grammar.Grammar) *grammar.Grammar {
	productive := analysis.Productive(g)
	// Reachability must be computed over the productive sub-grammar:
	// a reachable-but-only-through-unproductive-rules nonterminal is
	// still useless.
	keepProd := func(p grammar.Production) bool {
		if !productive[p.Lhs] {
			return false
		}
		for _, s := range p.Rhs {
			if s.IsNT() && !productive[s.Name] {
				return false
			}
		}
		return true
	}
	reach := map[string]bool{g.Start: true}
	for changed := true; changed; {
		changed = false
		for _, p := range g.Prods {
			if !reach[p.Lhs] || !keepProd(p) {
				continue
			}
			for _, s := range p.Rhs {
				if s.IsNT() && !reach[s.Name] {
					reach[s.Name] = true
					changed = true
				}
			}
		}
	}
	var prods []grammar.Production
	for _, p := range g.Prods {
		if reach[p.Lhs] && keepProd(p) {
			prods = append(prods, p)
		}
	}
	if len(prods) == 0 {
		// Keep the start symbol present so Validate still passes shape
		// checks; an unproductive start means the language is empty.
		prods = append(prods, grammar.Production{Lhs: g.Start, Rhs: []grammar.Symbol{grammar.NT(g.Start)}})
	}
	return grammar.New(g.Start, prods)
}

// EliminateLeftRecursion rewrites g into an equivalent grammar with no
// left recursion, using Paull's algorithm: substitute earlier nonterminals
// into leading positions, then remove immediate left recursion by
// introducing tail nonterminals (A → Aα | β becomes A → β A', A' → α A' | ε).
//
// Preconditions (checked): the grammar must have no ε-productions on
// nonterminals involved in left-recursive substitution chains and no unit
// cycles (A ⇒+ A by single steps); such grammars are rejected with an
// error rather than transformed incorrectly. Useless symbols are removed
// first.
func EliminateLeftRecursion(g *grammar.Grammar) (*grammar.Grammar, error) {
	g = RemoveUseless(g)
	found := grammarlint.LeftRecursion(g)
	if len(found) == 0 {
		return g, nil
	}
	an := analysis.New(g)
	// Guard: Paull's algorithm is only correct here without ε-productions
	// on the left-recursive part and without cycles. Detect the hard cases
	// and refuse (the caller sees a clear error instead of a wrong grammar).
	leftRec := make(map[string]bool, len(found))
	for _, d := range found {
		leftRec[d.NT] = true
		if an.Nullable(d.NT) {
			return nil, fmt.Errorf("transform: cannot eliminate left recursion: %s is both left-recursive and nullable", d.NT)
		}
	}
	for _, p := range g.Prods {
		if len(p.Rhs) == 1 && p.Rhs[0].IsNT() && p.Rhs[0].Name == p.Lhs {
			return nil, fmt.Errorf("transform: cannot eliminate left recursion: unit cycle %s -> %s", p.Lhs, p.Lhs)
		}
	}
	// Also refuse nullable leading prefixes before a left-recursive
	// reference (hidden left recursion), which substitution alone cannot
	// expose safely.
	for _, p := range g.Prods {
		for i, s := range p.Rhs {
			if i == 0 {
				continue
			}
			if s.IsNT() && leftRec[s.Name] && an.NullableForm(p.Rhs[:i]) {
				return nil, fmt.Errorf("transform: cannot eliminate hidden left recursion in %s (nullable prefix before %s)", p, s.Name)
			}
			if !an.NullableForm(p.Rhs[i : i+1]) {
				break
			}
		}
	}

	order := g.Nonterminals()
	rank := make(map[string]int, len(order))
	for i, nt := range order {
		rank[nt] = i
	}
	// rules[nt] = current alternatives, mutated as the algorithm proceeds.
	rules := make(map[string][][]grammar.Symbol, len(order))
	for _, nt := range order {
		for _, rhs := range g.RhssFor(nt) {
			rules[nt] = append(rules[nt], rhs)
		}
	}
	b := grammar.NewBuilder(g.Start)
	for _, nt := range order {
		_ = b.Fresh(nt) // reserve original names so tails never collide
	}

	var tails []struct {
		name string
		alts [][]grammar.Symbol
	}
	for i, ai := range order {
		// Substitute A_j-leading rules for j < i.
		for changed := true; changed; {
			changed = false
			var next [][]grammar.Symbol
			for _, rhs := range rules[ai] {
				if len(rhs) > 0 && rhs[0].IsNT() {
					j, ok := rank[rhs[0].Name]
					if ok && j < i {
						for _, sub := range rules[rhs[0].Name] {
							merged := append(append([]grammar.Symbol{}, sub...), rhs[1:]...)
							next = append(next, merged)
						}
						changed = true
						continue
					}
				}
				next = append(next, rhs)
			}
			rules[ai] = next
			if len(rules[ai]) > 4096 {
				return nil, fmt.Errorf("transform: substitution blow-up at %s (%d alternatives)", ai, len(rules[ai]))
			}
		}
		// Split immediate left recursion.
		var recs, bases [][]grammar.Symbol
		for _, rhs := range rules[ai] {
			if len(rhs) > 0 && rhs[0].IsNT() && rhs[0].Name == ai {
				recs = append(recs, rhs[1:])
			} else {
				bases = append(bases, rhs)
			}
		}
		if len(recs) == 0 {
			continue
		}
		if len(bases) == 0 {
			return nil, fmt.Errorf("transform: %s has only left-recursive productions (empty language)", ai)
		}
		tail := b.Fresh(ai + "_lr")
		var newAlts [][]grammar.Symbol
		for _, base := range bases {
			newAlts = append(newAlts, append(append([]grammar.Symbol{}, base...), grammar.NT(tail)))
		}
		rules[ai] = newAlts
		var tailAlts [][]grammar.Symbol
		for _, rec := range recs {
			tailAlts = append(tailAlts, append(append([]grammar.Symbol{}, rec...), grammar.NT(tail)))
		}
		tailAlts = append(tailAlts, nil) // ε
		tails = append(tails, struct {
			name string
			alts [][]grammar.Symbol
		}{tail, tailAlts})
	}
	for _, nt := range order {
		for _, rhs := range rules[nt] {
			b.Add(nt, rhs...)
		}
	}
	for _, tl := range tails {
		for _, rhs := range tl.alts {
			b.Add(tl.name, rhs...)
		}
	}
	out, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("transform: %w", err)
	}
	if lr := grammarlint.LeftRecursion(out); len(lr) != 0 {
		return nil, fmt.Errorf("transform: residual left recursion in %v (unsupported grammar shape)", ntNames(lr))
	}
	return out, nil
}

// ntNames lists the nonterminals that left-recursion diagnostics name.
func ntNames(diags []grammarlint.Diagnostic) []string {
	names := make([]string, len(diags))
	for i, d := range diags {
		names[i] = d.NT
	}
	return names
}
