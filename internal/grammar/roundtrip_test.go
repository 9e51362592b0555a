package grammar_test

import (
	"reflect"
	"sort"
	"testing"

	"costar/internal/grammar"
	"costar/internal/grammarlint"
	"costar/internal/languages/dotlang"
	"costar/internal/languages/jsonlang"
	"costar/internal/languages/pylang"
	"costar/internal/languages/xmllang"
)

// TestBundledGrammarsRoundTripThroughBNF: String's text, parsed back with
// ParseBNF, is the same grammar for every bundled language — the same
// terminals, nonterminals and productions — and still vets clean. DOT
// exercises the case the random round trip cannot: keyword terminals
// (graph, subgraph) named like the rules next to them.
func TestBundledGrammarsRoundTripThroughBNF(t *testing.T) {
	for name, g := range map[string]*grammar.Grammar{
		"json":   jsonlang.Grammar(),
		"xml":    xmllang.Grammar(),
		"dot":    dotlang.Grammar(),
		"python": pylang.Grammar(),
	} {
		back, err := grammar.ParseBNF(g.String())
		if err != nil {
			t.Errorf("%s: reparse: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(back.Terminals(), g.Terminals()) {
			t.Errorf("%s: terminals %v, want %v", name, back.Terminals(), g.Terminals())
		}
		// String prints the start symbol's rule first, so definition order
		// can change; the set may not.
		if got, want := sorted(back.Nonterminals()), sorted(g.Nonterminals()); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: nonterminals %v, want %v", name, got, want)
		}
		if back.Start != g.Start || !sameProductions(back, g) {
			t.Errorf("%s: productions differ after the round trip", name)
		}
		if errs := grammarlint.Check(back).Errors(); len(errs) > 0 {
			t.Errorf("%s: reparsed grammar vets with %d errors; first: %s", name, len(errs), errs[0])
		}
	}
}

func sorted(names []string) []string {
	out := append([]string(nil), names...)
	sort.Strings(out)
	return out
}

// sameProductions compares the production multisets: String groups the
// alternatives of each nonterminal, so the order can change.
func sameProductions(a, b *grammar.Grammar) bool {
	count := map[string]int{}
	for _, p := range a.Prods {
		count[key(p)]++
	}
	for _, p := range b.Prods {
		count[key(p)]--
	}
	for _, n := range count {
		if n != 0 {
			return false
		}
	}
	return len(a.Prods) == len(b.Prods)
}

// key identifies a production with each symbol's kind spelled out, since
// Production.String prints a terminal and a nonterminal of one name alike.
func key(p grammar.Production) string {
	k := p.Lhs + " ->"
	for _, s := range p.Rhs {
		if s.IsT() {
			k += " t:" + s.Name
		} else {
			k += " n:" + s.Name
		}
	}
	return k
}
