package analysis

import (
	"reflect"
	"testing"

	"costar/internal/grammar"
)

func mk(src string) *Analysis {
	return New(grammar.MustParseBNF(src))
}

func TestNullable(t *testing.T) {
	a := mk(`
		S -> A B c ;
		A -> %empty | a ;
		B -> A A | b
	`)
	cases := map[string]bool{"S": false, "A": true, "B": true}
	for nt, want := range cases {
		if got := a.Nullable(nt); got != want {
			t.Errorf("Nullable(%s) = %v, want %v", nt, got, want)
		}
	}
	if a.NullableForm([]grammar.Symbol{grammar.NT("A"), grammar.NT("B")}) != true {
		t.Error("NullableForm(A B) should be true")
	}
	if a.NullableForm([]grammar.Symbol{grammar.NT("A"), grammar.T("c")}) {
		t.Error("NullableForm with terminal should be false")
	}
	if !a.NullableForm(nil) {
		t.Error("NullableForm(ε) should be true")
	}
}

func TestFirst(t *testing.T) {
	a := mk(`
		S -> A B c ;
		A -> %empty | a ;
		B -> A A | b
	`)
	want := map[string][]string{
		"A": {"a"},
		"B": {"a", "b"},
		"S": {"a", "b", "c"},
	}
	for nt, ts := range want {
		if got := SortedSet(a.FirstOfForm([]grammar.Symbol{grammar.NT(nt)})); !reflect.DeepEqual(got, ts) {
			t.Errorf("FIRST(%s) = %v, want %v", nt, got, ts)
		}
	}
	form := []grammar.Symbol{grammar.NT("A"), grammar.T("x")}
	if got := SortedSet(a.FirstOfForm(form)); !reflect.DeepEqual(got, []string{"a", "x"}) {
		t.Errorf("FirstOfForm(A x) = %v", got)
	}
	if got := a.FirstOfForm(nil); len(got) != 0 {
		t.Errorf("FirstOfForm(ε) = %v", got)
	}
}

func TestFollow(t *testing.T) {
	a := mk(`
		S -> A B c ;
		A -> %empty | a ;
		B -> A A | b
	`)
	// FOLLOW(S) = {EOF}; FOLLOW(B) = {c}; A appears before B and inside B:
	// FOLLOW(A) ⊇ FIRST(B)∪{c} (B nullable) and FOLLOW(B)={c}.
	if got := SortedSet(a.Follow("S")); !reflect.DeepEqual(got, []string{EOF}) {
		t.Errorf("Follow(S) = %v", got)
	}
	if got := SortedSet(a.Follow("B")); !reflect.DeepEqual(got, []string{"c"}) {
		t.Errorf("Follow(B) = %v", got)
	}
	got := a.Follow("A")
	for _, tname := range []string{"a", "b", "c"} {
		if !got[tname] {
			t.Errorf("Follow(A) missing %q: %v", tname, SortedSet(got))
		}
	}
	if got := a.Follow("missing"); got != nil {
		t.Errorf("Follow(missing) = %v, want nil", got)
	}
}

func TestReachableProductive(t *testing.T) {
	a := mk(`
		S -> A ;
		A -> a ;
		Dead -> d ;
		Loop -> Loop x
	`)
	r := Reachable(a.G)
	if !r["S"] || !r["A"] || r["Dead"] || r["Loop"] {
		t.Errorf("Reachable = %v", r)
	}
	p := Productive(a.G)
	if !p["S"] || !p["A"] || !p["Dead"] || p["Loop"] {
		t.Errorf("Productive = %v", p)
	}
}

func TestEOFIsDisjoint(t *testing.T) {
	a := mk(`S -> a`)
	for _, term := range a.G.Terminals() {
		if term == EOF {
			t.Fatalf("grammar terminal collides with EOF sentinel")
		}
	}
}

func TestXMLStyleRuleAnalysis(t *testing.T) {
	// The paper's XML elt rule (Section 6.1): both alternatives start with
	// '<' Name attribute*, so FIRST sets alone cannot decide — exactly why
	// the grammar is not LL(1). Here we just check the analysis facts that
	// the LL(1) baseline uses to report the conflict.
	a := mk(`
		Elt -> lt Name Attrs gt Content lt slash Name gt | lt Name Attrs slashgt ;
		Attrs -> Attr Attrs | %empty ;
		Attr -> Name eq String ;
		Content -> text | %empty ;
		Name -> name ;
		String -> string
	`)
	f0 := a.FirstOfForm(a.G.RhssFor("Elt")[0])
	f1 := a.FirstOfForm(a.G.RhssFor("Elt")[1])
	if !f0["lt"] || !f1["lt"] {
		t.Errorf("both alternatives should begin with lt: %v / %v", SortedSet(f0), SortedSet(f1))
	}
}
