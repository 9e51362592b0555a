package parser

// Certified mode: a grammar carrying a grammarlint certificate parses with
// the machine's dynamic left-recursion check demoted to an assertion. The
// contract is that this changes NOTHING observable — every certified parse
// is deep-equal to the uncertified parse of the same word, and both agree
// with the Earley oracle. These tests are the acceptance check for that.

import (
	"math/rand"
	"reflect"
	"testing"

	"costar/internal/earley"
	"costar/internal/grammar"
	"costar/internal/grammarlint"
	"costar/internal/languages/dotlang"
	"costar/internal/languages/jsonlang"
	"costar/internal/languages/pylang"
	"costar/internal/languages/xmllang"
	"costar/internal/prediction"
)

// TestCertifiedSessionDetection: New picks up an attached certificate, and
// only the certificate: an equal grammar without one stays uncertified.
func TestCertifiedSessionDetection(t *testing.T) {
	g := grammar.MustParseBNF(`S -> a S b | %empty`)
	p1 := MustNew(g, Options{})
	if p1.Certified() {
		t.Fatal("session certified without a certificate")
	}
	if _, _, err := grammarlint.Certify(g); err != nil {
		t.Fatalf("Certify: %v", err)
	}
	p2 := MustNew(g, Options{})
	if !p2.Certified() {
		t.Fatal("session not certified after Certify")
	}
	p3 := MustNew(grammar.New(g.Start, g.Prods), Options{})
	if p3.Certified() {
		t.Fatal("uncertified twin grammar ran certified")
	}
	// Sessions built before certification are not retroactively certified.
	if p1.Certified() {
		t.Fatal("pre-existing session flipped to certified")
	}
}

// TestCertifiedParsesDeepEqual: on randomly generated certifiable grammars,
// certified and uncertified sessions return deep-equal results (same kind,
// same tree, same step count) and agree with the Earley oracle on
// membership.
func TestCertifiedParsesDeepEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	grammars := 0
	checked := 0
	for grammars < 120 {
		g := genGrammar(rng)
		if g.Validate() != nil {
			continue
		}
		rep := grammarlint.Check(g)
		if !rep.Certifiable() {
			continue
		}
		grammars++
		opts := Options{CheckInvariants: true, Limits: Limits{MaxSteps: 200000}}
		plain := MustNew(g, opts) // built before Certify: stays uncertified
		if _, _, err := grammarlint.Certify(g); err != nil {
			t.Fatalf("Certify on certifiable grammar: %v\n%s", err, g)
		}
		cert := MustNew(g, opts)
		if !cert.Certified() || plain.Certified() {
			t.Fatalf("certification flags wrong: cert=%v plain=%v\n%s", cert.Certified(), plain.Certified(), g)
		}
		for _, w := range genWords(rng, g, 8) {
			checked++
			rc := cert.Parse(w)
			rp := plain.Parse(w)
			// Prediction statistics may differ between sessions (separate
			// caches warm differently across words); everything the caller
			// can observe about the parse itself must match exactly.
			rc.Stats, rp.Stats = prediction.Stats{}, prediction.Stats{}
			if !reflect.DeepEqual(rc, rp) {
				t.Fatalf("certified/uncertified mismatch:\n  certified:   %+v\n  uncertified: %+v\ngrammar:\n%sword: %s",
					rc, rp, g, grammar.WordString(w))
			}
			if rc.Kind == Error {
				t.Fatalf("certified grammar produced Error: %v\n%s", rc.Err, g)
			}
			cls := earley.Classify(g, g.Start, w)
			accepted := rc.Kind == Unique || rc.Kind == Ambig
			if accepted != cls.Member {
				t.Fatalf("oracle disagreement: parser %v, oracle member=%v\ngrammar:\n%sword: %s",
					rc.Kind, cls.Member, g, grammar.WordString(w))
			}
		}
	}
	t.Logf("certified differential: %d grammars, %d parses", grammars, checked)
}

// TestCertifiedBundledLanguages: the four bundled grammars certify, and a
// certified session parses their example inputs identically to an
// uncertified one.
func TestCertifiedBundledLanguages(t *testing.T) {
	for _, lang := range []struct {
		name     string
		g        *grammar.Grammar
		input    string
		tokenize func(string) ([]grammar.Token, error)
	}{
		{"json", jsonlang.Grammar(), `{"a": [1, 2, {"b": null}], "c": true}`, jsonlang.Tokenize},
		{"xml", xmllang.Grammar(), `<a x="1"><b>hi</b><c/></a>`, xmllang.Tokenize},
		{"dot", dotlang.Grammar(), `digraph g { a -> b; b -> c [label="e"]; }`, dotlang.Tokenize},
		{"python", pylang.Grammar(), "def f(x):\n    return x + 1\n", pylang.Tokenize},
	} {
		t.Run(lang.name, func(t *testing.T) {
			g := lang.g
			if _, _, err := grammarlint.Certify(g); err != nil {
				t.Fatalf("Certify(%s): %v", lang.name, err)
			}
			w, err := lang.tokenize(lang.input)
			if err != nil {
				t.Fatalf("lex: %v", err)
			}
			cert := MustNew(g, Options{CheckInvariants: true})
			// The bundled grammars are shared and may already carry a
			// certificate; a twin built from the same productions carries
			// none.
			plain := MustNew(grammar.New(g.Start, g.Prods), Options{CheckInvariants: true})
			if !cert.Certified() || plain.Certified() {
				t.Fatalf("certification flags wrong: cert=%v plain=%v", cert.Certified(), plain.Certified())
			}
			rc, rp := cert.Parse(w), plain.Parse(w)
			if rc.Kind != Unique {
				t.Fatalf("certified parse: %s", rc)
			}
			if rc.Kind != rp.Kind || !rc.Tree.Equal(rp.Tree) {
				t.Fatalf("certified/uncertified trees differ:\n%v\nvs\n%v", rc.Tree, rp.Tree)
			}
		})
	}
}
