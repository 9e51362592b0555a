package allstar

import (
	"testing"

	"costar/internal/grammar"
	"costar/internal/languages/jsonlang"
	"costar/internal/languages/pylang"
	"costar/internal/machine"
	"costar/internal/parser"
)

// TestBaselineTreeMatchesVerifiedOnCorpora: full tree equality on real
// language corpora, not just random grammars.
func TestBaselineTreeMatchesVerifiedOnCorpora(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *grammar.Grammar
		toks func() ([]grammar.Token, error)
	}{
		{"json", jsonlang.Grammar(), func() ([]grammar.Token, error) { return jsonlang.Tokenize(jsonlang.Generate(9, 400)) }},
		{"python", pylang.Grammar(), func() ([]grammar.Token, error) { return pylang.Tokenize(pylang.Generate(9, 400)) }},
	} {
		toks, err := c.toks()
		if err != nil {
			t.Fatal(err)
		}
		br := MustNew(c.g, Options{}).Parse(toks)
		rr := parser.MustNew(c.g, parser.Options{}).Parse(toks)
		if br.Kind != machine.Unique || rr.Kind != machine.Unique {
			t.Fatalf("%s: kinds %v / %v", c.name, br.Kind, rr.Kind)
		}
		if !br.Tree.Equal(rr.Tree) {
			t.Errorf("%s: trees differ", c.name)
		}
	}
}
