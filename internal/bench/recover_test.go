package bench

import (
	"testing"

	"costar/internal/grammar"
	"costar/internal/parser"
)

// TestRecoverCorpusMutationsRecover pins the premise of recovery on real
// corpora: a single mid-file deletion yields Recovered (never Error) through
// a recovering session, for every bundled language, and each language's
// mutated corpus yields diagnostics. A deletion may leave a valid input
// (dot's `;` is optional), so the diagnostic count is per language.
func TestRecoverCorpusMutationsRecover(t *testing.T) {
	for _, l := range Languages() {
		files, err := Corpus(l, tiny())
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		on := parser.MustNew(l.Grammar, parser.Options{Recover: true})
		diags := 0
		for _, f := range files {
			if len(f.Tokens) < 2 {
				continue
			}
			i := len(f.Tokens) / 2
			m := append(append([]grammar.Token{}, f.Tokens[:i]...), f.Tokens[i+1:]...)
			res := on.Parse(m)
			if res.Kind != parser.Unique && res.Kind != parser.Ambig && res.Kind != parser.Recovered {
				t.Errorf("%s seed %d: mutated parse = %s (err %v)", l.Name, f.Seed, res, res.Err)
			}
			diags += len(res.Diags)
		}
		if diags == 0 {
			t.Errorf("%s: mutated corpus produced no diagnostics", l.Name)
		}
	}
}
