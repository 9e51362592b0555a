package costar

// Fuzz targets: robustness of the text front ends and the engine. Under
// plain `go test` only the seed corpus runs; use `go test -fuzz=FuzzX` for
// open-ended fuzzing. The invariant in every target is "no panic, and
// anything accepted is internally consistent" — the Theorem 5.8 discipline
// extended to hostile inputs.

import (
	"io"
	"strings"
	"testing"
	"unicode/utf8"

	"costar/internal/diag"
	"costar/internal/earley"
	"costar/internal/languages/jsonlang"
	"costar/internal/languages/pylang"
	"costar/internal/rx"
)

func FuzzParseBNF(f *testing.F) {
	seeds := []string{
		`S -> A c | A d ; A -> a A | b`,
		`%start B  A -> a ; B -> A b`,
		`S -> 'quoted \' lit' | %empty`,
		`S :`, "S -> |", "->", "# only a comment", `S ::= a ; T : b`,
		"S -> ε | eps", "S -> S S | x",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := ParseBNF(src)
		if err != nil {
			return
		}
		// Accepted grammars must be internally consistent and parseable.
		if err := g.Validate(); err != nil {
			t.Fatalf("ParseBNF returned an invalid grammar: %v\nsource: %q", err, src)
		}
		g2, err := ParseBNF(g.String())
		if err != nil {
			t.Fatalf("printed grammar does not reparse: %v\n%s", err, g)
		}
		if g2.Start != g.Start {
			t.Fatalf("round-trip changed the start symbol")
		}
	})
}

// checkCompiled asserts the invariants of the compiled (interned) grammar
// tables: every string symbol has a dense ID, IDs render back to the same
// name, and the production tables agree with the string-keyed originals.
// Grammars reach this check from hostile front-end input, so an
// inconsistency here would mean the interner can be driven into a state
// where the engines compare the wrong integers.
func checkCompiled(t *testing.T, g *Grammar) {
	t.Helper()
	c := g.Compiled()
	if c.NumTerms() != len(g.Terminals()) {
		t.Fatalf("NumTerms = %d, want %d", c.NumTerms(), len(g.Terminals()))
	}
	for _, name := range g.Terminals() {
		id, ok := c.TermIDOf(name)
		if !ok || c.TermName(id) != name {
			t.Fatalf("terminal %q does not round-trip (id=%d ok=%v name=%q)", name, id, ok, c.TermName(id))
		}
	}
	for _, name := range g.Nonterminals() {
		id, ok := c.NTIDOf(name)
		if !ok || c.NTName(id) != name || !c.HasNTID(id) {
			t.Fatalf("nonterminal %q does not round-trip", name)
		}
	}
	if c.NTName(c.Start()) != g.Start {
		t.Fatalf("compiled start %q, want %q", c.NTName(c.Start()), g.Start)
	}
	perNT := make(map[string]int)
	for i, p := range g.Prods {
		if c.NTName(c.Lhs(i)) != p.Lhs {
			t.Fatalf("Lhs(%d) = %q, want %q", i, c.NTName(c.Lhs(i)), p.Lhs)
		}
		rhs := c.Rhs(i)
		if len(rhs) != len(p.Rhs) {
			t.Fatalf("Rhs(%d) has %d symbols, want %d", i, len(rhs), len(p.Rhs))
		}
		for j, s := range c.SymsOf(rhs) {
			if s != p.Rhs[j] {
				t.Fatalf("Rhs(%d)[%d] renders as %v, want %v", i, j, s, p.Rhs[j])
			}
		}
		perNT[p.Lhs]++
	}
	for _, name := range g.Nonterminals() {
		id, _ := c.NTIDOf(name)
		if len(c.ProdsFor(id)) != perNT[name] {
			t.Fatalf("ProdsFor(%q) has %d productions, want %d", name, len(c.ProdsFor(id)), perNT[name])
		}
	}
}

// FuzzCompileGrammar drives grammar.Compiled construction from hostile BNF
// and g4 sources: any input either fails cleanly in the front end or yields
// internally consistent interned tables.
func FuzzCompileGrammar(f *testing.F) {
	seeds := []struct {
		src string
		g4  bool
	}{
		{`S -> A c | A d ; A -> a A | b`, false},
		{`%start B  A -> a ; B -> A b`, false},
		{`S -> Undefined x ; T -> y`, false}, // referenced-but-undefined NT
		{`%start Nowhere  S -> a`, false},    // undefined start symbol
		{`S -> 'quoted \' lit' | %empty`, false},
		{`S -> S S | x`, false},
		{`S -> a ; S -> a ; S -> b`, false},      // duplicate productions
		{`Σ -> α Σ | β ; S -> Σ`, false},         // unicode names
		{"grammar G; s : 's' ; S : [a] ;", true}, // rule/token case collision

		{"grammar G; s : 'a' s | 'b' ;", true},
		{"grammar G; s : X* ; X : [a-z]+ ;", true},
		{"grammar G; s : ( 'a' | ) + ;", true},
	}
	for _, s := range seeds {
		f.Add(s.src, s.g4)
	}
	f.Fuzz(func(t *testing.T, src string, g4 bool) {
		if len(src) > 4096 {
			return
		}
		var g *Grammar
		if g4 {
			lg, _, err := LoadG4(src)
			if err != nil {
				return
			}
			g = lg
		} else {
			bg, err := ParseBNF(src)
			if err != nil {
				return
			}
			g = bg
		}
		checkCompiled(t, g)
		// A clone must intern identically — compilation is deterministic.
		checkCompiled(t, g.Clone())
	})
}

// FuzzRxParse: every pattern rx.Parse accepts compiles into the lexer's
// automaton, and its printed form reparses to the same language: the two
// automata agree on the longest match of a few fixed inputs and of the
// pattern text itself.
func FuzzRxParse(f *testing.F) {
	seeds := []string{
		`a(b|c)*d`, `[a-z0-9_]+`, `[^"\\]*`, `A+`, `(()|())*`, `a**`, `[]`, `(((`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, pat string) {
		n, err := rx.Parse(pat)
		if err != nil {
			return
		}
		n2, err := rx.Parse(n.String())
		if err != nil {
			t.Fatalf("%q prints as %q, which does not parse: %v", pat, n.String(), err)
		}
		m, m2 := rx.CompileMulti([]rx.Node{n}), rx.CompileMulti([]rx.Node{n2})
		for _, s := range []string{"", "a", "ab", "zzz", pat} {
			l, p, ok := longestMatch(m, s)
			l2, p2, ok2 := longestMatch(m2, s)
			if l != l2 || p != p2 || ok != ok2 {
				t.Fatalf("%q and its printed form %q disagree on %q: (%d, %d, %v) vs (%d, %d, %v)",
					pat, n.String(), s, l, p, ok, l2, p2, ok2)
			}
		}
	})
}

// longestMatch walks m over s from its first byte the way the lexer's
// scanner does — an ASCII byte through the table (NextByte), any other rune
// through the range search (Next) — and returns the byte length of the
// longest accepted prefix, the winning pattern and whether any (possibly
// empty) prefix was accepted.
func longestMatch(m *rx.MultiDFA, s string) (length, pattern int, ok bool) {
	st := m.Start()
	pattern = m.Accept(st)
	ok = pattern >= 0
	for i := 0; i < len(s); {
		size := 1
		if b := s[i]; b < utf8.RuneSelf {
			st = m.NextByte(st, b)
		} else {
			var r rune
			r, size = utf8.DecodeRuneInString(s[i:])
			st = m.Next(st, r)
		}
		if st < 0 {
			break
		}
		i += size
		if p := m.Accept(st); p >= 0 {
			length, pattern, ok = i, p, true
		}
	}
	return length, pattern, ok
}

func FuzzJSONPipeline(f *testing.F) {
	seeds := []string{
		`{"a": [1, true, null]}`, `[]`, `{`, `{"a"`, `"lone"`, `[1,]`,
		`{"A": 1e9}`, strings.Repeat("[", 50) + strings.Repeat("]", 50),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	p := MustNewParser(jsonlang.Grammar(), Options{Limits: Limits{MaxSteps: 100000}})
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return
		}
		toks, err := jsonlang.Tokenize(src)
		if err != nil {
			return
		}
		res := p.Parse(toks)
		switch res.Kind {
		case Unique, Ambig:
			if err := ValidateTree(jsonlang.Grammar(), "json", res.Tree, toks); err != nil {
				t.Fatalf("accepted an invalid tree for %q: %v", src, err)
			}
			if !earley.RecognizeTokens(jsonlang.Grammar(), "json", toks) {
				t.Fatalf("accepted a non-member: %q", src)
			}
		case Error:
			t.Fatalf("error on non-left-recursive grammar (Thm 5.8): %v for %q", res.Err, src)
		}
	})
}

func FuzzPythonLayout(f *testing.F) {
	seeds := []string{
		"def f(x):\n    return x\n",
		"if a:\n\tpass\n", // tabs in indentation
		"x = (\n1,\n)\n",
		"\n\n# nothing\n",
		"if a:\n        b\n   c\n", // bad dedent
		"while x:\n pass\n  pass\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	p := MustNewParser(pylang.Grammar(), Options{Limits: Limits{MaxSteps: 200000}})
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return
		}
		toks, err := pylang.Tokenize(src)
		if err != nil {
			return // layout/lex errors are fine; panics are not
		}
		res := p.Parse(toks)
		if res.Kind == Error {
			t.Fatalf("error on non-left-recursive grammar: %v for %q", res.Err, src)
		}
	})
}

// FuzzGrammarLint drives the static verifier with hostile BNF: Vet must
// never panic, must be deterministic (two runs render identically), and its
// left-recursion verdict must agree with the independent per-NT analysis.
// Certification must succeed exactly when the report says Certifiable.
func FuzzGrammarLint(f *testing.F) {
	seeds := []string{
		`S -> A c | A d ; A -> a A | b`,
		`E -> E plus n | n`,                // direct left recursion
		`A -> B A x | a ; B -> %empty | b`, // hidden left recursion
		`A -> B x ; B -> C y ; C -> A z`,   // indirect cycle, unproductive
		`A -> A | a`,                       // derivation cycle
		`S -> Undefined x`,                 // undefined NT reference
		`%start Nowhere  S -> a`,           // undefined start
		`S -> a ; S -> a`,                  // duplicate production
		`S -> a ; Orphan -> b`,             // unreachable
		`S -> N N ; N -> %empty | S`,       // nullable tangles
		`S -> S S | x`,                     // LR and ambiguous
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return
		}
		g, err := ParseBNF(src)
		if err != nil {
			return
		}
		r1 := Vet(g)
		r2 := Vet(g)
		if r1.String() != r2.String() {
			t.Fatalf("Vet is nondeterministic:\n%s\nvs\n%s\nsource: %q", r1, r2, src)
		}
		_, _, err = Certify(g)
		if (err == nil) != r1.Certifiable() {
			t.Fatalf("Certify err=%v but Certifiable()=%v\nsource: %q", err, r1.Certifiable(), src)
		}
	})
}

// FuzzStreamEquivalence feeds arbitrary bytes — invalid UTF-8, truncated
// tokens, hostile chunkings down to 1-byte reads — through both the batch
// pipeline (lex everything, parse the slice) and the streaming pipelines
// (incremental lexing through a demand-driven cursor, by the language's
// named pull and by ParseReader's lexer-bound pull) and requires them to
// agree: when batch lexing succeeds each stream parse must return the
// slice parse's kind, tree, and consumed count; when it fails no stream
// may accept. And nothing may panic.
func FuzzStreamEquivalence(f *testing.F) {
	seeds := []struct {
		src   string
		chunk byte
	}{
		{`{"a": [1, true, null]}`, 0},
		{`{"a`, 1},         // truncated mid-token
		{"\xff\xfe{", 1},   // invalid UTF-8 prefix
		{`{"k": "éÿ"}`, 2}, // escapes and multi-byte content
		{"[" + strings.Repeat("1,", 40) + "1]", 3},
		{`{"k": }`, 1}, // rejects at the parser
		{"", 0},
		{"{\"k\": \x01}", 4}, // unlexable byte mid-input
	}
	for _, s := range seeds {
		f.Add(s.src, s.chunk)
	}
	g := jsonlang.Grammar()
	p := MustNewParser(g, Options{Limits: Limits{MaxSteps: 100000}})
	f.Fuzz(func(t *testing.T, src string, chunk byte) {
		if len(src) > 4096 {
			return
		}
		toks, lexErr := jsonlang.Tokenize(src)
		var sliceRes Result
		if lexErr == nil {
			sliceRes = p.Parse(toks)
		}
		size := 1 + int(chunk)%7
		for _, s := range []struct {
			path string
			res  Result
		}{
			{"cursor", p.ParseSource(jsonlang.Lang.Cursor(iotest(src, size)))},
			{"ParseReader", p.ParseReader(jsonlang.Lexer(), iotest(src, size))},
		} {
			streamRes := s.res
			if lexErr != nil {
				if streamRes.Kind == Unique || streamRes.Kind == Ambig {
					t.Fatalf("slice lexing fails (%v) but %s stream accepted %q", lexErr, s.path, src)
				}
				continue
			}
			if streamRes.Kind != sliceRes.Kind || streamRes.Consumed != sliceRes.Consumed {
				t.Fatalf("%s stream %s/%d, slice %s/%d for %q (chunk %d)",
					s.path, streamRes.Kind, streamRes.Consumed, sliceRes.Kind, sliceRes.Consumed, src, size)
			}
			if (streamRes.Tree == nil) != (sliceRes.Tree == nil) ||
				(streamRes.Tree != nil && streamRes.Tree.String() != sliceRes.Tree.String()) {
				t.Fatalf("%s trees differ for %q (chunk %d)", s.path, src, size)
			}
		}
	})
}

// iotest returns a reader serving s in n-byte reads (n >= 1), so the fuzzer
// controls where token and rune boundaries land relative to reads.
func iotest(s string, n int) *chunkedReader { return &chunkedReader{s: s, n: n} }

type chunkedReader struct {
	s    string
	i, n int
}

func (r *chunkedReader) Read(p []byte) (int, error) {
	if r.i >= len(r.s) {
		return 0, io.EOF
	}
	n := r.n
	if n > len(p) {
		n = len(p)
	}
	if r.i+n > len(r.s) {
		n = len(r.s) - r.i
	}
	copy(p, r.s[r.i:r.i+n])
	r.i += n
	return n, nil
}

func FuzzG4(f *testing.F) {
	seeds := []string{
		"grammar G; s : 'a' ;",
		"grammar G; s : X* ; X : [a-z]+ -> skip ;", // skip rule referenced: must fail cleanly
		"grammar G; s : ( 'a' | ) + ;",
		"grammar G; /* c */ s : A ; A : 'x'..'z' ;",
		"grammar G; fragment F : . ; s : T ; T : ~F ;",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return
		}
		g, lex, err := LoadG4(src)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("LoadG4 returned an invalid grammar: %v\nsource: %q", err, src)
		}
		if _, err := lex.Tokenize("aa bb"); err != nil {
			return // lexing may fail; must not panic
		}
	})
}

// FuzzRecover drives recovering parse mode with arbitrary JSON-ish bytes.
// The invariants: no panic; no false Accept (a Recovered result implies the
// recover-off parse rejects, and a clean kind implies recovery changed
// nothing); the repair budget is respected; recovered trees partition the
// input and carry positioned, sorted diagnostics.
func FuzzRecover(f *testing.F) {
	seeds := []string{
		`{"a": [1, true, null]}`, `{"a": }`, `[1, 2 3]`, `{"a" 1}`, `[1,`,
		`{]`, `}{`, `[[[`, `{"a": 1,, "b": 2}`, `null null`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	const budget = 16
	g := jsonlang.Grammar()
	off := MustNewParser(g, Options{Limits: Limits{MaxSteps: 100000}})
	on := MustNewParser(g, Options{Recover: true,
		Limits: Limits{MaxSteps: 100000, MaxRepairs: budget}})
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return
		}
		toks, err := jsonlang.Tokenize(src)
		if err != nil {
			return
		}
		base := off.Parse(toks)
		rec := on.Parse(toks)
		switch rec.Kind {
		case Unique, Ambig:
			if base.Kind != rec.Kind {
				t.Fatalf("recover-on %v but recover-off %v for %q", rec.Kind, base.Kind, src)
			}
			if !rec.Tree.Equal(base.Tree) {
				t.Fatalf("recovery changed an accepted tree for %q", src)
			}
			if len(rec.Diags) != 0 {
				t.Fatalf("diagnostics on accepted input %q: %v", src, rec.Diags)
			}
		case Recovered:
			if base.Kind != Reject {
				t.Fatalf("Recovered but recover-off gave %v for %q", base.Kind, src)
			}
			if len(rec.Diags) == 0 {
				t.Fatalf("Recovered without diagnostics for %q", src)
			}
			if !diag.Sorted(rec.Diags) {
				t.Fatalf("unsorted diagnostics for %q: %v", src, rec.Diags)
			}
			ys := rec.Tree.YieldSource()
			if len(ys) != len(toks) {
				t.Fatalf("YieldSource %d tokens, input %d for %q", len(ys), len(toks), src)
			}
			for i := range ys {
				if ys[i] != toks[i] {
					t.Fatalf("YieldSource[%d] diverges for %q", i, src)
				}
			}
			if rec.Usage.Repairs > budget+1 {
				t.Fatalf("repair budget exceeded: %d > %d for %q", rec.Usage.Repairs, budget, src)
			}
		case Reject:
			t.Fatalf("recover-on returned a plain Reject for %q", src)
		case Error:
			if base.Kind != Error {
				t.Fatalf("recovery manufactured an error for %q: %v", src, rec.Err)
			}
		}
	})
}
