package main

// Seeded inputs and the correctness oracle. Every input the program sees is
// generated here from the --seed argument; warm corpora for artifacts use
// generator seeds disjoint from the measured ones by construction.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"

	"costar"
	"costar/internal/allstar"
	"costar/internal/artifact"
	"costar/internal/grammar"
	"costar/internal/languages/jsonlang"
	"costar/internal/languages/pylang"
	"costar/internal/lexer"
	"costar/internal/parser"
	"costar/internal/source"
)

// lang is one input language: its grammar source, generator, and the pass
// that turns raw lexemes into parser tokens.
type lang struct {
	name     string
	source   string
	generate func(seed int64, targetTokens int) string
	tokenize func(string) ([]grammar.Token, error)
	lexer    *lexer.Lexer
	// layout turns a lexeme pull into a token pull: INDENT/DEDENT layout for
	// Python, dropping skip lexemes for JSON.
	layout func(next func() (lexer.Lexeme, bool, error)) func() (grammar.Token, bool, error)
	// reference is the independent engine that decides membership.
	reference *allstar.Parser
}

var (
	jsonLang = &lang{
		name: "json", source: jsonlang.Source, generate: jsonlang.Generate, tokenize: jsonlang.Tokenize,
		lexer: jsonlang.Lexer(), layout: dropSkips,
		reference: allstar.MustNew(jsonlang.Grammar(), allstar.Options{}),
	}
	pyLang = &lang{
		name: "python", source: pylang.Source, generate: pylang.Generate, tokenize: pylang.Tokenize,
		lexer: pylang.Lexer(), layout: pylang.StreamLayout,
		reference: allstar.MustNew(pylang.Grammar(), allstar.Options{}),
	}
)

// dropSkips is JSON's lexeme-to-token pass: skip lexemes (whitespace) drop.
func dropSkips(next func() (lexer.Lexeme, bool, error)) func() (grammar.Token, bool, error) {
	return func() (grammar.Token, bool, error) {
		for {
			lx, ok, err := next()
			if err != nil || !ok {
				return grammar.Token{}, false, err
			}
			if !lx.Skip {
				return lx.Tok, true, nil
			}
		}
	}
}

// parseBytes runs the fused bytes-to-verdict path: the lexer, the layout
// pass and the token cursor stream under the parser. JSON goes through
// Parser.ParseReader; Python needs its layout pass, so it goes through
// Parser.ParseSource over the same incremental scanner.
func (l *lang) parseBytes(p *parser.Parser, lex *lexer.Lexer, r io.Reader) parser.Result {
	if l == jsonLang {
		return p.ParseReader(lex, r)
	}
	return p.ParseSource(source.FromPull(p.Grammar().Compiled(), l.layout(lex.ScanReader(r).Next)))
}

// doc is one generated input with its reference verdict.
type doc struct {
	id      string
	lang    *lang
	text    string
	tokens  []grammar.Token // the batch tokenizer's word, for yield checks
	valid   bool            // reference verdict: the text is in the language
	mutated bool
}

// genSeed draws a generator seed. Measured documents get bit 61 clear and
// warm-corpus documents get it set, so the two sets never share a seed.
func genSeed(rng *rand.Rand, warm bool) int64 {
	s := rng.Int63() &^ (1 << 61)
	if warm {
		s |= 1 << 61
	}
	return s
}

// sizeAt returns the token count of document i of n: log-uniform in
// [lo, hi], stratified so that every pool covers the range the same way
// and only the position within each stratum depends on the seed.
func sizeAt(rng *rand.Rand, i, n, lo, hi int) int {
	frac := (float64(i) + rng.Float64()) / float64(n)
	return int(float64(lo) * math.Pow(float64(hi)/float64(lo), frac))
}

// genDocs generates n documents of l with stratified log-uniform sizes in
// [lo, hi]. mutated of them, chosen by the seed, get one token deleted.
func genDocs(l *lang, rng *rand.Rand, prefix string, n, lo, hi, mutated int, warm bool) ([]*doc, error) {
	docs := make([]*doc, 0, n)
	mutate := make(map[int]bool)
	for _, i := range rng.Perm(n)[:mutated] {
		mutate[i] = true
	}
	for i := 0; i < n; i++ {
		text, err := generateNear(l, rng, sizeAt(rng, i, n, lo, hi), warm)
		if err != nil {
			return nil, err
		}
		d := &doc{id: fmt.Sprintf("%s-%d", prefix, i), lang: l, text: text}
		if mutate[i] {
			if m, ok := deleteToken(l, text, rng); ok {
				d.text, d.mutated = m, true
			}
		}
		if err := d.reference(); err != nil {
			return nil, err
		}
		docs = append(docs, d)
	}
	return docs, nil
}

// generateNear generates a document of about target tokens. The language
// generators stop at a whole construct and may overshoot a lot, so up to
// eight generator seeds are tried and the first within 20 % of the target,
// or else the closest, is kept: the size mix, and with it the latency tail,
// then varies little from seed to seed.
func generateNear(l *lang, rng *rand.Rand, target int, warm bool) (string, error) {
	best, bestErr := "", math.Inf(1)
	for try := 0; try < 8 && bestErr > 0.2; try++ {
		text := l.generate(genSeed(rng, warm), target)
		toks, err := l.tokenize(text)
		if err != nil {
			return "", fmt.Errorf("generated %s input does not tokenize: %w", l.name, err)
		}
		if e := math.Abs(float64(len(toks))/float64(target) - 1); e < bestErr {
			best, bestErr = text, e
		}
	}
	return best, nil
}

// deleteToken deletes one seeded token from text, trying positions until the
// result still lexes and lays out cleanly but falls outside the language
// by the reference's verdict.
func deleteToken(l *lang, text string, rng *rand.Rand) (string, bool) {
	lexs, err := l.lexer.Scan(text)
	if err != nil {
		return "", false
	}
	var real []lexer.Lexeme
	for _, lx := range lexs {
		if !lx.Skip {
			real = append(real, lx)
		}
	}
	for try := 0; try < 20 && len(real) > 2; try++ {
		lx := real[1+rng.Intn(len(real)-2)]
		m := text[:lx.Offset] + text[lx.End():]
		toks, err := l.tokenize(m)
		if err != nil {
			continue
		}
		if l.reference.Parse(toks).Kind == parser.Reject {
			return m, true
		}
	}
	return "", false
}

// reference fills in the document's token word and reference verdict.
// Python is judged by the imperative ALL(*) engine, which shares no
// parsing code with the verified one. JSON is judged by encoding/json,
// and a mutated JSON document must also get the same verdict from the
// imperative engine.
func (d *doc) reference() error {
	toks, err := d.lang.tokenize(d.text)
	if err != nil {
		return fmt.Errorf("%s: generated input does not tokenize: %w", d.id, err)
	}
	d.tokens = toks
	ref := d.lang.reference.Parse(toks)
	if ref.Kind == parser.Error {
		return fmt.Errorf("%s: reference engine failed: %v", d.id, ref.Err)
	}
	byEngine := ref.Kind == parser.Unique || ref.Kind == parser.Ambig
	if d.lang == jsonLang {
		d.valid = json.Valid([]byte(d.text))
		if d.mutated && d.valid != byEngine {
			return fmt.Errorf("%s: references disagree (encoding/json %v, imperative engine %v)", d.id, d.valid, byEngine)
		}
		return nil
	}
	d.valid = byEngine
	return nil
}

// countTokens sums the token counts of docs.
func countTokens(docs []*doc) int {
	n := 0
	for _, d := range docs {
		n += len(d.tokens)
	}
	return n
}

// buildArtifact compiles l's grammar from its .g4 source, certifies it,
// warms a session on docs, and encodes the snapshot — what `costar compile`
// does. The docs must come from the warm seed set.
func buildArtifact(l *lang, docs []*doc) ([]byte, error) {
	g, lex, err := costar.LoadG4(l.source)
	if err != nil {
		return nil, err
	}
	if _, _, err := costar.Certify(g); err != nil {
		return nil, fmt.Errorf("certifying %s: %w", l.name, err)
	}
	p, err := parser.New(g, parser.Options{})
	if err != nil {
		return nil, err
	}
	for _, d := range docs {
		if res := l.parseBytes(p, lex, strings.NewReader(d.text)); res.Kind != parser.Unique {
			return nil, fmt.Errorf("%s: warm document parsed as %v", d.id, res.Kind)
		}
	}
	a, err := p.ExportArtifact(l.name, l.source)
	if err != nil {
		return nil, err
	}
	return artifact.Encode(a), nil
}

// accepted reports whether a result is an accepting verdict.
func accepted(res parser.Result) bool { return res.Kind == parser.Unique || res.Kind == parser.Ambig }
