// Package costar is a Go implementation of CoStar, the verified ALL(*)
// parser of Lasser, Casinghino, Fisher & Roux (PLDI 2021). It re-exports
// the public surface of the internal packages as one coherent API:
//
//	g := costar.MustParseBNF(`S -> A c | A d ; A -> a A | b`)
//	p := costar.MustNewParser(g, costar.Options{})
//	res := p.Parse(costar.Words("a", "b", "d"))
//	switch res.Kind {
//	case costar.Unique: fmt.Println("one tree:", res.Tree)
//	case costar.Ambig:  fmt.Println("ambiguous; one of the trees:", res.Tree)
//	case costar.Reject: fmt.Println("not in the language:", res.Reason)
//	case costar.Error:  fmt.Println("left recursion or internal error:", res.Err)
//	}
//
// The parser is an interpreter: it takes any BNF grammar at run time (no
// code generation), handles every context-free grammar without left
// recursion, detects ambiguity, and — unlike its Coq-verified ancestor —
// carries its correctness argument as an executable test suite
// (differential testing against an Earley oracle, machine-checked
// invariants, and the paper's termination measure as assertions).
//
// Grammars can be written in three forms: programmatically
// (grammar.Builder), in plain BNF text (ParseBNF), or in an ANTLR-4-like
// syntax with EBNF operators and lexer rules (LoadG4), which is desugared
// to BNF exactly as the paper's grammar-conversion tool does.
package costar

import (
	"costar/internal/artifact"
	"costar/internal/diag"
	"costar/internal/g4"
	"costar/internal/grammar"
	"costar/internal/grammarlint"
	"costar/internal/lexer"
	"costar/internal/parser"
	"costar/internal/source"
	"costar/internal/transform"
	"costar/internal/tree"
)

// Core re-exported types.
type (
	// Grammar is a BNF grammar (see internal/grammar).
	Grammar = grammar.Grammar
	// Production is one grammar rule X → γ.
	Production = grammar.Production
	// Symbol is a terminal or nonterminal occurrence.
	Symbol = grammar.Symbol
	// Token is a (terminal, literal) input pair.
	Token = grammar.Token
	// Tree is a parse tree, read through its accessors (IsLeaf, IsErr, NT,
	// Token, NumChildren, Child).
	Tree = tree.Tree
	// Parser is a reusable parsing session with a persistent SLL cache.
	Parser = parser.Parser
	// Options configures a Parser.
	Options = parser.Options
	// Result is a parse outcome: Unique(tree), Ambig(tree), Reject, Error.
	Result = parser.Result
	// Input is one parse input for Parser.ParseInput and ParseInputs: a
	// start symbol ("" means the grammar's) and either a resident token
	// word (Tokens) or a demand-driven stream (Pull, e.g. Lexer.Pull(r)),
	// of which only the sliding lookahead window stays in memory.
	Input = parser.Input
	// Limits bounds the resources one parse may consume: machine steps,
	// tokens, stack depth, prediction closure work, tree nodes. The zero
	// value is unlimited; each exhausted limit surfaces as a structured
	// Error result naming the limit — never a false Reject.
	Limits = parser.Limits
	// Usage reports a parse's resource high-water marks; every Result
	// carries one, so budgets can be set from measured headroom.
	Usage = parser.Usage
	// Lexer is a compiled lexical specification.
	Lexer = lexer.Lexer
	// TokenSource is a demand-driven token cursor: the parser pulls tokens
	// through it on demand and only a sliding lookahead window stays
	// resident, so inputs of any length parse in bounded memory. Build one
	// with NewTokenSource (from a pull function) or obtain one from a
	// language's Cursor; pass it to Parser.ParseSource.
	TokenSource = source.Cursor
	// Diagnostic is one positioned, severity-tagged finding in the unified
	// diagnostics layer (see internal/diag): every failure shape — lexer
	// errors, machine rejections, resource-limit errors, and recovery
	// repairs — flows through this one type from the engine to the CLI.
	Diagnostic = diag.Diagnostic
	// Severity ranks a Diagnostic: Info, Warning, or Error.
	Severity = diag.Severity
	// Pos locates a Diagnostic: a token index into the parsed word, plus
	// byte offset and line/column when the source text is known (lexer
	// errors). Unknown components are -1 (Token, Offset) or 0 (Line, Col).
	Pos = diag.Pos
	// VetReport is the result of Vet: structured, positioned diagnostics
	// over a grammar (see internal/grammarlint).
	VetReport = grammarlint.Report
	// VetDiagnostic is one finding in a VetReport.
	VetDiagnostic = grammarlint.Diagnostic
	// Certificate attests that Vet found a grammar well-formed and free of
	// left recursion; Certify attaches one, switching later Parser sessions
	// into certified mode.
	Certificate = grammar.Certificate
	// Artifact is an ahead-of-time grammar artifact: compiled tables,
	// analysis fixpoints, certificate, and an offline-warmed SLL DFA cache
	// in one versioned binary container (see internal/artifact). Build one
	// with Parser.ExportArtifact (after warming the session on a corpus),
	// serialize with EncodeArtifact, and reconstruct near-instant sessions
	// with NewParserFromArtifact.
	Artifact = artifact.Artifact
)

// Result kinds.
const (
	// Unique: the returned tree is the sole derivation of the input.
	Unique = parser.Unique
	// Ambig: the input has several derivations; one tree is returned.
	Ambig = parser.Ambig
	// Reject: the input is not in the grammar's language.
	Reject = parser.Reject
	// Error: left recursion was detected (or an internal invariant broke,
	// which the test suite shows cannot happen for well-formed grammars).
	Error = parser.Error
	// Recovered: the input is not in the language, but recovering parse
	// mode (Options.Recover) repaired it — the Result
	// carries a partial tree whose error nodes cover the repaired spans
	// and one positioned Diagnostic per repair. Only produced when
	// recovery is on; never a silent accept (Accepts treats it as false).
	Recovered = parser.Recovered
)

// Diagnostic severities.
const (
	SeverityInfo    = diag.Info
	SeverityWarning = diag.Warning
	SeverityError   = diag.Error
)

// T constructs a terminal symbol.
func T(name string) Symbol { return grammar.T(name) }

// NT constructs a nonterminal symbol.
func NT(name string) Symbol { return grammar.NT(name) }

// Tok constructs a token.
func Tok(terminal, literal string) Token { return grammar.Tok(terminal, literal) }

// Words builds a token word whose literals equal the terminal names —
// convenient for toy grammars and tests.
func Words(terminals ...string) []Token {
	w := make([]Token, len(terminals))
	for i, t := range terminals {
		w[i] = grammar.Tok(t, t)
	}
	return w
}

// NewGrammar builds a grammar from productions (call Validate, or use
// NewParser which validates).
func NewGrammar(start string, prods []Production) *Grammar {
	return grammar.New(start, prods)
}

// ParseBNF reads a grammar from BNF text ("S -> A c | A d ; A -> a A | b").
func ParseBNF(src string) (*Grammar, error) { return grammar.ParseBNF(src) }

// MustParseBNF is ParseBNF panicking on error.
func MustParseBNF(src string) *Grammar { return grammar.MustParseBNF(src) }

// NewParser validates g and builds a parsing session.
func NewParser(g *Grammar, opts Options) (*Parser, error) { return parser.New(g, opts) }

// MustNewParser is NewParser panicking on error.
func MustNewParser(g *Grammar, opts Options) *Parser { return parser.MustNew(g, opts) }

// Parse is the one-shot API of the paper's Section 3.1: parse w from start
// in g. Contexts and Limits, recovery, streamed input and batches are
// session features: build a Parser with NewParser and call ParseInput or
// ParseInputs.
func Parse(g *Grammar, start string, w []Token) Result { return parser.Parse(g, start, w) }

// NewTokenSource builds a TokenSource for g from a pull function: each call
// returns the next token, false at end of input, or an error (sticky; the
// parser reports it as an Error result). Lexer.Pull and a language's Pull
// have exactly this shape.
func NewTokenSource(g *Grammar, pull func() (Token, bool, error)) *TokenSource {
	return source.FromPull(g.Compiled(), pull)
}

// LoadG4 compiles a grammar in the ANTLR-4-like syntax (parser rules with
// EBNF operators, lexer rules with -> skip): it returns the desugared BNF
// grammar and the compiled lexer — the paper's grammar-conversion pipeline.
func LoadG4(src string) (*Grammar, *Lexer, error) { return g4.Compile(src) }

// MustLoadG4 is LoadG4 panicking on error.
func MustLoadG4(src string) (*Grammar, *Lexer) {
	g, l, err := LoadG4(src)
	if err != nil {
		panic(err)
	}
	return g, l
}

// ValidateTree checks that v is a correct derivation of w from start in g —
// the executable derivation relation of the paper's Figure 3. The parser's
// soundness theorem says returned trees always pass; this lets applications
// double-check untrusted trees too.
func ValidateTree(g *Grammar, start string, v *Tree, w []Token) error {
	return tree.Validate(g, grammar.NT(start), v, w)
}

// Vet statically verifies g: well-formedness, left recursion (direct,
// indirect, and hidden behind nullable prefixes), derivation cycles,
// duplicate productions, unreachable and unproductive nonterminals, and
// SLL lookahead-conflict heuristics. The report carries positioned
// diagnostics; Report.Certifiable tells whether Certify would succeed.
func Vet(g *Grammar) *VetReport { return grammarlint.Check(g) }

// Certify runs Vet and, when no error-severity diagnostics exist, attaches
// a fingerprint-bound Certificate to the grammar. Parser sessions built
// afterwards run in certified mode: the dynamic left-recursion check is
// provably unreachable (Theorem 5.8) and demoted to a debug assertion,
// with bit-identical parse results. On refusal the report explains why.
func Certify(g *Grammar) (*Certificate, *VetReport, error) { return grammarlint.Certify(g) }

// EncodeArtifact serializes an artifact to its versioned binary form
// (magic, format version, sections, integrity checksum). Encoding is
// deterministic: equal artifacts produce identical bytes.
func EncodeArtifact(a *Artifact) []byte { return artifact.Encode(a) }

// DecodeArtifact parses artifact bytes. The decoder never panics:
// truncated, corrupted, or non-artifact input yields a structured error
// (artifact.ErrCorrupt / ErrNotArtifact / ErrVersion, matchable with
// errors.Is). A decoded artifact is not yet trusted — the verification
// happens when a session is built from it.
func DecodeArtifact(b []byte) (*Artifact, error) { return artifact.Decode(b) }

// NewParserFromArtifact builds a session from an artifact, skipping grammar
// compilation, the analysis fixpoints, and cache warm-up. The load verifies
// what it skips: the grammar is recompiled from the dense tables and must
// reproduce the artifact's recorded fingerprint, a certificate (when
// present) is re-verified against that fingerprint — a tampered artifact is
// rejected, never loaded silently uncertified — and the DFA snapshot is
// bounds-checked and re-interned into cache-owned memory. The session
// starts with the artifact's warmed DFA and parses exactly like a
// source-compiled session warmed on the same corpus.
func NewParserFromArtifact(a *Artifact, opts Options) (*Parser, error) {
	return parser.NewFromArtifact(a, opts)
}

// EliminateLeftRecursion rewrites g into an equivalent grammar without
// left recursion (Paull's algorithm) so that ALL(*) can parse it — the
// grammar-rewriting step ANTLR performs implicitly and the paper defers to
// future work (Section 4.1). Grammars whose left recursion is entangled
// with ε (nullable or hidden left recursion, unit cycles) are refused with
// an explanatory error rather than rewritten incorrectly.
func EliminateLeftRecursion(g *Grammar) (*Grammar, error) {
	return transform.EliminateLeftRecursion(g)
}
