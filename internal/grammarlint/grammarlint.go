// Package grammarlint is the static grammar verifier behind `costar vet`:
// it checks, at grammar-load time, the preconditions that make CoStar's
// Error result provably unreachable (Theorem 5.8: well-formed,
// non-left-recursive grammars), and reports every violation as a
// structured, positioned diagnostic instead of letting a parse discover it
// dynamically N tokens in.
//
// Passes, in severity order:
//
//   - well-formedness (undefined start symbol, empty left-hand sides,
//     empty symbol names, undefined nonterminals) — errors;
//   - left recursion, direct AND hidden/indirect: Tarjan SCC over the
//     "leftmost after a nullable prefix" relation, with a concrete witness
//     derivation per component — errors. This is the repository's one
//     left-recursion decision procedure (the paper's Section 8 leaves it
//     to future work); LeftRecursion runs it alone;
//   - derivation cycles A ⇒+ A (the grammar assigns infinitely many trees
//     to some input) — errors;
//   - duplicate productions, unreachable and unproductive nonterminals —
//     warnings;
//   - SLL-conflict heuristics (production pairs whose 1-token FIRST/FOLLOW
//     lookahead overlaps, so prediction must look deeper — the inputs
//     ALL(*) exists for) — info.
//
// A clean run (no errors) can issue a grammar.Certificate via Certify;
// attaching it switches Parser sessions into certified mode, where the
// machine's dynamic left-recursion probe is a debug assertion rather than
// a reachable error path. Parse results are identical either way.
package grammarlint

import (
	"fmt"
	"sort"
	"strings"

	"costar/internal/analysis"
	"costar/internal/diag"
	"costar/internal/grammar"
)

// Severity ranks diagnostics; only errors block certification. It is
// re-keyed onto the unified diagnostics layer: a grammarlint severity IS a
// diag severity (same type, same ordering, same rendering), so findings
// flow into mixed diagnostic streams without translation.
type Severity = diag.Severity

const (
	// Info diagnostics are heuristics (SLL conflicts): the grammar is fine
	// for ALL(*), but a human may want to know.
	Info = diag.Info
	// Warning diagnostics are likely mistakes (unreachable nonterminals,
	// duplicate productions) that do not threaten the parser's guarantees.
	Warning = diag.Warning
	// Error diagnostics violate the preconditions of the correctness
	// theorems; the grammar is rejected for certification.
	Error = diag.Error
)

// Code identifies the diagnostic class, stable across releases for
// programmatic filtering.
type Code string

// Diagnostic codes.
const (
	CodeUndefinedStart  Code = "undefined-start"
	CodeEmptyLhs        Code = "empty-lhs"
	CodeEmptySymbol     Code = "empty-symbol"
	CodeUndefinedNT     Code = "undefined-nt"
	CodeLeftRecursion   Code = "left-recursion"
	CodeHiddenLeftRec   Code = "hidden-left-recursion"
	CodeDerivationCycle Code = "derivation-cycle"
	CodeDuplicateProd   Code = "duplicate-production"
	CodeUnreachable     Code = "unreachable-nt"
	CodeUnproductive    Code = "unproductive-nt"
	CodeSLLConflict     Code = "sll-conflict"
)

// Diagnostic is one positioned finding.
type Diagnostic struct {
	Code     Code
	Severity Severity
	NT       string   // primary nonterminal, "" for grammar-level findings
	Prod     int      // production index the finding anchors to, -1 for none
	Pos      int      // RHS position within Prod, -1 for none
	Line     int      // 1-based source line of Prod (0 when unknown)
	Message  string   // human-readable description
	Witness  []string // for recursion/cycle codes: NT cycle [X, ..., X]
}

// String renders the diagnostic: "line 7: error[left-recursion]: message".
// The line prefix is omitted when the grammar has no source positions.
func (d Diagnostic) String() string {
	var b strings.Builder
	if d.Line > 0 {
		fmt.Fprintf(&b, "line %d: ", d.Line)
	}
	fmt.Fprintf(&b, "%s[%s]: %s", d.Severity, d.Code, d.Message)
	return b.String()
}

// Diag converts the finding to the unified diagnostic form. Grammar
// findings anchor to grammar source lines, not input tokens, so the token
// index is unknown.
func (d Diagnostic) Diag() diag.Diagnostic {
	return diag.Diagnostic{
		Severity: d.Severity,
		Code:     diag.Code(d.Code),
		Message:  d.Message,
		Pos:      diag.Pos{Token: -1, Offset: -1, Line: d.Line},
	}
}

// Report is the result of a verification run.
type Report struct {
	Grammar *grammar.Grammar
	Diags   []Diagnostic // sorted: severity desc, then line/prod/pos/code
}

// Count returns how many diagnostics have exactly severity s.
func (r *Report) Count(s Severity) int {
	n := 0
	for _, d := range r.Diags {
		if d.Severity == s {
			n++
		}
	}
	return n
}

// Errors returns the error-severity diagnostics.
func (r *Report) Errors() []Diagnostic { return r.filter(Error) }

// Warnings returns the warning-severity diagnostics.
func (r *Report) Warnings() []Diagnostic { return r.filter(Warning) }

// Infos returns the info-severity diagnostics.
func (r *Report) Infos() []Diagnostic { return r.filter(Info) }

func (r *Report) filter(s Severity) []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diags {
		if d.Severity == s {
			out = append(out, d)
		}
	}
	return out
}

// Clean reports whether the run produced no errors and no warnings (info
// heuristics do not count): the bar `costar vet` holds grammars to.
func (r *Report) Clean() bool { return r.Count(Error) == 0 && r.Count(Warning) == 0 }

// Certifiable reports whether the grammar satisfies the preconditions of
// the correctness theorems (no error-severity findings).
func (r *Report) Certifiable() bool { return r.Count(Error) == 0 }

// String renders every diagnostic, one per line.
func (r *Report) String() string {
	var b strings.Builder
	for _, d := range r.Diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Check runs every static pass over g and returns the sorted report. It
// never panics on malformed input — hostile grammars are exactly the ones
// it exists to reject — and is deterministic: equal grammars produce equal
// reports.
func Check(g *grammar.Grammar) *Report {
	v := &verifier{g: g, c: g.Compiled(), an: analysis.New(g)}
	v.checkWellFormed()
	v.checkLeftRecursion()
	v.checkDerivationCycles()
	v.checkDuplicates()
	v.checkUseless()
	v.checkSLLConflicts()
	r := &Report{Grammar: g, Diags: v.diags}
	sort.SliceStable(r.Diags, func(i, j int) bool {
		a, b := r.Diags[i], r.Diags[j]
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Prod != b.Prod {
			return a.Prod < b.Prod
		}
		if a.Pos != b.Pos {
			return a.Pos < b.Pos
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.NT < b.NT
	})
	return r
}

// LeftRecursion runs only the left-recursion pass over g, the one place
// left recursion is decided. It returns one left-recursion or
// hidden-left-recursion diagnostic per left-recursive nonterminal, each
// carrying its NT and Witness cycle, sorted by nonterminal name; Check
// reports the same diagnostics among its others. An empty result means g
// meets the no-left-recursion hypothesis of the correctness theorems.
func LeftRecursion(g *grammar.Grammar) []Diagnostic {
	v := &verifier{g: g, c: g.Compiled(), an: analysis.New(g)}
	v.checkLeftRecursion()
	sort.Slice(v.diags, func(i, j int) bool { return v.diags[i].NT < v.diags[j].NT })
	return v.diags
}

// IssuerName identifies this verifier in certificates it issues.
const IssuerName = "grammarlint"

// Certify verifies g and, when no error-severity diagnostic exists, issues
// a certificate and attaches it to the compiled grammar, switching later
// Parser sessions into certified mode. The report is returned either way;
// err is non-nil exactly when certification was refused, and then carries
// the first blocking diagnostic.
func Certify(g *grammar.Grammar) (*grammar.Certificate, *Report, error) {
	r := Check(g)
	cert, err := Issue(r)
	return cert, r, err
}

// Issue is Certify for a report Check already computed: it issues and
// attaches the certificate for r.Grammar without verifying it again, or
// refuses with the report's first error. r must come from Check on that
// grammar.
func Issue(r *Report) (*grammar.Certificate, error) {
	if errs := r.Errors(); len(errs) > 0 {
		return nil, fmt.Errorf("grammarlint: %d error(s); first: %s", len(errs), errs[0])
	}
	c := r.Grammar.Compiled()
	cert := &grammar.Certificate{
		Fingerprint: c.Fingerprint(),
		Checks:      []string{"well-formed", "no-left-recursion", "no-derivation-cycles"},
		Issuer:      IssuerName,
	}
	if err := c.Certify(cert); err != nil {
		return nil, err
	}
	return cert, nil
}

// verifier accumulates diagnostics over one grammar.
type verifier struct {
	g     *grammar.Grammar
	c     *grammar.Compiled
	an    *analysis.Analysis
	diags []Diagnostic
}

func (v *verifier) add(d Diagnostic) {
	if d.Prod >= 0 && d.Line == 0 {
		d.Line = v.g.ProdLine(d.Prod)
	}
	v.diags = append(v.diags, d)
}

// prodRef renders "production 3 (E -> E plus T)" for messages.
func (v *verifier) prodRef(i int) string {
	return fmt.Sprintf("production %d (%s)", i, v.g.Prods[i])
}

// checkWellFormed is the static form of grammar.Validate, upgraded from
// first-error to every-violation and positioned per occurrence.
func (v *verifier) checkWellFormed() {
	if v.g.Start == "" {
		v.add(Diagnostic{Code: CodeUndefinedStart, Severity: Error, Prod: -1, Pos: -1,
			Message: "grammar has an empty start symbol"})
	} else if !v.g.HasNT(v.g.Start) {
		v.add(Diagnostic{Code: CodeUndefinedStart, Severity: Error, NT: v.g.Start, Prod: -1, Pos: -1,
			Message: fmt.Sprintf("start symbol %s has no productions", v.g.Start)})
	}
	for i, p := range v.g.Prods {
		if p.Lhs == "" {
			v.add(Diagnostic{Code: CodeEmptyLhs, Severity: Error, Prod: i, Pos: -1,
				Message: fmt.Sprintf("production %d has an empty left-hand side", i)})
		}
		for j, s := range p.Rhs {
			if s.Name == "" {
				v.add(Diagnostic{Code: CodeEmptySymbol, Severity: Error, Prod: i, Pos: j,
					Message: fmt.Sprintf("%s has a symbol with an empty name at position %d", v.prodRef(i), j)})
				continue
			}
			if s.IsNT() && !v.g.HasNT(s.Name) {
				v.add(Diagnostic{Code: CodeUndefinedNT, Severity: Error, NT: s.Name, Prod: i, Pos: j,
					Message: fmt.Sprintf("%s references undefined nonterminal %s at position %d", v.prodRef(i), s.Name, j)})
			}
		}
	}
}

// checkDuplicates flags productions that repeat an earlier (Lhs, Rhs) pair
// verbatim: they add nothing to the language but make every input that
// uses them ambiguous.
func (v *verifier) checkDuplicates() {
	seen := make(map[string]int, len(v.g.Prods))
	for i, p := range v.g.Prods {
		key := p.String()
		if first, ok := seen[key]; ok {
			v.add(Diagnostic{Code: CodeDuplicateProd, Severity: Warning, NT: p.Lhs, Prod: i, Pos: -1,
				Message: fmt.Sprintf("%s duplicates production %d; every parse that uses it is ambiguous", v.prodRef(i), first)})
			continue
		}
		seen[key] = i
	}
}

// checkUseless flags nonterminals that cannot occur in any complete parse:
// unreachable from the start symbol, or unproductive (deriving no finite
// terminal word).
func (v *verifier) checkUseless() {
	reach := analysis.Reachable(v.g)
	prod := analysis.Productive(v.g)
	for _, nt := range v.g.Nonterminals() {
		if nt == "" {
			continue // already an empty-lhs error
		}
		anchor := v.firstProdOf(nt)
		if !reach[nt] && v.g.HasNT(v.g.Start) {
			v.add(Diagnostic{Code: CodeUnreachable, Severity: Warning, NT: nt, Prod: anchor, Pos: -1,
				Message: fmt.Sprintf("nonterminal %s is unreachable from start symbol %s", nt, v.g.Start)})
		}
		if !prod[nt] {
			v.add(Diagnostic{Code: CodeUnproductive, Severity: Warning, NT: nt, Prod: anchor, Pos: -1,
				Message: fmt.Sprintf("nonterminal %s derives no terminal word (every expansion loops or dead-ends)", nt)})
		}
	}
}

func (v *verifier) firstProdOf(nt string) int {
	if idxs := v.g.ProductionIndices(nt); len(idxs) > 0 {
		return idxs[0]
	}
	return -1
}

// checkSLLConflicts flags decision points where one token of lookahead
// cannot separate the alternatives: production pairs whose LL(1) lookahead
// sets — FIRST(rhs), plus FOLLOW(lhs) when rhs is nullable — overlap.
// ALL(*) resolves these with adaptive lookahead, so this is informational:
// it predicts where prediction will work hardest (and where an ambiguity
// may lurk).
func (v *verifier) checkSLLConflicts() {
	for _, nt := range v.g.Nonterminals() {
		idxs := v.g.ProductionIndices(nt)
		if len(idxs) < 2 {
			continue
		}
		las := make([]map[string]bool, len(idxs))
		for k, i := range idxs {
			la := v.an.FirstOfForm(v.g.Prods[i].Rhs)
			if v.an.NullableForm(v.g.Prods[i].Rhs) {
				for t := range v.an.Follow(nt) {
					la[t] = true
				}
			}
			las[k] = la
		}
		var pairs []string
		anchor, anchorPos := -1, -1
		for a := 0; a < len(idxs); a++ {
			for b := a + 1; b < len(idxs); b++ {
				shared := intersect(las[a], las[b])
				if len(shared) == 0 {
					continue
				}
				if anchor < 0 {
					anchor = idxs[a]
				}
				if len(pairs) < 3 {
					pairs = append(pairs, fmt.Sprintf("%d/%d on {%s}", idxs[a], idxs[b], strings.Join(shared, ", ")))
				} else if len(pairs) == 3 {
					pairs = append(pairs, "...")
				}
			}
		}
		if len(pairs) > 0 {
			v.add(Diagnostic{Code: CodeSLLConflict, Severity: Info, NT: nt, Prod: anchor, Pos: anchorPos,
				Message: fmt.Sprintf("alternatives of %s overlap on 1-token lookahead (productions %s); SLL prediction will need deeper lookahead here", nt, strings.Join(pairs, "; "))})
		}
	}
}

// intersect returns the sorted intersection of two terminal sets, with the
// EOF pseudo-terminal rendered readably.
func intersect(a, b map[string]bool) []string {
	var out []string
	for t := range a {
		if b[t] {
			if t == analysis.EOF {
				t = "<eof>"
			}
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}
