package grammarlint

import (
	"reflect"
	"strings"
	"testing"

	"costar/internal/grammar"
	"costar/internal/languages/dotlang"
	"costar/internal/languages/jsonlang"
	"costar/internal/languages/langkit"
	"costar/internal/languages/pylang"
	"costar/internal/languages/xmllang"
)

// codes returns the multiset of diagnostic codes for a severity.
func codes(r *Report, sev Severity) map[Code]int {
	out := map[Code]int{}
	for _, d := range r.Diags {
		if d.Severity == sev {
			out[d.Code]++
		}
	}
	return out
}

func hasCode(r *Report, c Code, nt string) *Diagnostic {
	for i := range r.Diags {
		if r.Diags[i].Code == c && (nt == "" || r.Diags[i].NT == nt) {
			return &r.Diags[i]
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Well-formedness
// ---------------------------------------------------------------------------

func TestUndefinedNonterminalPositioned(t *testing.T) {
	// ParseBNF cannot produce undefined nonterminals (non-LHS identifiers
	// become terminals), so build programmatically, with source lines as a
	// text front end would record them.
	g := grammar.NewBuilder("S").
		AddAt(2, "S", grammar.NT("A"), grammar.T("b")).
		AddAt(3, "A", grammar.T("a"), grammar.NT("Missing"), grammar.T("c")).
		Grammar()
	r := Check(g)
	d := hasCode(r, CodeUndefinedNT, "Missing")
	if d == nil {
		t.Fatalf("no undefined-nt diagnostic:\n%s", r)
	}
	if d.Prod != 1 || d.Pos != 1 {
		t.Errorf("diagnostic position = prod %d pos %d, want prod 1 pos 1", d.Prod, d.Pos)
	}
	if d.Line != 3 {
		t.Errorf("diagnostic line = %d, want 3", d.Line)
	}
	if !strings.Contains(d.String(), "line 3") {
		t.Errorf("rendered diagnostic should carry the line: %q", d.String())
	}
	if r.Certifiable() {
		t.Error("grammar with undefined nonterminal must not be certifiable")
	}
}

func TestUndefinedStart(t *testing.T) {
	g := grammar.New("Ghost", []grammar.Production{{Lhs: "S", Rhs: []grammar.Symbol{grammar.T("a")}}})
	r := Check(g)
	if hasCode(r, CodeUndefinedStart, "Ghost") == nil {
		t.Fatalf("no undefined-start diagnostic:\n%s", r)
	}
}

func TestEmptyLhsAndSymbol(t *testing.T) {
	g := grammar.New("S", []grammar.Production{
		{Lhs: "S", Rhs: []grammar.Symbol{grammar.T("a")}},
		{Lhs: "", Rhs: nil},
		{Lhs: "S", Rhs: []grammar.Symbol{grammar.T("")}},
	})
	r := Check(g)
	if hasCode(r, CodeEmptyLhs, "") == nil {
		t.Errorf("no empty-lhs diagnostic:\n%s", r)
	}
	if hasCode(r, CodeEmptySymbol, "") == nil {
		t.Errorf("no empty-symbol diagnostic:\n%s", r)
	}
}

// ---------------------------------------------------------------------------
// Left recursion: direct, indirect, hidden
// ---------------------------------------------------------------------------

func TestDirectLeftRecursion(t *testing.T) {
	g := grammar.MustParseBNF(`E -> E plus T | T ; T -> n`)
	r := Check(g)
	d := hasCode(r, CodeLeftRecursion, "E")
	if d == nil {
		t.Fatalf("no left-recursion diagnostic for E:\n%s", r)
	}
	if len(d.Witness) < 2 || d.Witness[0] != "E" || d.Witness[len(d.Witness)-1] != "E" {
		t.Errorf("witness = %v, want a cycle from E to E", d.Witness)
	}
	if d.Prod != 0 || d.Pos != 0 {
		t.Errorf("anchor = prod %d pos %d, want the E -> E plus T production", d.Prod, d.Pos)
	}
	if r.Certifiable() {
		t.Error("left-recursive grammar must not be certifiable")
	}
}

func TestIndirectLeftRecursion(t *testing.T) {
	g := grammar.MustParseBNF(`
		A -> B x | a ;
		B -> C y | b ;
		C -> A z | c
	`)
	r := Check(g)
	for _, nt := range []string{"A", "B", "C"} {
		d := hasCode(r, CodeHiddenLeftRec, nt)
		if d == nil {
			t.Errorf("no hidden-left-recursion diagnostic for %s:\n%s", nt, r)
			continue
		}
		if len(d.Witness) != 4 {
			t.Errorf("%s witness = %v, want a 3-step cycle", nt, d.Witness)
		}
	}
}

func TestHiddenLeftRecursionThroughNullablePrefix(t *testing.T) {
	// A -> B A x with B ⇒ ε: A's recursion hides behind the nullable B.
	g := grammar.MustParseBNF(`
		A -> B A x | a ;
		B -> %empty | b
	`)
	r := Check(g)
	d := hasCode(r, CodeHiddenLeftRec, "A")
	if d == nil {
		t.Fatalf("no hidden-left-recursion diagnostic for A:\n%s", r)
	}
	if !strings.Contains(d.Message, "nullable prefix B") {
		t.Errorf("message should name the nullable prefix: %q", d.Message)
	}
	// B itself is not left-recursive.
	if got := hasCode(r, CodeHiddenLeftRec, "B"); got != nil {
		t.Errorf("B flagged as left-recursive: %s", got)
	}
	// Agreement with the per-NT reference DFS.
	if lr := perNTLeftRecursion(g); len(lr) != 1 || lr["A"] == nil {
		t.Errorf("per-NT DFS flags %v, want only A", lr)
	}
}

// leftRecNTs returns the nonterminals LeftRecursion flags, in its order
// (sorted by name), and its diagnostics keyed by nonterminal.
func leftRecNTs(g *grammar.Grammar) ([]string, map[string]Diagnostic) {
	var names []string
	byNT := map[string]Diagnostic{}
	for _, d := range LeftRecursion(g) {
		names = append(names, d.NT)
		byNT[d.NT] = d
	}
	return names, byNT
}

func TestLeftRecursionDirect(t *testing.T) {
	g := grammar.MustParseBNF(`E -> E plus T | T ; T -> num`)
	names, byNT := leftRecNTs(g)
	if !reflect.DeepEqual(names, []string{"E"}) {
		t.Fatalf("left-recursive = %v, want [E]", names)
	}
	d := byNT["E"]
	if d.Code != CodeLeftRecursion {
		t.Errorf("code = %s, want %s", d.Code, CodeLeftRecursion)
	}
	if !reflect.DeepEqual(d.Witness, []string{"E", "E"}) {
		t.Errorf("cycle = %v", d.Witness)
	}
	if got := codes(Check(g), Error); got[CodeLeftRecursion] != 1 {
		t.Errorf("Check reports %v, want one left-recursion error", got)
	}
}

func TestLeftRecursionIndirect(t *testing.T) {
	g := grammar.MustParseBNF(`
		A -> B x | a ;
		B -> C y | b ;
		C -> A z | c
	`)
	names, byNT := leftRecNTs(g)
	if !reflect.DeepEqual(names, []string{"A", "B", "C"}) {
		t.Fatalf("left-recursive = %v, want [A B C] (indirect)", names)
	}
	cyc := byNT["A"].Witness
	if len(cyc) != 4 || cyc[0] != "A" || cyc[3] != "A" {
		t.Errorf("cycle witness = %v", cyc)
	}
}

func TestLeftRecursionHiddenByNullable(t *testing.T) {
	// A → N A x is left-recursive because N is nullable.
	a := grammar.MustParseBNF(`
		A -> N A x | a ;
		N -> %empty | n
	`)
	if names, byNT := leftRecNTs(a); !reflect.DeepEqual(names, []string{"A"}) || byNT["A"].Code != CodeHiddenLeftRec {
		t.Errorf("hidden left recursion (nullable prefix) not detected: %v", LeftRecursion(a))
	}
	// With a non-nullable prefix it is not left recursion.
	b := grammar.MustParseBNF(`
		A -> N A x | a ;
		N -> n
	`)
	if names, _ := leftRecNTs(b); len(names) != 0 {
		t.Errorf("non-nullable prefix misreported as left recursion: %v", names)
	}
}

func TestNoLeftRecursionFig2(t *testing.T) {
	g := grammar.MustParseBNF(`S -> A c | A d ; A -> a A | b`)
	if got := LeftRecursion(g); len(got) != 0 {
		t.Errorf("fig2 reported left-recursive: %v", got)
	}
}

func TestSelfCycleViaTwoSteps(t *testing.T) {
	// A → B, B → A: both are left-recursive, cycles of length 3 (A B A).
	g := grammar.MustParseBNF(`
		A -> B | a ;
		B -> A
	`)
	names, byNT := leftRecNTs(g)
	if !reflect.DeepEqual(names, []string{"A", "B"}) {
		t.Fatalf("mutual unit cycle not detected: %v", names)
	}
	if cyc := byNT["A"].Witness; !reflect.DeepEqual(cyc, []string{"A", "B", "A"}) {
		t.Errorf("cycle = %v", cyc)
	}
}

func TestNullableSiblingIsNotFlagged(t *testing.T) {
	// S -> A A, A -> ε | a: no left recursion despite nullable re-push.
	g := grammar.MustParseBNF(`S -> A A ; A -> %empty | a`)
	r := Check(g)
	if d := hasCode(r, CodeLeftRecursion, ""); d != nil {
		t.Errorf("spurious left recursion: %s", d)
	}
	if d := hasCode(r, CodeHiddenLeftRec, ""); d != nil {
		t.Errorf("spurious hidden left recursion: %s", d)
	}
	if !r.Certifiable() {
		t.Errorf("grammar should be certifiable:\n%s", r)
	}
}

// ---------------------------------------------------------------------------
// Derivation cycles
// ---------------------------------------------------------------------------

func TestDerivationCycle(t *testing.T) {
	// A -> A (unit self-cycle): infinitely many trees for any member word.
	g := grammar.MustParseBNF(`A -> A | a`)
	r := Check(g)
	if hasCode(r, CodeDerivationCycle, "A") == nil {
		t.Fatalf("no derivation-cycle diagnostic:\n%s", r)
	}
	// It is also (direct) left recursion; both facts are reported.
	if hasCode(r, CodeLeftRecursion, "A") == nil {
		t.Errorf("derivation cycle should also be flagged as left recursion:\n%s", r)
	}
}

func TestDerivationCycleThroughNullableContext(t *testing.T) {
	// X -> N Y N, Y -> X | y, N -> ε: X ⇒ N Y N ⇒+ X.
	g := grammar.MustParseBNF(`
		X -> N Y N | x ;
		Y -> X | y ;
		N -> %empty
	`)
	r := Check(g)
	if hasCode(r, CodeDerivationCycle, "X") == nil {
		t.Fatalf("no derivation-cycle diagnostic for X:\n%s", r)
	}
	if hasCode(r, CodeDerivationCycle, "Y") == nil {
		t.Fatalf("no derivation-cycle diagnostic for Y:\n%s", r)
	}
	if hasCode(r, CodeDerivationCycle, "N") != nil {
		t.Errorf("N is not on a derivation cycle:\n%s", r)
	}
}

func TestRightRecursionIsNotADerivationCycle(t *testing.T) {
	g := grammar.MustParseBNF(`L -> x L | x`)
	r := Check(g)
	if len(r.Errors()) != 0 {
		t.Errorf("right recursion flagged as error:\n%s", r)
	}
}

// ---------------------------------------------------------------------------
// Duplicates, useless symbols, conflicts
// ---------------------------------------------------------------------------

func TestDuplicateProduction(t *testing.T) {
	g := grammar.MustParseBNF(`S -> a b | c | a b`)
	r := Check(g)
	d := hasCode(r, CodeDuplicateProd, "S")
	if d == nil {
		t.Fatalf("no duplicate-production diagnostic:\n%s", r)
	}
	if d.Prod != 2 {
		t.Errorf("duplicate anchored at prod %d, want 2", d.Prod)
	}
	if d.Severity != Warning {
		t.Errorf("duplicate severity = %v, want warning", d.Severity)
	}
	// Certifiable (warnings only) but not clean.
	if !r.Certifiable() || r.Clean() {
		t.Errorf("want certifiable-but-unclean; errors=%d warnings=%d", r.Count(Error), r.Count(Warning))
	}
}

func TestUnreachableAndUnproductive(t *testing.T) {
	g := grammar.MustParseBNF(`
		S -> a ;
		Orphan -> b ;
		Loop -> Loop2 x ;
		Loop2 -> Loop y
	`)
	r := Check(g)
	if hasCode(r, CodeUnreachable, "Orphan") == nil {
		t.Errorf("Orphan not flagged unreachable:\n%s", r)
	}
	if hasCode(r, CodeUnproductive, "Loop") == nil {
		t.Errorf("Loop not flagged unproductive:\n%s", r)
	}
	if hasCode(r, CodeUnreachable, "S") != nil || hasCode(r, CodeUnproductive, "S") != nil {
		t.Errorf("S wrongly flagged useless:\n%s", r)
	}
}

func TestSLLConflictHeuristic(t *testing.T) {
	// Both alternatives start with terminal a: LL(1)-inseparable.
	g := grammar.MustParseBNF(`S -> a b | a c`)
	r := Check(g)
	d := hasCode(r, CodeSLLConflict, "S")
	if d == nil {
		t.Fatalf("no sll-conflict diagnostic:\n%s", r)
	}
	if d.Severity != Info {
		t.Errorf("conflict severity = %v, want info", d.Severity)
	}
	if !strings.Contains(d.Message, "a") {
		t.Errorf("message should name the shared lookahead: %q", d.Message)
	}
	// Conflicts do not block certification or cleanliness.
	if !r.Clean() || !r.Certifiable() {
		t.Errorf("info-only report should be clean and certifiable:\n%s", r)
	}
}

func TestLL1GrammarHasNoConflictDiagnostic(t *testing.T) {
	g := grammar.MustParseBNF(`S -> a A ; A -> b | c`)
	r := Check(g)
	if len(r.Diags) != 0 {
		t.Errorf("LL(1) grammar should report nothing:\n%s", r)
	}
}

// ---------------------------------------------------------------------------
// LL(1) status: a grammar is LL(1) exactly when no nonterminal carries an
// sll-conflict diagnostic (Section 6.1's expressiveness comparison)
// ---------------------------------------------------------------------------

func TestLL1Grammar(t *testing.T) {
	// A classic LL(1) expression grammar.
	g := grammar.MustParseBNF(`
		E -> T Etail ;
		Etail -> plus T Etail | %empty ;
		T -> num | lparen E rparen
	`)
	if d := hasCode(Check(g), CodeSLLConflict, ""); d != nil {
		t.Fatalf("LL(1) grammar reported a conflict: %s", d)
	}
}

func TestFig2IsNotLL1(t *testing.T) {
	// S -> A c | A d shares FIRST(A) between alternatives.
	g := grammar.MustParseBNF(`S -> A c | A d ; A -> a A | b`)
	r := Check(g)
	d := hasCode(r, CodeSLLConflict, "S")
	if d == nil {
		t.Fatalf("no conflict on S:\n%s", r)
	}
	if !strings.Contains(d.Message, "productions 0/1 on {a, b}") {
		t.Errorf("message should name both productions and the shared lookahead: %q", d.Message)
	}
	if d := hasCode(r, CodeSLLConflict, "A"); d != nil {
		t.Errorf("A's alternatives start differently, yet: %s", d)
	}
}

// TestXMLNotLL1 pins the Section 6.1 claim: the XML grammar (the elt rule
// in particular) is beyond LL(1), which is why the verified LL(1) parsers
// of prior work cannot handle it while CoStar can.
func TestXMLNotLL1(t *testing.T) {
	r := Check(xmllang.Grammar())
	if hasCode(r, CodeSLLConflict, "elt") == nil {
		t.Errorf("no conflict on elt; the XML grammar must not be LL(1):\n%s", r)
	}
}

func TestJSONGrammarLL1Status(t *testing.T) {
	// The desugared JSON grammar contains obj/arr alternatives that share
	// '{' and '[' FIRST tokens ({} vs {pair...}), so it is not LL(1)
	// either — another datum for the expressiveness table.
	n := codes(Check(jsonlang.Grammar()), Info)[CodeSLLConflict]
	if n == 0 {
		t.Skip("JSON grammar happens to be LL(1) under this factoring")
	}
	t.Logf("JSON grammar has %d nonterminals with LL(1) conflicts (expected: obj/arr share opening tokens)", n)
}

func TestNullableFollowConflict(t *testing.T) {
	// FIRST/FOLLOW conflict: A nullable and FIRST(A) ∩ FOLLOW(A) ≠ ∅.
	g := grammar.MustParseBNF(`
		S -> A a ;
		A -> a | %empty
	`)
	if hasCode(Check(g), CodeSLLConflict, "A") == nil {
		t.Fatal("FIRST/FOLLOW conflict missed")
	}
}

func TestEOFColumn(t *testing.T) {
	// The ε-production's lookahead is FOLLOW(Tail) = {EOF}, disjoint from
	// the other alternative's {a}.
	g := grammar.MustParseBNF(`S -> a Tail ; Tail -> a Tail | %empty`)
	if d := hasCode(Check(g), CodeSLLConflict, ""); d != nil {
		t.Fatalf("LL(1) grammar reported a conflict: %s", d)
	}
}

// ---------------------------------------------------------------------------
// Certification
// ---------------------------------------------------------------------------

func TestCertifyAttachesCertificate(t *testing.T) {
	g := grammar.MustParseBNF(`S -> a S | b`)
	cert, r, err := Certify(g)
	if err != nil {
		t.Fatalf("Certify: %v\n%s", err, r)
	}
	if cert.Fingerprint != g.Compiled().Fingerprint() {
		t.Error("certificate fingerprint does not match the grammar")
	}
	if got := g.Compiled().Certificate(); got != cert {
		t.Errorf("Certificate() = %v, want the issued cert", got)
	}
	if cert.Issuer != IssuerName {
		t.Errorf("issuer = %q", cert.Issuer)
	}
}

func TestCertifyRefusesLeftRecursion(t *testing.T) {
	g := grammar.MustParseBNF(`E -> E plus n | n`)
	cert, _, err := Certify(g)
	if err == nil || cert != nil {
		t.Fatalf("Certify accepted a left-recursive grammar (cert=%v)", cert)
	}
	if g.Compiled().Certificate() != nil {
		t.Error("certificate attached despite refusal")
	}
}

// TestIssueFromReport: a report Check already computed certifies its
// grammar exactly as Certify does, with no second verification, and a
// report with errors is refused without attaching anything.
func TestIssueFromReport(t *testing.T) {
	g := grammar.MustParseBNF(`S -> a S | b`)
	cert, err := Issue(Check(g))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := Certify(grammar.MustParseBNF(`S -> a S | b`))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cert, want) || g.Compiled().Certificate() != cert {
		t.Errorf("Issue gave %v (attached %v), Certify %v", cert, g.Compiled().Certificate(), want)
	}
	lr := grammar.MustParseBNF(`E -> E plus n | n`)
	if cert, err := Issue(Check(lr)); err == nil || cert != nil || lr.Compiled().Certificate() != nil {
		t.Fatalf("Issue certified a left-recursive grammar (cert=%v, err=%v)", cert, err)
	}
}

func TestForeignCertificateRejected(t *testing.T) {
	g1 := grammar.MustParseBNF(`S -> a`)
	g2 := grammar.MustParseBNF(`S -> b`)
	cert, _, err := Certify(g1)
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Compiled().Certify(cert); err == nil {
		t.Error("g2 accepted g1's certificate")
	}
	if g2.Compiled().Certificate() != nil {
		t.Error("foreign certificate attached")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := grammar.MustParseBNF(`S -> a B ; B -> b`)
	same := grammar.MustParseBNF(`S -> a B ; B -> b`)
	if base.Compiled().Fingerprint() != same.Compiled().Fingerprint() {
		t.Error("equal grammars should have equal fingerprints")
	}
	for _, variant := range []string{
		`S -> a B ; B -> c`,           // different terminal
		`S -> B a ; B -> b`,           // different order within RHS
		`B -> b ; S -> a B`,           // different production order
		`%start B  S -> a B ; B -> b`, // different start
		`S -> a C ; C -> b`,           // renamed nonterminal
	} {
		v := grammar.MustParseBNF(variant)
		if v.Compiled().Fingerprint() == base.Compiled().Fingerprint() {
			t.Errorf("variant %q collides with base fingerprint", variant)
		}
	}
}

// ---------------------------------------------------------------------------
// Determinism and bundled grammars
// ---------------------------------------------------------------------------

func TestCheckDeterministic(t *testing.T) {
	src := `
		S -> A b | Missing x | a b | a c ;
		A -> A y | z ;
		Orphan -> Orphan2 ; Orphan2 -> q ;
		Dup -> d | d
	`
	g := grammar.MustParseBNF(src)
	want := Check(g).String()
	for i := 0; i < 10; i++ {
		if got := Check(grammar.MustParseBNF(src)).String(); got != want {
			t.Fatalf("run %d differs:\n%s\nvs\n%s", i, got, want)
		}
	}
}

// TestBundledGrammarsClean is the `make vet-grammars` gate: the four
// benchmark languages must verify without a single error or warning.
func TestBundledGrammarsClean(t *testing.T) {
	for _, lang := range []*langkit.Language{jsonlang.Lang, xmllang.Lang, dotlang.Lang, pylang.Lang} {
		r := Check(lang.Grammar())
		if !r.Clean() {
			var bad []string
			for _, d := range r.Diags {
				if d.Severity != Info {
					bad = append(bad, d.String())
				}
			}
			t.Errorf("%s: %d errors, %d warnings:\n%s", lang.Name, r.Count(Error), r.Count(Warning), strings.Join(bad, "\n"))
		}
		if _, _, err := Certify(lang.Grammar()); err != nil {
			t.Errorf("%s: certification refused: %v", lang.Name, err)
		}
	}
}

// TestExampleGrammarsVet pins the examples/ corpus: the well-formed example
// grammars verify clean, and the deliberately left-recursive ones in
// examples/leftrec are flagged with witnesses (the "bad corpus" half of the
// acceptance criteria).
func TestExampleGrammarsVet(t *testing.T) {
	clean := map[string]string{
		"quickstart": `
			S -> A c | A d ;
			A -> a A | b
		`,
		"calculator": `
			Expr   -> Term ExprT ;
			ExprT  -> plus Term ExprT | minus Term ExprT | %empty ;
			Term   -> Factor TermT ;
			TermT  -> star Factor TermT | slash Factor TermT | %empty ;
			Factor -> num | lparen Expr rparen
		`,
	}
	for name, src := range clean {
		r := Check(grammar.MustParseBNF(src))
		if !r.Clean() {
			t.Errorf("%s: not clean:\n%s", name, r)
		}
	}
	flagged := map[string]string{
		"leftrec-direct": `
			E -> E plus T | T ;
			T -> T star F | F ;
			F -> num | lparen E rparen
		`,
		"leftrec-indirect": `
			A -> B x | a ;
			B -> C y | b ;
			C -> A z | c
		`,
		"leftrec-hidden": `
			A -> N A x | a ;
			N -> %empty | n
		`,
	}
	for name, src := range flagged {
		r := Check(grammar.MustParseBNF(src))
		if r.Certifiable() {
			t.Errorf("%s: expected left-recursion errors, got none:\n%s", name, r)
			continue
		}
		for _, d := range r.Errors() {
			if d.Code == CodeLeftRecursion || d.Code == CodeHiddenLeftRec {
				if len(d.Witness) < 2 {
					t.Errorf("%s: diagnostic lacks a witness cycle: %s", name, d)
				}
			}
		}
	}
}
