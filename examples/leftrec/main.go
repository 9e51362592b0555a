// leftrec: CoStar and left recursion. ALL(*) cannot parse left-recursive
// grammars; CoStar (unlike ANTLR, which silently rewrites some of them)
// detects the situation two ways: statically, with grammarlint's decision
// procedure (the paper lists one as future work, Section 8), and
// dynamically, with the visited-set check of Section 4.1 whose soundness
// is Lemma 5.10 — a reported LeftRecursive(X) always names a genuinely
// left-recursive X. The example checks both claims as it prints: it
// panics if the static pass misses one of its left-recursive grammars or
// flags the refactored one, or if the dynamic detector names a
// nonterminal the static pass did not flag.
package main

import (
	"fmt"

	"costar"
	"costar/internal/grammarlint"
	"costar/internal/machine"
)

func main() {
	// The textbook left-recursive expression grammar.
	direct := costar.MustParseBNF(`
		E -> E plus T | T ;
		T -> T star F | F ;
		F -> num | lparen E rparen
	`)
	report("direct (E → E + T)", direct, true)

	// Indirect and nullable-hidden left recursion are caught too.
	indirect := costar.MustParseBNF(`
		A -> B x | a ;
		B -> C y | b ;
		C -> A z | c
	`)
	report("indirect (A → B → C → A)", indirect, true)

	hidden := costar.MustParseBNF(`
		A -> N A x | a ;
		N -> %empty | n
	`)
	report("hidden by a nullable prefix (A → N A x, N ⇒ ε)", hidden, true)

	// Or let the library do the refactoring: EliminateLeftRecursion is the
	// rewrite ANTLR applies implicitly (and the paper defers to future work).
	fixed2, err := costar.EliminateLeftRecursion(direct)
	if err != nil {
		panic(err)
	}
	fmt.Println("automatic elimination of the direct grammar:")
	fmt.Print(indentG(fixed2.String()))
	p2 := costar.MustNewParser(fixed2, costar.Options{})
	res2 := p2.Parse(costar.Words("num", "plus", "num", "star", "num"))
	fmt.Printf("  parse of num+num*num with the rewritten grammar: %s\n\n", res2.Kind)

	// The standard right-recursive refactoring is accepted.
	fixed := costar.MustParseBNF(`
		E -> T Etail ;
		Etail -> plus T Etail | %empty ;
		T -> F Ttail ;
		Ttail -> star F Ttail | %empty ;
		F -> num | lparen E rparen
	`)
	report("right-recursive refactoring", fixed, false)
	p := costar.MustNewParser(fixed, costar.Options{})
	res := p.Parse(costar.Words("num", "plus", "num", "star", "num"))
	fmt.Printf("  parse of num+num*num: %s\n", res.Kind)
}

// report prints what the static and dynamic detectors find in g, and
// panics when they contradict leftRecursive or each other.
func report(name string, g *costar.Grammar, leftRecursive bool) {
	fmt.Printf("%s:\n", name)
	found := grammarlint.LeftRecursion(g)
	if (len(found) > 0) != leftRecursive {
		panic(fmt.Sprintf("%s: static detector flagged %d nonterminals, want left-recursive=%v", name, len(found), leftRecursive))
	}
	if len(found) == 0 {
		fmt.Println("  static detector: no left recursion")
		return
	}
	flagged := make(map[string]bool, len(found))
	names := make([]string, len(found))
	for i, d := range found {
		flagged[d.NT] = true
		names[i] = d.NT
	}
	fmt.Printf("  static detector: left-recursive in %v\n", names)
	for _, d := range found {
		fmt.Printf("    witness: %v\n", d.Witness)
	}
	// Dynamic detection: the parser halts with LeftRecursive(X) instead
	// of looping (error-free termination holds only without LR).
	p := costar.MustNewParser(g, costar.Options{})
	res := p.Parse(costar.Words("num"))
	if res.Kind != costar.Error {
		fmt.Printf("  dynamic detector: %s on this input (the loop was not reached)\n", res.Kind)
		return
	}
	merr, ok := res.Err.(*machine.Error)
	if !ok || merr.Kind != machine.ErrLeftRecursive {
		panic(fmt.Sprintf("%s: dynamic detector: %v", name, res.Err))
	}
	// Lemma 5.10 in miniature: the reported nonterminal is left-recursive.
	if !flagged[merr.NT] {
		panic(fmt.Sprintf("%s: dynamic detector reported LeftRecursive(%s), static detector flagged %v", name, merr.NT, names))
	}
	fmt.Printf("  dynamic detector: LeftRecursive(%s) — %s\n", merr.NT, merr.Msg)
}

func indentG(s string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += "  " + line + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			out = append(out, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}
