// Command grammar-convert is the paper's grammar-conversion tool (Section
// 6.1): it reads a grammar in the supported ANTLR-4-like syntax, desugars
// the EBNF operators into plain BNF (generating fresh nonterminals), and
// prints the result in the BNF text format the costar command consumes.
//
// Usage:
//
//	grammar-convert grammar.g4           # print desugared BNF
//	grammar-convert -stats grammar.g4    # also print |T|, |N|, |P|
//	grammar-convert -lexer grammar.g4    # also list the lexer rules
//	grammar-convert -check grammar.g4    # report left recursion & LL(1) status
//	grammar-convert -vet grammar.g4      # run the full static verifier on the result
//	grammar-convert -emit-artifact g.csar grammar.g4  # write a cold ahead-of-time artifact
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"costar"
	"costar/internal/ebnf"
	"costar/internal/g4"
	"costar/internal/grammarlint"
	"costar/internal/transform"
)

func main() {
	var (
		stats    = flag.Bool("stats", false, "print grammar size statistics")
		lexRules = flag.Bool("lexer", false, "list the lexer rules")
		check    = flag.Bool("check", false, "report left recursion and LL(1) conflicts")
		fix      = flag.Bool("fix", false, "eliminate left recursion (Paull's algorithm) before printing")
		vet      = flag.Bool("vet", false, "run the static grammar verifier on the desugared result")
		emit     = flag.String("emit-artifact", "", "also write a cold ahead-of-time artifact to this path (certified when the grammar vets clean; warm it with `costar compile`)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: grammar-convert [flags] grammar.g4")
		os.Exit(2)
	}
	if err := run(os.Stdout, flag.Arg(0), *stats, *lexRules, *check, *fix, *vet, *emit); err != nil {
		fmt.Fprintln(os.Stderr, "grammar-convert:", err)
		os.Exit(1)
	}
}

// run converts the grammar at path and writes the result, plus whatever the
// flags ask for, to w.
func run(w io.Writer, path string, stats, lexRules, check, fix, vet bool, emit string) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	f, err := g4.Parse(string(src))
	if err != nil {
		return err
	}
	g, err := ebnf.Desugar(f.Parser)
	if err != nil {
		return err
	}
	if fix {
		g, err = transform.EliminateLeftRecursion(g)
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "# grammar %s, desugared to BNF (start: %s)\n", f.Name, g.Start)
	fmt.Fprint(w, g.String())
	if stats {
		nT, nN, nP := g.Stats()
		fmt.Fprintf(w, "\n# |T| = %d, |N| = %d, |P| = %d, max RHS length = %d\n",
			nT, nN, nP, g.MaxRhsLen())
	}
	if lexRules {
		fmt.Fprintln(w, "\n# lexer rules (priority order):")
		for _, r := range f.Lexer.Rules {
			skip := ""
			if r.Skip {
				skip = "   -> skip"
			}
			fmt.Fprintf(w, "#   %-16s %s%s\n", r.Name, r.Pattern, skip)
		}
	}
	// One verifier report serves -check's LL(1) line, -vet and
	// -emit-artifact's clean test.
	var rep *grammarlint.Report
	if check || vet || emit != "" {
		rep = grammarlint.Check(g)
	}
	if check {
		if lr := grammarlint.LeftRecursion(g); len(lr) > 0 {
			names := make([]string, len(lr))
			for i, d := range lr {
				names[i] = d.NT
			}
			fmt.Fprintf(w, "\n# LEFT-RECURSIVE nonterminals: %v\n", names)
			for _, d := range lr {
				fmt.Fprintf(w, "#   cycle: %v\n", d.Witness)
			}
		} else {
			fmt.Fprintln(w, "\n# no left recursion")
		}
		// A grammar is LL(1) exactly when no two alternatives of one
		// nonterminal share a 1-token lookahead: grammarlint's sll-conflict.
		var conflicts []grammarlint.Diagnostic
		for _, d := range rep.Diags {
			if d.Code == grammarlint.CodeSLLConflict {
				conflicts = append(conflicts, d)
			}
		}
		if len(conflicts) > 0 {
			fmt.Fprintf(w, "# not LL(1): %d conflicting nonterminal(s) (ALL(*) required); first: %s\n",
				len(conflicts), conflicts[0].Message)
		} else {
			fmt.Fprintln(w, "# grammar is LL(1)")
		}
	}
	if vet {
		if rep.Count(grammarlint.Info) > 0 || !rep.Clean() {
			fmt.Fprintln(w)
			for _, d := range rep.Diags {
				fmt.Fprintf(w, "# vet: %s\n", d)
			}
		}
		if rep.Clean() {
			fmt.Fprintln(w, "\n# vet: clean (grammar would certify)")
		} else if !rep.Certifiable() {
			return fmt.Errorf("vet found %d error(s); grammar cannot be certified", rep.Count(grammarlint.Error))
		}
	}
	if emit != "" {
		// A cold artifact: tables, certificate (when the grammar
		// vets clean), and the embedded .g4 source the lexer recompiles
		// from — no warm DFA snapshot. `costar compile` adds the warming.
		if rep.Clean() {
			if _, err := grammarlint.Issue(rep); err != nil {
				return fmt.Errorf("certification failed on a clean grammar: %v", err)
			}
		}
		p, err := costar.NewParser(g, costar.Options{})
		if err != nil {
			return err
		}
		a, err := p.ExportArtifact(f.Name, string(src))
		if err != nil {
			return err
		}
		data := costar.EncodeArtifact(a)
		if err := os.WriteFile(emit, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "# artifact: %s (%d bytes, fingerprint %016x, cold)\n", emit, len(data), a.Fingerprint)
	}
	return nil
}
