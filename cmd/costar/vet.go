package main

// The `costar vet` subcommand: run the static grammar verifier
// (internal/grammarlint) over a grammar and print positioned diagnostics.
//
//	costar vet grammar.bnf          # BNF file
//	costar vet grammar.g4           # ANTLR-style file (desugared first)
//	costar vet -lang json           # built-in language
//	costar vet -all grammar.bnf     # include info-level findings
//
// Exit status: 0 when the grammar is clean (no errors, no warnings) — a
// certificate line is printed; 1 otherwise. Info-level findings (SLL
// lookahead conflicts) never affect the exit status: ALL(*) handles
// non-LL(1) grammars by design.

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"costar"
	"costar/internal/grammar"
	"costar/internal/grammarlint"
	"costar/internal/languages"
)

// runVet implements the vet subcommand over args (everything after "vet");
// the returned value is the process exit code.
func runVet(args []string) int {
	fs := flag.NewFlagSet("costar vet", flag.ExitOnError)
	langName := fs.String("lang", "", "built-in language: "+strings.Join(languages.Names(), ", "))
	all := fs.Bool("all", false, "also print info-level findings (SLL lookahead conflicts)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: costar vet [-all] (-lang NAME | grammar.bnf | grammar.g4)...")
		fs.PrintDefaults()
	}
	fs.Parse(args)

	type target struct {
		name string
		g    *grammar.Grammar
	}
	var targets []target
	if *langName != "" {
		fe, err := languages.Builtin(*langName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "costar vet:", err)
			return 1
		}
		targets = append(targets, target{*langName, fe.Grammar})
	}
	for _, path := range fs.Args() {
		// Dispatch on extension: .g4 through the ANTLR-style pipeline,
		// everything else as BNF.
		g4Path, bnfPath := "", path
		if strings.HasSuffix(path, ".g4") {
			g4Path, bnfPath = path, ""
		}
		fe, err := languages.Open("", g4Path, bnfPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "costar vet:", err)
			return 1
		}
		targets = append(targets, target{path, fe.Grammar})
	}
	if len(targets) == 0 {
		fs.Usage()
		return 1
	}

	exit := 0
	for _, tg := range targets {
		prefix := ""
		if len(targets) > 1 {
			prefix = tg.name + ": "
		}
		rep := costar.Vet(tg.g)
		for _, d := range rep.Diags {
			if d.Severity == grammarlint.Info && !*all {
				continue
			}
			fmt.Printf("%s%s\n", prefix, d)
		}
		if rep.Clean() {
			cert, err := grammarlint.Issue(rep)
			if err != nil {
				// Clean implies certifiable; failure here is a bug.
				fmt.Fprintf(os.Stderr, "costar vet: %scertification failed: %v\n", prefix, err)
				exit = 1
				continue
			}
			fmt.Printf("%sok: %s\n", prefix, cert)
		} else {
			fmt.Printf("%s%d error(s), %d warning(s), %d info\n", prefix,
				rep.Count(grammarlint.Error), rep.Count(grammarlint.Warning), rep.Count(grammarlint.Info))
			exit = 1
		}
	}
	return exit
}
