package main

// The `costar compile` subcommand: build an ahead-of-time artifact — the
// compiled grammar tables, certificate, and an offline-warmed SLL DFA
// cache — so later runs start from `-artifact FILE` with near-zero cold
// start.
//
//	costar compile -lang python -o python.csar       # warm on a synthetic corpus
//	costar compile -lang json -warm 12 -o json.csar  # more warm files
//	costar compile -g4 calc.g4 -o calc.csar a.txt    # warm on your own inputs
//	costar compile -bnf g.bnf -cold -o g.csar        # tables + certificate only
//
// The warm corpus shapes the snapshot, not correctness: an artifact warmed
// on any corpus parses every input the grammar accepts; unwarmed decision
// points simply fill in at run time as usual. Compilation certifies the
// grammar when the static verifier finds it clean, so artifact loads start
// in certified mode; a grammar with warnings still compiles, uncertified.

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"costar"
	"costar/internal/grammarlint"
	"costar/internal/languages"
)

// runCompile implements the compile subcommand over args (everything after
// "compile"); the returned value is the process exit code.
func runCompile(args []string) int {
	fs := flag.NewFlagSet("costar compile", flag.ExitOnError)
	var (
		langName = fs.String("lang", "", "built-in language: "+strings.Join(languages.Names(), ", "))
		g4Path   = fs.String("g4", "", "path to an ANTLR-style .g4 grammar")
		bnfPath  = fs.String("bnf", "", "path to a BNF grammar file")
		out      = fs.String("o", "", "output artifact path (default <name>.csar)")
		warm     = fs.Int("warm", 8, "synthetic warm-corpus files for built-in languages")
		warmMax  = fs.Int("warm-max", 4000, "largest synthetic warm file, in tokens")
		cold     = fs.Bool("cold", false, "skip warming (tables and certificate only)")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: costar compile (-lang NAME | -g4 FILE | -bnf FILE) [-o OUT] [-warm N] [-cold] [corpus files...]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if err := compile(*langName, *g4Path, *bnfPath, *out, *warm, *warmMax, *cold, fs.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "costar compile:", err)
		return 1
	}
	return 0
}

func compile(langName, g4Path, bnfPath, out string, warm, warmMax int, cold bool, corpus []string) error {
	// Resolve the grammar, the artifact name, the lexer source to embed,
	// and the pull used both for warming and by later -artifact runs.
	fe, err := languages.Open(langName, g4Path, bnfPath)
	if err != nil {
		return err
	}
	g := fe.Grammar

	// Certify when clean, so the artifact carries the certificate and
	// -artifact sessions start certified. Not clean is not fatal — the
	// artifact is simply uncertified, like a plain NewParser session.
	if rep := costar.Vet(g); rep.Clean() {
		if _, err := grammarlint.Issue(rep); err != nil {
			return fmt.Errorf("certification failed on a clean grammar: %v", err)
		}
	} else {
		fmt.Fprintf(os.Stderr, "costar compile: grammar has findings (run `costar vet`); artifact will be uncertified\n")
	}

	p, err := costar.NewParser(g, costar.Options{})
	if err != nil {
		return err
	}
	parse := func(r io.Reader) costar.Result {
		return p.ParseInput(context.Background(), costar.Input{Pull: fe.Pull(r)})
	}

	// Warm the DFA cache: user-supplied corpus files first; for built-in
	// languages with no files, a deterministic synthetic corpus (log-spaced
	// sizes, like the benchmark harness).
	warmed := 0
	if !cold {
		for _, path := range corpus {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			res := parse(f)
			f.Close()
			if res.Kind != costar.Unique && res.Kind != costar.Ambig {
				return fmt.Errorf("warm corpus %s did not parse: %s", path, failure(res))
			}
			warmed++
		}
		if len(corpus) == 0 && fe.Generate != nil {
			for i := 0; i < warm; i++ {
				frac := float64(i) / math.Max(float64(warm-1), 1)
				target := 200 * math.Pow(float64(warmMax)/200, frac)
				src := fe.Generate(int64(i)+1, int(target))
				res := parse(strings.NewReader(src))
				if res.Kind != costar.Unique {
					return fmt.Errorf("synthetic warm corpus (seed %d) did not parse: %s", i+1, failure(res))
				}
				warmed++
			}
		}
	}

	a, err := p.ExportArtifact(fe.Name, fe.LexerG4)
	if err != nil {
		return err
	}
	data := costar.EncodeArtifact(a)
	if out == "" {
		out = fe.Name + ".csar"
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}

	starts, states := p.CacheSize()
	cert := "uncertified"
	if p.Certified() {
		cert = "certified"
	}
	fmt.Printf("%s: %d bytes, fingerprint %016x, %s, %d DFA states / %d frames / %d starts (warmed on %d files)\n",
		out, len(data), a.Fingerprint, cert, states, len(a.Cache.Frames), starts, warmed)
	return nil
}

// failure renders why a warm parse did not succeed.
func failure(res costar.Result) string {
	if res.Kind == costar.Reject {
		return "rejected: " + res.Reason
	}
	return fmt.Sprintf("%v: %v", res.Kind, res.Err)
}
