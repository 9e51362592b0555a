package main

// The `costar compile` subcommand: build an ahead-of-time artifact — the
// compiled grammar tables, analysis fixpoints, certificate, and an
// offline-warmed SLL DFA cache — so later runs start from `-artifact FILE`
// with near-zero cold start.
//
//	costar compile -lang python -o python.csar       # warm on a synthetic corpus
//	costar compile -lang json -warm 12 -o json.csar  # more warm files
//	costar compile -g4 calc.g4 -o calc.csar a.txt    # warm on your own inputs
//	costar compile -bnf g.bnf -cold -o g.csar        # tables + analysis only
//
// The warm corpus shapes the snapshot, not correctness: an artifact warmed
// on any corpus parses every input the grammar accepts; unwarmed decision
// points simply fill in at run time as usual. Compilation certifies the
// grammar when the static verifier finds it clean, so artifact loads start
// in certified mode; a grammar with warnings still compiles, uncertified.

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"costar"
	"costar/internal/languages/dotlang"
	"costar/internal/languages/jsonlang"
	"costar/internal/languages/langkit"
	"costar/internal/languages/pylang"
	"costar/internal/languages/xmllang"
)

// builtinLanguage resolves a built-in language to its bundle and synthetic
// corpus generator.
func builtinLanguage(name string) (*langkit.Language, func(int64, int) string, error) {
	switch name {
	case "json":
		return jsonlang.Lang, jsonlang.Generate, nil
	case "xml":
		return xmllang.Lang, xmllang.Generate, nil
	case "dot":
		return dotlang.Lang, dotlang.Generate, nil
	case "python":
		return pylang.Lang, pylang.Generate, nil
	}
	return nil, nil, fmt.Errorf("unknown language %q (json, xml, dot, python)", name)
}

// runCompile implements the compile subcommand over args (everything after
// "compile"); the returned value is the process exit code.
func runCompile(args []string) int {
	fs := flag.NewFlagSet("costar compile", flag.ExitOnError)
	var (
		langName = fs.String("lang", "", "built-in language: json, xml, dot, python")
		g4Path   = fs.String("g4", "", "path to an ANTLR-style .g4 grammar")
		bnfPath  = fs.String("bnf", "", "path to a BNF grammar file")
		out      = fs.String("o", "", "output artifact path (default <name>.csar)")
		warm     = fs.Int("warm", 8, "synthetic warm-corpus files for built-in languages")
		warmMax  = fs.Int("warm-max", 4000, "largest synthetic warm file, in tokens")
		cold     = fs.Bool("cold", false, "skip warming (tables, analysis, certificate only)")
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
	// and the cursor used both for warming and by later -artifact runs.
	var (
		name     string
		g        *costar.Grammar
		lexerG4  string
		cursor   func(io.Reader) *costar.TokenSource
		generate func(int64, int) string
	)
	switch {
	case langName != "":
		lang, gen, err := builtinLanguage(langName)
		if err != nil {
			return err
		}
		name, g, lexerG4, generate = langName, lang.Grammar(), lang.Source, gen
		cursor = func(r io.Reader) *costar.TokenSource { return lang.Cursor(r) }
	case g4Path != "":
		src, err := os.ReadFile(g4Path)
		if err != nil {
			return err
		}
		gg, lex, err := costar.LoadG4(string(src))
		if err != nil {
			return err
		}
		name, g, lexerG4 = strings.TrimSuffix(baseName(g4Path), ".g4"), gg, string(src)
		cursor = func(r io.Reader) *costar.TokenSource { return costar.NewTokenSource(gg, lex.Pull(r)) }
	case bnfPath != "":
		src, err := os.ReadFile(bnfPath)
		if err != nil {
			return err
		}
		gg, err := costar.ParseBNF(string(src))
		if err != nil {
			return err
		}
		name, g = strings.TrimSuffix(baseName(bnfPath), ".bnf"), gg
		cursor = func(r io.Reader) *costar.TokenSource { return costar.NewTokenSource(gg, wordPull(r)) }
	default:
		return fmt.Errorf("one of -lang, -g4, -bnf is required (see -h)")
	}

	// Certify when clean, so the artifact carries the certificate and
	// -artifact sessions start certified. Not clean is not fatal — the
	// artifact is simply uncertified, like a plain NewParser session.
	if rep := costar.Vet(g); rep.Clean() {
		if _, _, err := costar.Certify(g); err != nil {
			return fmt.Errorf("certification failed on a clean grammar: %v", err)
		}
	} else {
		fmt.Fprintf(os.Stderr, "costar compile: grammar has findings (run `costar vet`); artifact will be uncertified\n")
	}

	p, err := costar.NewParser(g, costar.Options{})
	if err != nil {
		return err
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
			res := p.ParseSource(cursor(f))
			f.Close()
			if res.Kind != costar.Unique && res.Kind != costar.Ambig {
				return fmt.Errorf("warm corpus %s did not parse: %s", path, failure(res))
			}
			warmed++
		}
		if len(corpus) == 0 && generate != nil {
			for i := 0; i < warm; i++ {
				frac := float64(i) / math.Max(float64(warm-1), 1)
				target := 200 * math.Pow(float64(warmMax)/200, frac)
				src := generate(int64(i)+1, int(target))
				res := p.ParseSource(cursor(strings.NewReader(src)))
				if res.Kind != costar.Unique {
					return fmt.Errorf("synthetic warm corpus (seed %d) did not parse: %s", i+1, failure(res))
				}
				warmed++
			}
		}
	}

	a, err := p.ExportArtifact(name, lexerG4)
	if err != nil {
		return err
	}
	data := costar.EncodeArtifact(a)
	if out == "" {
		out = name + ".csar"
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

// baseName is filepath.Base without pulling in path/filepath for one call.
func baseName(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
