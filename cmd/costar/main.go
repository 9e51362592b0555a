// Command costar parses input with the CoStar ALL(*) engine.
//
// Usage:
//
//	costar -lang json file.json           # built-in benchmark language
//	costar -lang json -j 4 a.json b.json  # batch-parse many files in parallel
//	costar -g4 mygrammar.g4 input.txt     # ANTLR-style grammar + lexer
//	costar -bnf grammar.bnf -tokens "a b d"  # BNF grammar, input given inline
//	costar vet grammar.bnf                # statically verify a grammar (see vet.go)
//
// Inputs stream: each file (or stdin) is lexed and parsed incrementally
// through a demand-driven token cursor, so memory stays bounded by the
// parser's lookahead window rather than the input size. Multiple input
// files share one parser session — and therefore one SLL DFA cache — and
// are parsed by a worker pool (-j); files are opened only when a worker
// picks them up.
//
// Flags:
//
//	-tokens T   parse the text T instead of stdin or files, read like a file
//	            of the grammar's input (for -bnf: space-separated terminals)
//	-j N        parse input files on N workers (0 = one per CPU)
//	-tree       print the parse tree (s-expression)
//	-pretty     print the parse tree (indented)
//	-stats      print prediction statistics and resource usage
//	-check      enable machine invariant checking
//	-timeout D  abandon the whole batch after duration D (e.g. 500ms, 2s);
//	            timed-out parses report a structured deadline error
//	-max-steps N abort any single parse after N machine transitions
//	-recover    keep parsing past syntax errors: rejected inputs come back
//	            as partial trees with one positioned diagnostic per repair
//	-format F   output format: text (default) or json (one object per input)
//
// Exit codes distinguish failure shapes, stable with or without -recover:
//
//	0  every input parsed cleanly (Unique or Ambig)
//	1  some input was rejected, or recovered with syntax errors (-recover)
//	2  some parse failed with an engine error (lexing, limits, I/O mid-parse)
//	3  usage or setup error (bad flags, unreadable grammar, bad artifact)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"costar"
	"costar/internal/grammarlint"
	"costar/internal/gviz"
	"costar/internal/languages"
)

func main() {
	// Subcommand dispatch before flag parsing: `costar vet ...` runs the
	// static grammar verifier, `costar compile ...` builds an ahead-of-time
	// artifact (see compile.go); everything else is a parse.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "vet":
			os.Exit(runVet(os.Args[2:]))
		case "compile":
			os.Exit(runCompile(os.Args[2:]))
		case "serve":
			os.Exit(runServe(os.Args[2:]))
		}
	}
	var (
		langName = flag.String("lang", "", "built-in language: "+strings.Join(languages.Names(), ", "))
		g4Path   = flag.String("g4", "", "path to an ANTLR-style .g4 grammar")
		bnfPath  = flag.String("bnf", "", "path to a BNF grammar file")
		artPath  = flag.String("artifact", "", "path to an ahead-of-time artifact (see `costar compile`)")
		tokens   = flag.String("tokens", "", "input text to parse instead of stdin or files (-bnf and lexer-less artifacts: space-separated terminal names)")
		workers  = flag.Int("j", 1, "worker goroutines for multiple input files (0 = one per CPU)")
		showTree = flag.Bool("tree", false, "print the parse tree as an s-expression")
		pretty   = flag.Bool("pretty", false, "print the parse tree indented")
		stats    = flag.Bool("stats", false, "print prediction statistics and resource usage")
		check    = flag.Bool("check", false, "check machine invariants on every step")
		dot      = flag.Bool("dot", false, "print the parse tree as a Graphviz DOT document")
		timeout  = flag.Duration("timeout", 0, "abandon the batch after this duration (0 = no deadline)")
		maxSteps = flag.Int("max-steps", 0, "abort any single parse after this many machine steps (0 = unlimited)")
		recov    = flag.Bool("recover", false, "recover from syntax errors: partial tree + positioned diagnostics")
		format   = flag.String("format", "text", "output format: text or json")
	)
	flag.Parse()
	opts := cliOptions{
		workers: *workers, showTree: *showTree, pretty: *pretty,
		stats: *stats, check: *check, dot: *dot,
		timeout: *timeout, maxSteps: *maxSteps,
		recover: *recov, format: *format,
	}
	if err := run(*langName, *g4Path, *bnfPath, *artPath, *tokens, opts, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "costar:", err)
		os.Exit(exitCodeFor(err))
	}
}

// Exit codes (see the package comment).
const (
	exitOK     = 0 // clean Accept on every input
	exitReject = 1 // rejected, or recovered with syntax errors
	exitError  = 2 // engine error: lexing failure, limits, I/O mid-parse
	exitUsage  = 3 // bad flags, unreadable grammar, bad artifact
)

// exitError carries the process exit code alongside the message; run wraps
// parse failures in one so main can distinguish Reject from engine errors
// from usage mistakes. Anything unwrapped is a setup problem: exitUsage.
type exitCodeError struct {
	code int
	err  error
}

func (e *exitCodeError) Error() string { return e.err.Error() }
func (e *exitCodeError) Unwrap() error { return e.err }

func exitCodeFor(err error) int {
	var ec *exitCodeError
	if errors.As(err, &ec) {
		return ec.code
	}
	return exitUsage
}

// cliOptions carries the output/behaviour flags.
type cliOptions struct {
	workers                             int
	showTree, pretty, stats, check, dot bool
	timeout                             time.Duration
	maxSteps                            int
	recover                             bool
	format                              string
}

func run(langName, g4Path, bnfPath, artPath, tokens string, opts cliOptions, args []string) error {
	if opts.format != "" && opts.format != "text" && opts.format != "json" {
		return fmt.Errorf("unknown -format %q (want text or json)", opts.format)
	}
	popts := costar.Options{
		CheckInvariants: opts.check,
		Recover:         opts.recover,
		Limits:          costar.Limits{MaxSteps: opts.maxSteps},
	}
	var (
		p      *costar.Parser
		inputs []input
	)
	if artPath != "" {
		if langName != "" || g4Path != "" || bnfPath != "" {
			return fmt.Errorf("-artifact replaces -lang/-g4/-bnf (the grammar is in the artifact)")
		}
		var err error
		p, inputs, err = loadArtifact(artPath, tokens, popts, args)
		if err != nil {
			return err
		}
	} else {
		g, ins, err := loadInputs(langName, g4Path, bnfPath, tokens, args)
		if err != nil {
			return err
		}
		p, err = costar.NewParser(g, popts)
		if err != nil {
			return err
		}
		inputs = ins
	}
	// A certified session's certificate already rules left recursion out.
	if !p.Certified() {
		if lr := grammarlint.LeftRecursion(p.Grammar()); len(lr) > 0 {
			names := make([]string, len(lr))
			for i, d := range lr {
				names[i] = d.NT
			}
			fmt.Fprintf(os.Stderr, "warning: grammar is left-recursive in %v; parsing will report an error\n", names)
		}
	}
	ctx := context.Background()
	if opts.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.timeout)
		defer cancel()
	}
	results := p.ParseInputs(ctx, len(inputs), func(i int) (costar.Input, func(), error) {
		return inputs[i].open()
	}, opts.workers)
	var firstErr error
	worst := exitOK
	// note records a failing input: the first failure becomes the returned
	// error (main prints it and exits with the worst code seen), the rest go
	// straight to stderr so no result is silently dropped.
	note := func(code int, err error) {
		if code > worst {
			worst = code
		}
		if firstErr == nil {
			firstErr = err
		} else {
			fmt.Fprintln(os.Stderr, "costar:", err)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	for i, res := range results {
		prefix := ""
		if len(inputs) > 1 {
			prefix = inputs[i].name + ": "
		}
		if opts.format == "json" {
			if err := enc.Encode(jsonOutput(inputs[i].name, res, opts)); err != nil {
				return err
			}
			switch res.Kind {
			case costar.Reject:
				note(exitReject, fmt.Errorf("%sinput rejected: %s", prefix, res.Reason))
			case costar.Recovered:
				note(exitReject, fmt.Errorf("%srecovered with %d syntax error(s)", prefix, len(res.Diags)))
			case costar.Error:
				note(exitError, fmt.Errorf("%sparse error: %v", prefix, res.Err))
			}
			continue
		}
		switch res.Kind {
		case costar.Unique:
			fmt.Printf("%sUnique parse: %d tokens, %d machine steps\n", prefix, res.Consumed, res.Steps)
		case costar.Ambig:
			fmt.Printf("%sAMBIGUOUS input: returning one of several parse trees (%d tokens)\n", prefix, res.Consumed)
		case costar.Recovered:
			fmt.Printf("%sRecovered parse: %d tokens, %d syntax error(s)\n", prefix, res.Consumed, len(res.Diags))
			for _, d := range res.Diags {
				fmt.Fprintf(os.Stderr, "costar: %s%s\n", prefix, d)
			}
			note(exitReject, fmt.Errorf("%srecovered with %d syntax error(s)", prefix, len(res.Diags)))
		case costar.Reject:
			note(exitReject, fmt.Errorf("%sinput rejected: %s", prefix, res.Reason))
			continue
		default:
			note(exitError, fmt.Errorf("%sparse error: %v", prefix, res.Err))
			continue
		}
		if opts.showTree {
			fmt.Println(res.Tree)
		}
		if opts.pretty {
			fmt.Print(res.Tree.Pretty())
		}
		if opts.dot {
			fmt.Print(gviz.TreeDOT(res.Tree))
		}
		if opts.stats {
			s := res.Stats
			fmt.Printf("%sprediction: %d SLL decisions, %d LL fallbacks, %d trivial, cache %d hits / %d misses, max lookahead %d (%s), %d budget exhaustions\n",
				prefix, s.SLLCalls, s.LLFallbacks, s.TrivialCalls, s.CacheHits, s.CacheMisses, s.MaxLookahead, s.MaxLookaheadNT, s.BudgetExhaustions)
			fmt.Printf("%susage: %s\n", prefix, res.Usage)
		}
	}
	if firstErr != nil {
		return &exitCodeError{code: worst, err: firstErr}
	}
	return nil
}

// resultJSON is the -format json output: one object per input, diagnostics
// in the unified positioned form (sorted), the tree as an s-expression when
// a tree flag is on. Error nodes render with a '!' marker, so recovered
// spans are visible in the JSON too.
type resultJSON struct {
	Name        string              `json:"name"`
	Kind        string              `json:"kind"`
	Tokens      int                 `json:"tokens"`
	Steps       int                 `json:"steps"`
	Reason      string              `json:"reason,omitempty"`
	Error       string              `json:"error,omitempty"`
	Diagnostics []costar.Diagnostic `json:"diagnostics,omitempty"`
	Tree        string              `json:"tree,omitempty"`
}

func jsonOutput(name string, res costar.Result, opts cliOptions) resultJSON {
	out := resultJSON{
		Name:        name,
		Kind:        res.Kind.String(),
		Tokens:      res.Consumed,
		Steps:       res.Steps,
		Reason:      res.Reason,
		Diagnostics: res.Diags,
	}
	if res.Err != nil {
		out.Error = res.Err.Error()
	}
	if res.Tree != nil && (opts.showTree || opts.pretty || opts.dot) {
		out.Tree = res.Tree.String()
	}
	return out
}

// input is one parse input: a display name plus a deferred open — the file
// is not touched (and nothing is lexed) until a worker starts parsing it.
// open returns the input's token stream and a cleanup to run after the
// parse (nil when there is nothing to release).
type input struct {
	name string
	open func() (costar.Input, func(), error)
}

// loadInputs resolves the grammar named by -lang, -g4 or -bnf and builds
// its inputs (see frontendInputs). Lexing errors surface later, as Error
// results of the parse that pulled the offending bytes.
func loadInputs(langName, g4Path, bnfPath, tokens string, args []string) (*costar.Grammar, []input, error) {
	fe, err := languages.Open(langName, g4Path, bnfPath)
	if err != nil {
		return nil, nil, err
	}
	inputs, err := frontendInputs(fe, tokens, args)
	return fe.Grammar, inputs, err
}

// loadArtifact builds a session from an ahead-of-time artifact (skipping
// grammar compilation and cache warm-up — the load verifies what it skips;
// see `costar compile`) and its inputs, which become tokens as
// languages.FromArtifact decides.
func loadArtifact(path, tokens string, popts costar.Options, args []string) (*costar.Parser, []input, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	a, err := costar.DecodeArtifact(data)
	if err != nil {
		return nil, nil, err
	}
	p, err := costar.NewParserFromArtifact(a, popts)
	if err != nil {
		return nil, nil, err
	}
	fe, err := languages.FromArtifact(a, p.Grammar())
	if err != nil {
		return nil, nil, err
	}
	inputs, err := frontendInputs(fe, tokens, args)
	return p, inputs, err
}

// frontendInputs builds a deferred-open input per file argument (stdin when
// there is none), or a single input over the -tokens text; each is read
// through fe. -tokens with file arguments is a usage error.
func frontendInputs(fe *languages.Frontend, tokens string, args []string) ([]input, error) {
	if tokens != "" {
		if len(args) > 0 {
			return nil, fmt.Errorf("-tokens replaces file arguments (got %d)", len(args))
		}
		return []input{{
			name: "<tokens>",
			open: func() (costar.Input, func(), error) {
				return costar.Input{Pull: fe.Pull(strings.NewReader(tokens))}, nil, nil
			},
		}}, nil
	}
	if len(args) == 0 {
		return []input{{
			name: "<stdin>",
			open: func() (costar.Input, func(), error) {
				return costar.Input{Pull: fe.Pull(os.Stdin)}, nil, nil
			},
		}}, nil
	}
	inputs := make([]input, len(args))
	for i, path := range args {
		path := path
		inputs[i] = input{
			name: path,
			open: func() (costar.Input, func(), error) {
				f, err := os.Open(path)
				if err != nil {
					return costar.Input{}, nil, err
				}
				return costar.Input{Pull: fe.Pull(f)}, func() { f.Close() }, nil
			},
		}
	}
	return inputs, nil
}
