package main

// costar serve: the hardened parse daemon (see internal/serve). Boots a
// registry of pre-warmed sessions from built-in languages and/or compiled
// artifacts, serves parse requests over HTTP with admission control,
// per-request deadline budgets, bounded bodies, and graceful drain on
// SIGTERM/SIGINT (exit 0 on a clean drain).
//
// Usage:
//
//	costar serve -lang json
//	costar serve -lang json,python -addr :8143
//	costar serve -artifact json.cart -artifact mylang.cart
//
// Endpoints:
//
//	POST /parse/{grammar}[?budget_ms=N][&recover=1][&tree=1]
//	GET  /healthz  /readyz  /metrics  /grammars

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"costar/internal/languages"
	"costar/internal/parser"
	"costar/internal/serve"
)

// stringList is a repeatable string flag (-artifact a.cart -artifact b.cart).
type stringList []string

func (l *stringList) String() string     { return strings.Join(*l, ",") }
func (l *stringList) Set(v string) error { *l = append(*l, v); return nil }

func runServe(args []string) int {
	fs := flag.NewFlagSet("costar serve", flag.ExitOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:8143", "listen address (host:port; port 0 picks a free port)")
		langs     = fs.String("lang", "", "comma-separated built-in languages to serve: "+strings.Join(languages.Names(), ", "))
		artifacts stringList
		maxBody   = fs.Int64("max-body", 8<<20, "request body size bound in bytes (over it: typed 413 shed)")
		budget    = fs.Duration("budget", 2*time.Second, "default per-request deadline budget")
		maxBudget = fs.Duration("max-budget", 30*time.Second, "largest deadline a caller may request via ?budget_ms")
		drain     = fs.Duration("drain-timeout", 10*time.Second, "graceful-drain bound before in-flight parses are canceled")
		maxCost   = fs.Int64("max-cost", 0, "admission gate capacity in cost units (~tokens; 0 derives from limits)")
		maxQueue  = fs.Int("max-queue", 64, "admission waiters beyond capacity before immediate shed")
		maxSteps  = fs.Int("max-steps", 0, "per-parse machine step limit (0 = unlimited)")
		maxTokens = fs.Int("max-tokens", 0, "per-parse token limit (0 = unlimited); also sizes the admission gate")
	)
	fs.Var(&artifacts, "artifact", "ahead-of-time artifact to serve (repeatable; see `costar compile`)")
	fs.Parse(args)

	limits := parser.Limits{MaxSteps: *maxSteps, MaxTokens: *maxTokens}
	popts := parser.Options{Recover: true, Limits: limits}
	reg := serve.NewRegistry()
	for _, name := range strings.Split(*langs, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		if _, err := reg.AddLanguage(name, popts); err != nil {
			fmt.Fprintln(os.Stderr, "costar serve:", err)
			return exitUsage
		}
		fmt.Fprintf(os.Stderr, "costar serve: session %q ready (built-in, warmed)\n", name)
	}
	for _, path := range artifacts {
		sess, err := reg.AddArtifactFile(path, popts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "costar serve:", err)
			return exitUsage
		}
		fmt.Fprintf(os.Stderr, "costar serve: session %q ready (artifact %s, warm cache)\n", sess.Name(), path)
	}
	if len(reg.Sessions()) == 0 {
		fmt.Fprintln(os.Stderr, "costar serve: nothing to serve (pass -lang and/or -artifact)")
		return exitUsage
	}

	s := serve.New(serve.Config{
		Addr:          *addr,
		MaxBodyBytes:  *maxBody,
		DefaultBudget: *budget,
		MaxBudget:     *maxBudget,
		DrainTimeout:  *drain,
		MaxCost:       *maxCost,
		MaxQueue:      *maxQueue,
		Limits:        limits,
	}, reg)
	if err := s.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "costar serve:", err)
		return exitUsage
	}
	fmt.Fprintf(os.Stderr, "costar serve: listening on http://%s (SIGTERM drains gracefully)\n", s.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
		fmt.Fprintln(os.Stderr, "costar serve: draining (in-flight parses finish; new requests get typed 503)")
	case err := <-s.ServeFailed():
		fmt.Fprintln(os.Stderr, "costar serve:", err)
		return exitError
	}
	if err := s.Drain(); err != nil {
		fmt.Fprintln(os.Stderr, "costar serve: drain:", err)
		return exitError
	}
	fmt.Fprintln(os.Stderr, "costar serve: drained cleanly")
	return exitOK
}
