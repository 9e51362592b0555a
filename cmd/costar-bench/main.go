// Command costar-bench regenerates the paper's evaluation tables and
// figures (Section 6) on synthetic corpora.
//
// Usage:
//
//	costar-bench -fig all                # everything, quick preset
//	costar-bench -fig 9 -full            # Figure 9 at paper-like scale
//	costar-bench -fig 10 -files 20 -max 30000 -trials 5
//
// The output is textual: the same rows/series the paper plots. Shapes —
// linearity, slowdown factors, the cache warm-up bend — are the claim;
// absolute numbers depend on the machine. Every other performance number
// comes from perfbench (bash perfbench/run.sh) and the wall-clock gates
// from `make perf-gate`.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"costar/internal/bench"
)

func main() {
	var (
		fig        = flag.String("fig", "all", "which figure to regenerate: 8, 9, 10, 11, all")
		full       = flag.Bool("full", false, "paper-scale corpora (slower)")
		files      = flag.Int("files", 0, "files per language (overrides preset)")
		minTok     = flag.Int("min", 0, "smallest file target in tokens")
		maxTok     = flag.Int("max", 0, "largest file target in tokens")
		trials     = flag.Int("trials", 0, "timing trials per data point")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "costar-bench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "costar-bench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "costar-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "costar-bench:", err)
			}
		}()
	}

	cfg := bench.Quick()
	if *full {
		cfg = bench.Full()
	}
	if *files > 0 {
		cfg.Files = *files
	}
	if *minTok > 0 {
		cfg.MinTokens = *minTok
	}
	if *maxTok > 0 {
		cfg.MaxTokens = *maxTok
	}
	if *trials > 0 {
		cfg.Trials = *trials
	}

	if err := run(*fig, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "costar-bench:", err)
		os.Exit(1)
	}
}

func run(fig string, cfg bench.Config) error {
	out := os.Stdout
	want := func(f string) bool { return fig == "all" || fig == f }
	ran := false
	if want("8") {
		ran = true
		rows, err := bench.Fig8(cfg)
		if err != nil {
			return err
		}
		bench.PrintFig8(out, rows)
		fmt.Fprintln(out)
	}
	if want("9") {
		ran = true
		series, err := bench.Fig9(cfg)
		if err != nil {
			return err
		}
		bench.PrintFig9(out, series)
		fmt.Fprintln(out)
	}
	if want("10") {
		ran = true
		rows, err := bench.Fig10(cfg)
		if err != nil {
			return err
		}
		bench.PrintFig10(out, rows)
		fmt.Fprintln(out)
	}
	if want("11") {
		ran = true
		res, err := bench.Fig11(cfg)
		if err != nil {
			return err
		}
		bench.PrintFig11(out, res)
		fmt.Fprintln(out)
	}
	if !ran {
		return fmt.Errorf("unknown figure %q (use 8, 9, 10, 11, all)", fig)
	}
	return nil
}
