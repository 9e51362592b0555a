package bench

// Parallel batch-parse scaling: the experiment behind the concurrent
// session API. One Parser session is shared by N workers over a corpus of
// files; because the SLL DFA cache is concurrent and content-addressed,
// every worker benefits from states any other worker already forced. The
// report compares shared-cache scaling against a per-worker-cache baseline
// (each worker owns a private session, i.e. N independent sequential
// parsers), which is what a caller had to build before sessions were safe
// for concurrent use.

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"

	"costar/internal/grammar"
	"costar/internal/machine"
	"costar/internal/parser"
)

// ParallelRow is one (language, workers) measurement.
type ParallelRow struct {
	Benchmark string
	Workers   int
	// SharedSeconds: wall time for one warm ParseInputs pass over the corpus
	// with a single shared session.
	SharedSeconds float64
	// PerWorkerSeconds: wall time with one private warm session per worker
	// (round-robin file assignment).
	PerWorkerSeconds float64
	// SharedTokensPerSec / PerWorkerTokensPerSec: corpus tokens / wall time.
	SharedTokensPerSec    float64
	PerWorkerTokensPerSec float64
	// SharedSpeedup: shared-cache throughput at this worker count relative
	// to the same configuration at 1 worker.
	SharedSpeedup float64
}

// ParallelReport is the full scaling experiment.
type ParallelReport struct {
	GOMAXPROCS   int
	WorkerCounts []int
	Rows         []ParallelRow
}

// ParallelScaling measures warm-cache batch-parse throughput for each
// language at each worker count. Caches are warmed with one full pass
// before timing, so the measurement isolates parse throughput (the Figure
// 11 "warmed" configuration, spent on parallelism).
func ParallelScaling(cfg Config, workerCounts []int, langNames ...string) (*ParallelReport, error) {
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 2, 4, 8}
	}
	rep := &ParallelReport{GOMAXPROCS: runtime.GOMAXPROCS(0), WorkerCounts: workerCounts}
	for _, l := range Languages() {
		if len(langNames) > 0 && !contains(langNames, l.Name) {
			continue
		}
		files, err := Corpus(l, cfg)
		if err != nil {
			return nil, err
		}
		words := make([][]grammar.Token, len(files))
		tokens := 0
		for i, f := range files {
			words[i] = f.Tokens
			tokens += len(f.Tokens)
		}
		var base float64
		for _, workers := range workerCounts {
			shared := parser.MustNew(l.Grammar, parser.Options{})
			checkBatch(l, files, parseAll(shared, words, workers)) // warm
			sharedT, _ := timeIt(cfg.Trials, func() {
				checkBatch(l, files, parseAll(shared, words, workers))
			})

			sessions := warmSessions(l, words, workers)
			perWorkerT, _ := timeIt(cfg.Trials, func() {
				runPerWorker(l, files, words, sessions)
			})

			row := ParallelRow{
				Benchmark:             l.Name,
				Workers:               workers,
				SharedSeconds:         sharedT.Seconds(),
				PerWorkerSeconds:      perWorkerT.Seconds(),
				SharedTokensPerSec:    float64(tokens) / sharedT.Seconds(),
				PerWorkerTokensPerSec: float64(tokens) / perWorkerT.Seconds(),
			}
			if base == 0 {
				base = row.SharedTokensPerSec
			}
			row.SharedSpeedup = row.SharedTokensPerSec / base
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, nil
}

// warmSessions builds one session per worker and warms each on its own
// round-robin share of the corpus (the pre-concurrency workaround).
func warmSessions(l Lang, words [][]grammar.Token, workers int) []*parser.Parser {
	sessions := make([]*parser.Parser, workers)
	for k := range sessions {
		sessions[k] = parser.MustNew(l.Grammar, parser.Options{})
		for i := k; i < len(words); i += workers {
			sessions[k].Parse(words[i])
		}
	}
	return sessions
}

// runPerWorker parses the corpus with one private session per worker,
// round-robin, mirroring ParseInputs' pool shape without the shared cache.
func runPerWorker(l Lang, files []File, words [][]grammar.Token, sessions []*parser.Parser) {
	var wg sync.WaitGroup
	for k := range sessions {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(words); i += len(sessions) {
				res := sessions[k].Parse(words[i])
				mustUnique(res.Kind, l.Name, files[i].Seed, res.Reason)
			}
		}(k)
	}
	wg.Wait()
}

// parseAll parses every word on the session's shared-cache worker pool.
func parseAll(p *parser.Parser, words [][]grammar.Token, workers int) []parser.Result {
	return p.ParseInputs(context.Background(), len(words), func(i int) (parser.Input, func(), error) {
		return parser.Input{Tokens: words[i]}, nil, nil
	}, workers)
}

func checkBatch(l Lang, files []File, results []parser.Result) {
	for i, r := range results {
		if r.Kind != machine.Unique {
			mustUnique(r.Kind, l.Name, files[i].Seed, r.Reason)
		}
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// PrintParallel renders the scaling table.
func PrintParallel(w io.Writer, r *ParallelReport) {
	fmt.Fprintf(w, "Parallel batch parsing: warm shared-cache session vs per-worker sessions (GOMAXPROCS=%d)\n", r.GOMAXPROCS)
	fmt.Fprintf(w, "%-10s %8s %14s %14s %16s %16s %9s\n",
		"Benchmark", "workers", "shared (s)", "private (s)", "shared tok/s", "private tok/s", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10s %8d %14.4f %14.4f %16.0f %16.0f %8.2fx\n",
			row.Benchmark, row.Workers, row.SharedSeconds, row.PerWorkerSeconds,
			row.SharedTokensPerSec, row.PerWorkerTokensPerSec, row.SharedSpeedup)
	}
	fmt.Fprintf(w, "\nspeedup is shared-cache throughput relative to the 1-worker shared run of the same language;\n")
	fmt.Fprintf(w, "on a single-core host it stays ~1x — the experiment needs GOMAXPROCS > 1 to show scaling.\n")
}
