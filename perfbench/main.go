// Command perfbench is CoStar's benchmark: one command that generates seeded
// inputs, runs one of four workloads, checks every verdict against an
// independent reference, and prints the workload's metrics by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a traced
// run reports the per-layer ones. Run it through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload json-stream --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and what they should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	recordDir  string
	quick      bool
	plantWrong bool
}

// bench is the state of one run.
type bench struct {
	opt       options
	rng       *rand.Rand
	tr        *tracer // nil unless traced
	metrics   map[string]metric
	extra     map[string]metric // recorded, not printed in the result line
	attempted int
	failed    int // operations that failed: wrong verdicts, errors, refusals
	wrongs    int // wrong verdicts; any makes the run incorrect
	problems  []string
}

var workloads = map[string]func(*bench) error{
	"json-stream":   func(b *bench) error { return runStream(b, streamSpecs["json-stream"]) },
	"python-stream": func(b *bench) error { return runStream(b, streamSpecs["python-stream"]) },
	"python-cold":   func(b *bench) error { return runStream(b, streamSpecs["python-cold"]) },
	"serve-mixed":   runServe,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one benchmark run and returns the exit code: 0 on a correct
// run, 1 when a verdict was wrong (the result line is still printed), 2
// when the run could not complete (no result line).
func run(args []string, stdout, stderr io.Writer) int {
	var opt options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&opt.seed, "seed", 1, "input seed")
	fs.Float64Var(&opt.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	fs.StringVar(&opt.recordDir, "record-dir", "", "directory for the run record and spans (none if empty)")
	fs.BoolVar(&opt.quick, "quick", false, "tiny inputs, for the smoke tests")
	fs.BoolVar(&opt.plantWrong, "plant-wrong-reference", false, "flip one reference verdict, to test that the oracle fails the run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = trace == 1
	w, ok := workloads[opt.workload]
	if !ok || fs.NArg() > 0 || opt.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: usage: -workload {%s} -seed N -seconds S -trace {0,1}\n", strings.Join(workloadNames(), ","))
		return 2
	}
	b := &bench{
		opt:     opt,
		rng:     rand.New(rand.NewSource(opt.seed)),
		metrics: make(map[string]metric),
		extra:   make(map[string]metric),
	}
	if opt.trace {
		b.tr = newTracer()
	}
	if err := w(b); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	for _, d := range defs {
		if _, ok := b.metrics[d.name]; !ok {
			if !opt.trace {
				fmt.Fprintf(stderr, "perfbench: %s measured no %s\n", opt.workload, d.name)
				return 2
			}
			// A layer this workload does not exercise.
			b.metrics[d.name] = metric{Unit: d.unit, Note: "not exercised by this workload"}
		}
	}
	if err := b.writeRecord(args); err != nil {
		fmt.Fprintln(stderr, "perfbench: writing record:", err)
		return 2
	}
	b.print(stdout, defs)
	if b.wrongs > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// set records a metric, checking its unit against the definition.
func (b *bench) set(name string, m metric) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name && d.unit != m.Unit {
				panic(fmt.Sprintf("perfbench: metric %s recorded in %s, defined in %s", name, m.Unit, d.unit))
			}
		}
	}
	b.metrics[name] = m
}

// setLatency records the median and the tail percentile of per-operation
// latencies (ms) as <prefix>p50_ms and <prefix>p<tail>_ms; the samples go
// into the record with the median.
func (b *bench) setLatency(prefix string, lat []float64, tail int) {
	n := len(lat)
	b.set(prefix+"p50_ms", metric{Unit: "ms", Value: percentile(lat, 50), N: n, Samples: lat})
	b.set(fmt.Sprintf("%sp%d_ms", prefix, tail), metric{Unit: "ms", Value: percentile(lat, float64(tail)), N: n})
	if tail != 99 {
		b.extra[prefix+"p99_ms"] = metric{Unit: "ms", Value: percentile(lat, 99), N: n}
	}
}

// print writes the human-readable summary and, last, the result line.
func (b *bench) print(w io.Writer, defs []metricDef) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v\n", b.opt.workload, b.opt.seed, b.opt.seconds, b.opt.trace)
	out := make(map[string]map[string]any, len(defs))
	for _, d := range defs {
		m := b.metrics[d.name]
		fmt.Fprintf(w, "  %-42s %14.6g %-6s n=%d %s\n", d.name, m.Value, m.Unit, m.N, m.Note)
		out[d.name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	frac := 0.0
	if b.attempted > 0 {
		frac = float64(b.failed) / float64(b.attempted)
	}
	fmt.Fprintf(w, "  %-42s %14.6g        (%d of %d)\n", "failed_frac", frac, b.failed, b.attempted)
	for _, p := range b.problems {
		fmt.Fprintln(w, "  problem:", p)
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   b.wrongs == 0,
		"attempted": max(b.attempted, 1),
		"failed":    b.failed,
		"metrics":   out,
	})
	fmt.Fprintln(w, string(line))
}

// writeRecord writes the run record (and the spans of a traced run) under
// the record directory.
func (b *bench) writeRecord(args []string) error {
	if b.opt.recordDir == "" {
		return nil
	}
	base := filepath.Join(b.opt.recordDir, fmt.Sprintf("%s.seed%d.trace%d", b.opt.workload, b.opt.seed, boolInt(b.opt.trace)))
	rec := record{
		Workload: b.opt.workload, Seed: b.opt.seed, Trace: b.opt.trace, Seconds: b.opt.seconds,
		Command: append([]string{"perfbench"}, args...), Env: hostEnv(),
		Correct: b.wrongs == 0, Attempted: b.attempted, Failed: b.failed, Problems: b.problems,
		Metrics: b.metrics, Extra: b.extra,
	}
	if b.tr != nil {
		rec.Spans = filepath.Base(base) + ".spans.json"
		if err := writeJSON(base+".spans.json", b.tr.snapshot()); err != nil {
			return err
		}
	}
	return writeJSON(base+".json", rec)
}

func boolInt(v bool) int {
	if v {
		return 1
	}
	return 0
}
