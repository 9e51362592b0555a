package main

// The run record: one format for every run. It carries the environment, the
// command and seed, and every metric with its per-sample values, median and
// quartiles, so a later comparison can recompute any summary it needs.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the user-visible metrics printed with --trace 0. Every
// workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ns_per_token", "ns"},
	{"allocs_per_token", "count"},
	{"bytes_per_token", "B"},
	{"peak_rss_mb", "MB"},
	{"p50_ms", "ms"},
	{"p95_ms", "ms"},
}

// perLayer are the per-layer metrics printed with --trace 1. A layer that a
// workload does not exercise reports 0 (see README.md).
var perLayer = []metricDef{
	{"lexer.ns_per_byte", "ns/B"},
	{"lexer.allocs_per_byte", "count"},
	{"lexer.lexemes_per_token", "count"},
	{"layout.ns_per_token", "ns"},
	{"layout.allocs_per_token", "count"},
	{"source.ns_per_token", "ns"},
	{"source.peak_window", "count"},
	{"stream.overhead_ns_per_token", "ns"},
	{"parse.ns_per_token", "ns"},
	{"parse.allocs_per_token", "count"},
	{"parse.bytes_per_token", "B"},
	{"machine.steps_per_token", "count"},
	{"machine.stack_peak", "count"},
	{"tree.nodes_per_token", "count"},
	{"prediction.sll_calls_per_token", "count"},
	{"prediction.trivial_frac", "ratio"},
	{"prediction.cache_hit_ratio", "ratio"},
	{"prediction.lookahead_per_call", "count"},
	{"prediction.max_lookahead", "count"},
	{"prediction.ll_fallback_ratio", "ratio"},
	{"prediction.cache_misses_per_token", "count"},
	{"prediction.closure_work_per_token", "count"},
	{"prediction.dfa_states", "count"},
	{"prediction.cold_minus_warm_ns_per_token", "ns"},
	{"recover.ns_per_token", "ns"},
	{"recover.repairs_per_file", "count"},
	{"recover.diags_per_file", "count"},
	{"artifact.decode_ms", "ms"},
	{"artifact.realize_ms", "ms"},
	{"artifact.bytes", "B"},
	{"grammar.load_ms", "ms"},
	{"grammar.compile_ms", "ms"},
	{"serve.session_parse_ms", "ms"},
	{"serve.framing_ms", "ms"},
	{"serve.shed_frac", "ratio"},
	{"serve.status_422", "count"},
	{"serve.status_504", "count"},
	{"serve.shed_ledger_delta", "count"},
	{"light.p50_ms", "ms"},
	{"light.p99_ms", "ms"},
	{"heavy.p50_ms", "ms"},
	{"heavy.p99_ms", "ms"},
	{"slo_rps", "1/s"},
	{"gc.cycles_per_mtoken", "count"},
	{"gc.pause_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// metric is one recorded metric: its reported value plus the samples it
// summarizes (empty for a single measurement).
type metric struct {
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	N       int       `json:"n"`
	Q1      float64   `json:"q1"`
	Median  float64   `json:"median"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples,omitempty"`
	Note    string    `json:"note,omitempty"`
}

// summarize builds a metric whose value is the median of samples.
func summarize(unit string, samples []float64) metric {
	q1, med, q3 := quartiles(samples)
	return metric{Unit: unit, Value: med, N: len(samples), Q1: q1, Median: med, Q3: q3, Samples: samples}
}

// single builds a metric from one measurement.
func single(unit string, v float64) metric {
	return metric{Unit: unit, Value: v, N: 1, Q1: v, Median: v, Q3: v}
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first quartile, median and third quartile of xs,
// with the interpolation Python's statistics.quantiles(xs, n=4) uses (its
// default "exclusive" method), so records agree with the acceptance check.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	cut := func(i int) float64 {
		j := i * m / 4
		delta := float64(i*m - j*4)
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), median(s), cut(3)
}

// median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// env describes the host a record was measured on.
type env struct {
	Go         string `json:"go"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
}

func hostEnv() env {
	return env{Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel()}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// resetPeakRSS returns unused heap to the OS and restarts the kernel's
// resident-set high-water mark at the current RSS (clear_refs "5"), so a
// later VmHWM reading covers only the timed phase, not input generation
// and artifact building. It reports whether the reset took effect.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// heap is a snapshot of the runtime's cumulative allocation and GC counters.
type heap struct {
	objects, bytes, gcs uint64
}

var heapSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/automatic:gc-cycles"},
}

// readHeap reads the counters from runtime/metrics. Not safe for concurrent
// use: only the benchmark's driving goroutine calls it.
func readHeap() heap {
	metrics.Read(heapSamples)
	return heap{heapSamples[0].Value.Uint64(), heapSamples[1].Value.Uint64(), heapSamples[2].Value.Uint64()}
}

func (h heap) sub(o heap) heap { return heap{h.objects - o.objects, h.bytes - o.bytes, h.gcs - o.gcs} }

// gcPauses returns the stop-the-world pauses of GC cycles after cycle
// `since`, in milliseconds (at most the runtime's last 256).
func gcPauses(since uint32) (pauses []float64, cycles uint32) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for c := ms.NumGC; c > since && ms.NumGC-c < uint32(len(ms.PauseNs)); c-- {
		pauses = append(pauses, float64(ms.PauseNs[(c+255)%256])/1e6)
	}
	return pauses, ms.NumGC
}

// record is what one run writes to disk.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Command   []string          `json:"command"`
	Env       env               `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Extra     map[string]metric `json:"extra,omitempty"`
	Spans     string            `json:"spans_file,omitempty"`
}

// writeJSON writes v as indented JSON to path, creating its directory.
func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
