package main

// Smoke tests for the benchmark itself, on tiny inputs (-quick): every
// metric BENCHMARK.json names is emitted with its unit, a planted wrong
// reference verdict fails the run, and another seed changes the inputs but
// not the set of metric names.

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runQuick runs one tiny benchmark run and parses its result line.
func runQuick(t *testing.T, workload string, seed int64, trace int, extra ...string) (int, result) {
	t.Helper()
	args := append([]string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", "0.3",
		"-trace", strconv.Itoa(trace), "-quick", "-record-dir", t.TempDir()}, extra...)
	var out, errs bytes.Buffer
	code := run(args, &out, &errs)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: no result line (exit %d): %v\nstdout:\n%s\nstderr:\n%s", workload, code, err, out.String(), errs.String())
	}
	return code, r
}

func TestEveryMetricEmittedWithItsUnit(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range bj.Workloads {
		for trace, defs := range [][]metricSpec{bj.EndToEnd, bj.PerLayer} {
			code, r := runQuick(t, w.Name, 1, trace)
			if code != 0 || !r.Correct || r.Attempted < 1 {
				t.Errorf("%s trace %d: exit %d, correct %v, attempted %d", w.Name, trace, code, r.Correct, r.Attempted)
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics emitted, BENCHMARK.json names %d", w.Name, trace, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := r.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: metric %s not emitted", w.Name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace %d: metric %s in %q, BENCHMARK.json says %q", w.Name, trace, d.Name, m.Unit, d.Unit)
				case trace == 0 && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, d.Name, m.Value)
				}
			}
		}
	}
}

func TestPlantedWrongReferenceFailsTheRun(t *testing.T) {
	for _, w := range []string{"json-stream", "serve-mixed"} {
		code, r := runQuick(t, w, 1, 0, "-plant-wrong-reference")
		if code != 1 || r.Correct || r.Failed == 0 {
			t.Errorf("%s: planted wrong verdict gave exit %d, correct %v, failed %d; want exit 1, incorrect", w, code, r.Correct, r.Failed)
		}
	}
}

func TestSeedChangesInputsNotMetricNames(t *testing.T) {
	texts := func(seed int64) string {
		docs, err := genDocs(jsonLang, rand.New(rand.NewSource(seed)), "doc", 3, 50, 200, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, d := range docs {
			b.WriteString(d.text)
		}
		return b.String()
	}
	if texts(1) != texts(1) {
		t.Error("the same seed generated different inputs")
	}
	if texts(1) == texts(2) {
		t.Error("seeds 1 and 2 generated the same inputs")
	}
	names := func(seed int64) string {
		_, r := runQuick(t, "python-stream", seed, 0)
		var ns []string
		for n := range r.Metrics {
			ns = append(ns, n)
		}
		sort.Strings(ns)
		return strings.Join(ns, ",")
	}
	if a, b := names(1), names(2); a != b {
		t.Errorf("metric names differ between seeds:\n%s\n%s", a, b)
	}
}
