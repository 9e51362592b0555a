package costar

// Benchmark suite: one benchmark per paper table/figure (run the printable
// versions with cmd/costar-bench), plus the DESIGN.md §5 ablations and the
// DFA snapshot export.
//
//	go test -bench=. -benchmem
//
// Figure 9  → BenchmarkFig9*   (CoStar parse time per language; ns/token)
// Figure 10 → BenchmarkFig10*  (persistent and in-place engines vs imperative baseline)
// Figure 11 → BenchmarkFig11*  (baseline cold vs warm prediction cache)
// Figure 8 is a static table (BenchmarkFig8Corpus times corpus+lexing).

import (
	"context"
	"fmt"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"

	"costar/internal/allstar"
	"costar/internal/bench"
	"costar/internal/grammar"
	"costar/internal/languages/jsonlang"
	"costar/internal/languages/langkit"
	"costar/internal/languages/pylang"
	"costar/internal/languages/xmllang"
	"costar/internal/machine"
	"costar/internal/parser"
	"costar/internal/prediction"
	"costar/internal/source"
)

// corpusFile returns a ~tokens-sized token word for the named language.
func corpusFile(b *testing.B, name string, tokens int) (bench.Lang, []grammar.Token, string) {
	b.Helper()
	for _, l := range bench.Languages() {
		if l.Name != name {
			continue
		}
		src := l.Generate(42, tokens)
		toks, err := l.Tokenize(src)
		if err != nil {
			b.Fatal(err)
		}
		return l, toks, src
	}
	b.Fatalf("unknown language %s", name)
	panic("unreachable")
}

func reportPerToken(b *testing.B, tokens int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tokens), "ns/token")
}

// ---------------------------------------------------------------------------
// Figure 8: corpus generation + lexing cost
// ---------------------------------------------------------------------------

func BenchmarkFig8Corpus(b *testing.B) {
	for _, l := range bench.Languages() {
		l := l
		b.Run(l.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				src := l.Generate(7, 2000)
				if _, err := l.Tokenize(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Figure 9: CoStar parse time per language (session cache, pre-tokenized)
// ---------------------------------------------------------------------------

func benchFig9(b *testing.B, lang string) {
	l, toks, _ := corpusFile(b, lang, 4000)
	p := parser.MustNew(l.Grammar, parser.Options{})
	p.Parse(toks) // prime analyses
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := p.Parse(toks); res.Kind != machine.Unique {
			b.Fatal(res.Reason)
		}
	}
	reportPerToken(b, len(toks))
}

func BenchmarkFig9JSON(b *testing.B)   { benchFig9(b, "json") }
func BenchmarkFig9XML(b *testing.B)    { benchFig9(b, "xml") }
func BenchmarkFig9DOT(b *testing.B)    { benchFig9(b, "dot") }
func BenchmarkFig9Python(b *testing.B) { benchFig9(b, "python") }

// ---------------------------------------------------------------------------
// Figure 10: persistent and in-place engines vs imperative baseline (and
// the lexer side)
// ---------------------------------------------------------------------------

func benchFig10(b *testing.B, lang string) {
	l, toks, src := corpusFile(b, lang, 4000)
	b.Run("persistent", func(b *testing.B) {
		p := bench.NewPersistent(l.Grammar, false)
		p.Parse(toks)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res := p.Parse(toks); res.Kind != machine.Unique {
				b.Fatal(res.Reason)
			}
		}
		reportPerToken(b, len(toks))
	})
	b.Run("in-place", func(b *testing.B) {
		p := parser.MustNew(l.Grammar, parser.Options{})
		p.Parse(toks)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res := p.Parse(toks); res.Kind != machine.Unique {
				b.Fatal(res.Reason)
			}
		}
		reportPerToken(b, len(toks))
	})
	b.Run("baseline", func(b *testing.B) {
		p := allstar.MustNew(l.Grammar, allstar.Options{})
		p.Parse(toks)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res := p.Parse(toks); res.Kind != machine.Unique {
				b.Fatal(res.Reason)
			}
		}
		reportPerToken(b, len(toks))
	})
	b.Run("lexer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := l.Tokenize(src); err != nil {
				b.Fatal(err)
			}
		}
		reportPerToken(b, len(toks))
	})
}

func BenchmarkFig10JSON(b *testing.B)   { benchFig10(b, "json") }
func BenchmarkFig10XML(b *testing.B)    { benchFig10(b, "xml") }
func BenchmarkFig10DOT(b *testing.B)    { benchFig10(b, "dot") }
func BenchmarkFig10Python(b *testing.B) { benchFig10(b, "python") }

// ---------------------------------------------------------------------------
// Figure 11: baseline prediction-cache warm-up (Python)
// ---------------------------------------------------------------------------

func BenchmarkFig11ColdCache(b *testing.B) {
	l, toks, _ := corpusFile(b, "python", 3000)
	p := allstar.MustNew(l.Grammar, allstar.Options{FreshCachePerParse: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := p.Parse(toks); res.Kind != machine.Unique {
			b.Fatal(res.Reason)
		}
	}
	reportPerToken(b, len(toks))
}

func BenchmarkFig11WarmCache(b *testing.B) {
	l, toks, _ := corpusFile(b, "python", 3000)
	p := allstar.MustNew(l.Grammar, allstar.Options{})
	p.WarmUp(toks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := p.Parse(toks); res.Kind != machine.Unique {
			b.Fatal(res.Reason)
		}
	}
	reportPerToken(b, len(toks))
}

// ---------------------------------------------------------------------------
// DFA snapshot export (DESIGN.md §5g)
// ---------------------------------------------------------------------------

// BenchmarkExportPython times ExportArtifact on the warmed Python DFA whose
// allocation TestAllocGuardExport bounds.
func BenchmarkExportPython(b *testing.B) {
	p := warmPythonExportSession(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.ExportArtifact("python", ""); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5)
// ---------------------------------------------------------------------------

// BenchmarkAblationSLLCache: adaptivePredict with the SLL DFA versus pure
// LL prediction on every decision.
func BenchmarkAblationSLLCache(b *testing.B) {
	l, toks, _ := corpusFile(b, "json", 2500)
	for _, cfg := range []struct {
		name string
		opts parser.Options
	}{
		{"sll+cache", parser.Options{}},
		{"ll-only", parser.Options{DisableSLL: true}},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			p := parser.MustNew(l.Grammar, cfg.opts)
			p.Parse(toks)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := p.Parse(toks); res.Kind != machine.Unique {
					b.Fatal(res.Reason)
				}
			}
			reportPerToken(b, len(toks))
		})
	}
}

// BenchmarkAblationCacheReuse: session cache kept across parses versus a
// fresh cache per parse (the verified engine's Figure 11 analogue; the
// paper notes CoStar could not reuse caches across inputs — the session
// API adds that, and this measures its value).
func BenchmarkAblationCacheReuse(b *testing.B) {
	l, toks, _ := corpusFile(b, "python", 2000)
	for _, cfg := range []struct {
		name string
		opts parser.Options
	}{
		{"reuse", parser.Options{}},
		{"fresh", parser.Options{FreshCachePerParse: true}},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			p := parser.MustNew(l.Grammar, cfg.opts)
			p.Parse(toks)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := p.Parse(toks); res.Kind != machine.Unique {
					b.Fatal(res.Reason)
				}
			}
			reportPerToken(b, len(toks))
		})
	}
}

// BenchmarkAblationInvariants: cost of checking the Figure 4 stack
// well-formedness invariant on every machine step.
func BenchmarkAblationInvariants(b *testing.B) {
	l, toks, _ := corpusFile(b, "json", 1500)
	for _, cfg := range []struct {
		name string
		opts parser.Options
	}{
		{"off", parser.Options{}},
		{"on", parser.Options{CheckInvariants: true}},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			p := parser.MustNew(l.Grammar, cfg.opts)
			p.Parse(toks)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := p.Parse(toks); res.Kind != machine.Unique {
					b.Fatal(res.Reason)
				}
			}
			reportPerToken(b, len(toks))
		})
	}
}

// avlSet is a persistent AVL set of strings, the stand-in for the Coq
// FSets that the verified engine's visited sets used before grammar
// compilation. Only the map ablation below uses it.
type avlSet struct{ root *avlNode }

// avlNode is never mutated after creation; every Add returns a new path.
type avlNode struct {
	key         string
	left, right *avlNode
	height      int8
}

func avlHeight(n *avlNode) int8 {
	if n == nil {
		return 0
	}
	return n.height
}

func avlMk(key string, l, r *avlNode) *avlNode {
	return &avlNode{key: key, left: l, right: r, height: max(avlHeight(l), avlHeight(r)) + 1}
}

// avlBalance builds the node (key, l, r), rotating once or twice when the
// subtrees' heights differ by 2.
func avlBalance(key string, l, r *avlNode) *avlNode {
	switch bf := avlHeight(l) - avlHeight(r); {
	case bf > 1:
		if avlHeight(l.left) >= avlHeight(l.right) {
			return avlMk(l.key, l.left, avlMk(key, l.right, r))
		}
		lr := l.right
		return avlMk(lr.key, avlMk(l.key, l.left, lr.left), avlMk(key, lr.right, r))
	case bf < -1:
		if avlHeight(r.left) <= avlHeight(r.right) {
			return avlMk(r.key, avlMk(key, l, r.left), r.right)
		}
		rl := r.left
		return avlMk(rl.key, avlMk(key, l, rl.left), avlMk(r.key, rl.right, r.right))
	}
	return avlMk(key, l, r)
}

func avlInsert(n *avlNode, key string) *avlNode {
	if n == nil {
		return avlMk(key, nil, nil)
	}
	switch strings.Compare(key, n.key) {
	case -1:
		return avlBalance(n.key, avlInsert(n.left, key), n.right)
	case 1:
		return avlBalance(n.key, n.left, avlInsert(n.right, key))
	}
	return n
}

// Add returns the set with key included.
func (s avlSet) Add(key string) avlSet { return avlSet{avlInsert(s.root, key)} }

// Contains reports membership in O(log n) string compares.
func (s avlSet) Contains(key string) bool {
	for n := s.root; n != nil; {
		switch strings.Compare(key, n.key) {
		case -1:
			n = n.left
		case 1:
			n = n.right
		default:
			return true
		}
	}
	return false
}

// BenchmarkAblationMaps: the Coq-style persistent AVL set over symbol names
// (what the verified engine used for visited sets before grammar
// compilation; Section 6.1 blames its comparisons for Python's slowness)
// versus Go's native hash map versus the dense NTSet bitset the machine now
// uses — the three points of the visited-set ablation.
func BenchmarkAblationMaps(b *testing.B) {
	keys := make([]string, 64)
	ids := make([]grammar.NTID, 64)
	for i := range keys {
		keys[i] = grammar.NT("NT_" + string(rune('A'+i%26)) + string(rune('0'+i/26))).Name
		ids[i] = grammar.NTID(i)
	}
	b.Run("avl", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var s avlSet
			for _, k := range keys {
				s = s.Add(k)
			}
			for _, k := range keys {
				if !s.Contains(k) {
					b.Fatal("missing key")
				}
			}
		}
	})
	b.Run("gomap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := make(map[string]bool, len(keys))
			for _, k := range keys {
				s[k] = true
			}
			for _, k := range keys {
				if !s[k] {
					b.Fatal("missing key")
				}
			}
		}
	})
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var s machine.NTSet
			for _, id := range ids {
				s = s.Add(id)
			}
			for _, id := range ids {
				if !s.Contains(id) {
					b.Fatal("missing key")
				}
			}
		}
	})
}

// BenchmarkAblationStacks: the three Figure 10 engines on identical input,
// warm caches, lexing excluded — the persistent machine (the paper's
// CoStar, a fresh state per step), the parser session (the same
// transitions stepped in place), and the imperative baseline: the "cost of
// the verified style" headline, isolated from prediction differences.
func BenchmarkAblationStacks(b *testing.B) {
	l, toks, _ := corpusFile(b, "dot", 2500)
	b.Run("persistent", func(b *testing.B) {
		p := bench.NewPersistent(l.Grammar, false)
		p.Parse(toks)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Parse(toks)
		}
		reportPerToken(b, len(toks))
	})
	b.Run("in-place", func(b *testing.B) {
		p := parser.MustNew(l.Grammar, parser.Options{})
		p.Parse(toks)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Parse(toks)
		}
		reportPerToken(b, len(toks))
	})
	b.Run("mutable", func(b *testing.B) {
		p := allstar.MustNew(l.Grammar, allstar.Options{})
		p.Parse(toks)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Parse(toks)
		}
		reportPerToken(b, len(toks))
	})
}

// ---------------------------------------------------------------------------
// Parallel batch parsing: one shared session against per-worker sessions
// ---------------------------------------------------------------------------

// BenchmarkParallelWarmCache measures warm-cache batch throughput over the
// JSON corpus at 1/2/4/8 workers, comparing one shared concurrent session
// (one SLL DFA for everyone) against per-goroutine sessions (each worker
// owns and warms a private DFA — the pre-concurrency workaround). Scaling
// requires GOMAXPROCS > 1; the single-threaded shared/j1 case doubles as
// the lock-free-hit-path regression guard vs. the sequential Fig9 numbers.
func BenchmarkParallelWarmCache(b *testing.B) {
	var l bench.Lang
	for _, cand := range bench.Languages() {
		if cand.Name == "json" {
			l = cand
		}
	}
	files, err := bench.Corpus(l, bench.Config{Files: 12, MinTokens: 300, MaxTokens: 2000, Trials: 1})
	if err != nil {
		b.Fatal(err)
	}
	words := make([][]grammar.Token, len(files))
	tokens := 0
	for i, f := range files {
		words[i] = f.Tokens
		tokens += len(f.Tokens)
	}
	checkAll := func(b *testing.B, results []parser.Result) {
		b.Helper()
		for _, r := range results {
			if r.Kind != machine.Unique {
				b.Fatal(r.Reason)
			}
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("shared/j%d", workers), func(b *testing.B) {
			p := parser.MustNew(l.Grammar, parser.Options{})
			checkAll(b, parseWords(context.Background(), p, words, workers)) // warm the shared DFA
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				checkAll(b, parseWords(context.Background(), p, words, workers))
			}
			reportCorpusThroughput(b, tokens)
		})
		b.Run(fmt.Sprintf("pergoroutine/j%d", workers), func(b *testing.B) {
			sessions := make([]*parser.Parser, workers)
			for k := range sessions {
				sessions[k] = parser.MustNew(l.Grammar, parser.Options{})
				for i := k; i < len(words); i += workers {
					sessions[k].Parse(words[i]) // warm each private DFA
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for k := range sessions {
					wg.Add(1)
					go func(k int) {
						defer wg.Done()
						for i := k; i < len(words); i += workers {
							if res := sessions[k].Parse(words[i]); res.Kind != machine.Unique {
								b.Error(res.Reason)
								return
							}
						}
					}(k)
				}
				wg.Wait()
			}
			reportCorpusThroughput(b, tokens)
		})
	}
}

// BenchmarkParallelColdCache measures the DFA write path under concurrency:
// every iteration empties one shared session's cache and parses a Python
// batch into it at 1/2/4 workers, so the workers race to intern new states
// into the same generation. It is the contention guard for Cache.intern:
// throughput at j>1 must not fall below j1 when GOMAXPROCS > 1, and
// lockwait-ns/op (the runtime's total time goroutines spent blocked on any
// sync.Mutex) shows how much of the write path ran one goroutine at a time.
func BenchmarkParallelColdCache(b *testing.B) {
	var l bench.Lang
	for _, cand := range bench.Languages() {
		if cand.Name == "python" {
			l = cand
		}
	}
	files, err := bench.Corpus(l, bench.Config{Files: 8, MinTokens: 300, MaxTokens: 1500, Trials: 1})
	if err != nil {
		b.Fatal(err)
	}
	words := make([][]grammar.Token, len(files))
	tokens := 0
	for i, f := range files {
		words[i] = f.Tokens
		tokens += len(f.Tokens)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shared/j%d", workers), func(b *testing.B) {
			p := parser.MustNew(l.Grammar, parser.Options{})
			wait := []metrics.Sample{{Name: "/sync/mutex/wait/total:seconds"}}
			metrics.Read(wait)
			before := wait[0].Value.Float64()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.ResetCache()
				for _, r := range parseWords(context.Background(), p, words, workers) {
					if r.Kind != machine.Unique {
						b.Fatal(r.Reason)
					}
				}
			}
			b.StopTimer()
			metrics.Read(wait)
			b.ReportMetric((wait[0].Value.Float64()-before)*1e9/float64(b.N), "lockwait-ns/op")
			reportCorpusThroughput(b, tokens)
		})
	}
}

// reportCorpusThroughput reports corpus tokens parsed per second of wall
// time, the parallel benchmarks' scaling figure.
func reportCorpusThroughput(b *testing.B, tokens int) {
	b.ReportMetric(float64(tokens)*float64(b.N)/b.Elapsed().Seconds(), "tokens/s")
	reportPerToken(b, tokens)
}

// ---------------------------------------------------------------------------
// Streaming pipeline: end-to-end reader parsing and window residency
// ---------------------------------------------------------------------------

// BenchmarkStreamingWindow measures the demand-driven pipeline end to end —
// incremental lexing, layout (Python), and cursor-fed parsing from an
// io.Reader — reporting ns/token, allocations, and the peak number of
// tokens the sliding window ever retained (peak-window). The peak must
// track the grammar's lookahead needs, not the input size; the equivalence
// and bounded-window tests enforce that, this benchmark makes it visible.
func BenchmarkStreamingWindow(b *testing.B) {
	langs := []struct {
		name string
		l    *langkit.Language
		gen  func(int64, int) string
	}{
		{"json", jsonlang.Lang, jsonlang.Generate},
		{"xml", xmllang.Lang, xmllang.Generate},
		{"python", pylang.Lang, pylang.Generate},
	}
	for _, lg := range langs {
		lg := lg
		b.Run(lg.name, func(b *testing.B) {
			src := lg.gen(42, 4000)
			toks, err := lg.l.Tokenize(src)
			if err != nil {
				b.Fatal(err)
			}
			p := parser.MustNew(lg.l.Grammar(), parser.Options{})
			p.Parse(toks) // prime analyses and the SLL cache
			peak := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cur := lg.l.Cursor(strings.NewReader(src))
				if res := p.ParseSource(cur); res.Kind != machine.Unique {
					b.Fatal(res.Reason)
				}
				if w := cur.PeakWindow(); w > peak {
					peak = w
				}
			}
			reportPerToken(b, len(toks))
			b.ReportMetric(float64(peak), "peak-window")
		})
	}
}

// BenchmarkPrediction isolates adaptivePredict on the paper's non-LL(k)
// XML decision with a long attribute prefix.
func BenchmarkPrediction(b *testing.B) {
	g := MustParseBNF(`S -> X c | X d ; X -> a X | b`)
	var w []grammar.Token
	for i := 0; i < 60; i++ {
		w = append(w, grammar.Tok("a", "a"))
	}
	w = append(w, grammar.Tok("b", "b"), grammar.Tok("d", "d"))
	ap := prediction.New(g, prediction.Options{})
	c := g.Compiled()
	sID, _ := c.NTIDOf("S")
	la := source.FromTokens(c, w)
	st := machine.Init(g, "S", w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := ap.Predict(sID, st.Suffix, la)
		if p.Kind != machine.PredUnique {
			b.Fatal("prediction failed")
		}
	}
}
