package main

// Per-layer attribution for the traced run. Each layer is timed around the
// benchmark's own call into that module's public functions, on the same
// files the workload parses; counts come from each Result.

import (
	"runtime"
	"strings"
	"time"

	"costar"
	"costar/internal/artifact"
	"costar/internal/grammar"
	"costar/internal/lexer"
	"costar/internal/parser"
	"costar/internal/prediction"
	"costar/internal/source"
)

// target holds the sessions one language is measured with.
type target struct {
	p    *parser.Parser // the workload's own session
	lex  *lexer.Lexer
	warm *parser.Parser // a warm session on the same grammar
	cold *parser.Parser // a FreshCachePerParse session on the same grammar
	// recover parses a mutated file in recovering mode.
	recover func(text string) parser.Result
}

// layerPass runs every layer once over each clean document, and the
// recovery layer over each mutant, recording one span per call.
func (b *bench) layerPass(targets map[*lang]*target, docs, mutants []*doc) error {
	tr := b.tr
	var (
		lexs              []lexer.Lexeme
		toks              []grammar.Token
		bytes, lexemes    int
		tokens            int
		steps, nodes      int
		closure           int
		stackPeak, window int
		stats             prediction.Stats
	)
	for _, d := range docs {
		if !d.valid {
			continue
		}
		t := targets[d.lang]
		root := tr.begin("file", d.id, -1, false)

		i := tr.begin("lexer.scan", d.id, root, true)
		sc := t.lex.ScanString(d.text)
		lexs = lexs[:0]
		var err error
		for {
			lx, ok, e := sc.Next()
			if e != nil || !ok {
				err = e
				break
			}
			lexs = append(lexs, lx)
		}
		tr.end(i)
		if err != nil {
			b.wrong("%s: lexer: %v", d.id, err)
			continue
		}

		i = tr.begin("layout", d.id, root, true)
		k := 0
		pull := d.lang.layout(func() (lexer.Lexeme, bool, error) {
			if k == len(lexs) {
				return lexer.Lexeme{}, false, nil
			}
			k++
			return lexs[k-1], true, nil
		})
		toks = toks[:0]
		for {
			tok, ok, e := pull()
			if e != nil || !ok {
				err = e
				break
			}
			toks = append(toks, tok)
		}
		tr.end(i)
		if err != nil || len(toks) != len(d.tokens) {
			b.wrong("%s: layout produced %d tokens (want %d), err %v", d.id, len(toks), len(d.tokens), err)
			continue
		}

		i = tr.begin("source.drain", d.id, root, true)
		j := 0
		cur := source.FromPull(t.p.Grammar().Compiled(), func() (grammar.Token, bool, error) {
			if j == len(toks) {
				return grammar.Token{}, false, nil
			}
			j++
			return toks[j-1], true, nil
		})
		for {
			if _, ok := cur.Peek(0); !ok {
				break
			}
			cur.Advance()
		}
		tr.end(i)

		i = tr.begin("parse.slice", d.id, root, true)
		res := t.p.Parse(toks)
		tr.end(i)
		b.attempted++
		b.checkResult(d, res)

		i = tr.begin("parse.reader", d.id, root, true)
		fused := d.lang.parseBytes(t.p, t.lex, strings.NewReader(d.text))
		tr.end(i)
		b.attempted++
		b.checkResult(d, fused)

		// The other cache configuration on the same tokens, for the
		// cold-minus-warm difference.
		other, name := t.cold, "parse.cold"
		if t.p == t.cold {
			other, name = t.warm, "parse.warm"
		}
		i = tr.begin(name, d.id, root, false)
		otherRes := other.Parse(toks)
		tr.end(i)
		b.attempted++
		b.checkResult(d, otherRes)
		tr.end(root)

		bytes += len(d.text)
		lexemes += len(lexs)
		tokens += len(toks)
		steps += res.Steps
		nodes += res.Usage.TreeNodes
		closure += res.Usage.ClosureWork
		stackPeak = max(stackPeak, res.Usage.StackDepth)
		window = max(window, fused.Usage.PeakWindow)
		stats = addStats(stats, res.Stats)
	}
	if tokens == 0 {
		return nil
	}

	var repairs, diags, mutTokens int
	for _, m := range mutants {
		i := tr.begin("recover", m.id, -1, true)
		res := targets[m.lang].recover(m.text)
		tr.end(i)
		b.attempted++
		if res.Kind == parser.Error || accepted(res) {
			b.wrong("%s: recovering parse of a rejected input gave %v", m.id, res.Kind)
		}
		repairs += res.Usage.Repairs
		diags += len(res.Diags)
		mutTokens += len(m.tokens)
	}

	lt := tr.totals()
	ft := float64(tokens)
	selfNS := func(name string) float64 {
		if x := lt[name]; x != nil {
			return float64(x.SelfNS)
		}
		return 0
	}
	allocs := func(name string) float64 {
		if x := lt[name]; x != nil {
			return float64(x.Allocs)
		}
		return 0
	}
	b.set("lexer.ns_per_byte", single("ns/B", selfNS("lexer.scan")/float64(bytes)))
	b.set("lexer.allocs_per_byte", single("count", allocs("lexer.scan")/float64(bytes)))
	b.set("lexer.lexemes_per_token", single("count", float64(lexemes)/ft))
	b.set("layout.ns_per_token", single("ns", selfNS("layout")/ft))
	b.set("layout.allocs_per_token", single("count", allocs("layout")/ft))
	b.set("source.ns_per_token", single("ns", selfNS("source.drain")/ft))
	b.set("source.peak_window", single("count", float64(window)))
	staged := selfNS("lexer.scan") + selfNS("layout") + selfNS("parse.slice")
	b.set("stream.overhead_ns_per_token", single("ns", (selfNS("parse.reader")-staged)/ft))
	b.set("parse.ns_per_token", single("ns", selfNS("parse.slice")/ft))
	b.set("parse.allocs_per_token", single("count", allocs("parse.slice")/ft))
	if x := lt["parse.slice"]; x != nil {
		b.set("parse.bytes_per_token", single("B", float64(x.Bytes)/ft))
	}
	b.set("machine.steps_per_token", single("count", float64(steps)/ft))
	b.set("machine.stack_peak", single("count", float64(stackPeak)))
	b.set("tree.nodes_per_token", single("count", float64(nodes)/ft))
	b.set("prediction.sll_calls_per_token", single("count", float64(stats.SLLCalls)/ft))
	b.set("prediction.trivial_frac", single("ratio", ratio(stats.TrivialCalls, stats.TrivialCalls+stats.SLLCalls)))
	b.set("prediction.cache_hit_ratio", single("ratio", ratio(stats.CacheHits, stats.CacheHits+stats.CacheMisses)))
	b.set("prediction.lookahead_per_call", single("count", ratio(stats.TokensScanned, stats.SLLCalls)))
	b.set("prediction.max_lookahead", single("count", float64(stats.MaxLookahead)))
	b.set("prediction.ll_fallback_ratio", single("ratio", ratio(stats.LLFallbacks, stats.SLLCalls)))
	b.set("prediction.cache_misses_per_token", single("count", float64(stats.CacheMisses)/ft))
	b.set("prediction.closure_work_per_token", single("count", float64(closure)/ft))
	states := 0
	for _, t := range targets {
		_, s := t.p.CacheSize()
		states += s
	}
	b.set("prediction.dfa_states", single("count", float64(states)))
	warmNS, coldNS := selfNS("parse.slice"), selfNS("parse.cold")
	if lt["parse.warm"] != nil {
		warmNS, coldNS = selfNS("parse.warm"), selfNS("parse.slice")
	}
	b.set("prediction.cold_minus_warm_ns_per_token", single("ns", (coldNS-warmNS)/ft))
	if len(mutants) > 0 {
		b.set("recover.ns_per_token", single("ns", selfNS("recover")/float64(mutTokens)))
		b.set("recover.repairs_per_file", single("count", float64(repairs)/float64(len(mutants))))
		b.set("recover.diags_per_file", single("count", float64(diags)/float64(len(mutants))))
	}
	return nil
}

// startupLayers times the set-up layers for each language: artifact
// decode and realize of the workload's artifact bytes, and grammar load and
// compile from .g4 source.
func (b *bench) startupLayers(arts map[*lang][]byte) error {
	tr := b.tr
	var decode, realize, load, compile []float64
	size := 0
	for l, data := range arts {
		size += len(data)
		for rep := 0; rep < 5; rep++ {
			i := tr.begin("artifact.decode", l.name, -1, false)
			t0 := time.Now()
			a, err := artifact.Decode(data)
			decode = append(decode, ms(time.Since(t0)))
			tr.end(i)
			if err != nil {
				return err
			}
			i = tr.begin("artifact.realize", l.name, -1, false)
			t0 = time.Now()
			_, err = parser.NewFromArtifact(a, parser.Options{})
			realize = append(realize, ms(time.Since(t0)))
			tr.end(i)
			if err != nil {
				return err
			}
			i = tr.begin("grammar.load", l.name, -1, false)
			t0 = time.Now()
			g, _, err := costar.LoadG4(l.source)
			load = append(load, ms(time.Since(t0)))
			tr.end(i)
			if err != nil {
				return err
			}
			i = tr.begin("grammar.compile", l.name, -1, false)
			t0 = time.Now()
			_, err = parser.New(g, parser.Options{})
			compile = append(compile, ms(time.Since(t0)))
			tr.end(i)
			if err != nil {
				return err
			}
		}
	}
	// With several languages the per-language medians add up: a server
	// loads all of them.
	n := len(arts)
	b.set("artifact.decode_ms", scaled(summarize("ms", decode), n))
	b.set("artifact.realize_ms", scaled(summarize("ms", realize), n))
	b.set("artifact.bytes", single("B", float64(size)))
	b.set("grammar.load_ms", scaled(summarize("ms", load), n))
	b.set("grammar.compile_ms", scaled(summarize("ms", compile), n))
	return nil
}

// scaled multiplies a metric's value by n (per-language medians to a
// per-server total).
func scaled(m metric, n int) metric {
	m.Value *= float64(n)
	return m
}

// overheadPairs alternates untraced and traced fused passes over docs
// (at least two pairs, then until the deadline), each after a GC barrier
// and with the first arm alternating, and reports the tracing overhead as
// the median per-pair ratio, plus the fused path's GC behaviour.
func (b *bench) overheadPairs(parse func(*doc) parser.Result, docs []*doc, deadline time.Time) {
	tokens := countTokens(docs)
	pass := func(withSpans bool) float64 {
		runtime.GC()
		t0 := time.Now()
		for _, d := range docs {
			i := -1
			if withSpans {
				i = b.tr.begin("fused", d.id, -1, false)
			}
			res := parse(d)
			b.tr.end(i)
			b.attempted++
			b.checkResult(d, res)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(tokens)
	}
	var plain, traced, ratios []float64
	_, cycle := gcPauses(0)
	h0 := readHeap()
	for pair := 0; pair < 2 || time.Now().Before(deadline); pair++ {
		var p, t float64
		if pair%2 == 0 {
			p, t = pass(false), pass(true)
		} else {
			t, p = pass(true), pass(false)
		}
		plain, traced, ratios = append(plain, p), append(traced, t), append(ratios, t/p)
	}
	gcs := readHeap().sub(h0).gcs
	pauses, _ := gcPauses(cycle)
	b.set("trace.overhead_pct", single("%", (median(ratios)-1)*100))
	b.extra["trace.untraced_ns_per_token"] = summarize("ns", plain)
	b.extra["trace.traced_ns_per_token"] = summarize("ns", traced)
	b.set("gc.cycles_per_mtoken", single("count", float64(gcs)/float64(2*len(ratios)*tokens)*1e6))
	b.set("gc.pause_ms", summarize("ms", pauses))
}

func addStats(a, s prediction.Stats) prediction.Stats {
	a.SLLCalls += s.SLLCalls
	a.LLFallbacks += s.LLFallbacks
	a.CacheHits += s.CacheHits
	a.CacheMisses += s.CacheMisses
	a.TrivialCalls += s.TrivialCalls
	a.TokensScanned += s.TokensScanned
	a.MaxLookahead = max(a.MaxLookahead, s.MaxLookahead)
	return a
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
