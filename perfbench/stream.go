package main

// The three library workloads: generated files go bytes → verdict through
// the fused streaming path (lexer, layout, token cursor, parser) one after
// another on one goroutine.

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"costar"
	"costar/internal/artifact"
	"costar/internal/lexer"
	"costar/internal/parser"
)

// streamSpec sizes one library workload.
type streamSpec struct {
	lang *lang
	// cold selects the paper's configuration: no artifact, and a fresh SLL
	// cache for every parse (Options.FreshCachePerParse).
	cold   bool
	docs   int // measured files in the pool
	lo, hi int // file size range in tokens (log-uniform)
}

var streamSpecs = map[string]streamSpec{
	"json-stream":   {lang: jsonLang, docs: 60, lo: 1000, hi: 16000},
	"python-stream": {lang: pyLang, docs: 40, lo: 300, hi: 2500},
	"python-cold":   {lang: pyLang, cold: true, docs: 16, lo: 150, hi: 1200},
}

// Warm corpora for artifacts mirror `costar compile`'s default: eight files
// of 200 to 4000 tokens.
const warmDocs, warmLo, warmHi = 8, 200, 4000

// streamSession is a session ready to parse bytes.
type streamSession struct {
	p   *parser.Parser
	lex *lexer.Lexer
}

// streamSetup builds sessions for a spec and times building them.
type streamSetup struct {
	spec streamSpec
	art  []byte // encoded artifact (warm workloads)
}

// build makes one session: artifact bytes → Decode → NewFromArtifact, or
// for the cold workload .g4 source → LoadG4 → parser.New. The lexer of an
// artifact session is the language's compiled lexer, as `costar serve`
// resolves it for a built-in language.
func (s *streamSetup) build(tr *tracer, parent int) (streamSession, error) {
	if s.spec.cold {
		i := tr.begin("grammar.load", "", parent, false)
		g, lex, err := costar.LoadG4(s.spec.lang.source)
		tr.end(i)
		if err != nil {
			return streamSession{}, err
		}
		i = tr.begin("grammar.compile", "", parent, false)
		p, err := parser.New(g, parser.Options{FreshCachePerParse: true})
		tr.end(i)
		return streamSession{p, lex}, err
	}
	i := tr.begin("artifact.decode", "", parent, false)
	a, err := artifact.Decode(s.art)
	tr.end(i)
	if err != nil {
		return streamSession{}, err
	}
	i = tr.begin("artifact.realize", "", parent, false)
	p, err := parser.NewFromArtifact(a, parser.Options{})
	tr.end(i)
	return streamSession{p, s.spec.lang.lexer}, err
}

// timeSetup builds sessions repeatedly, each after a GC barrier, until at
// least minSetupTime has passed (5 to 200 times), and returns the per-build
// seconds and the last session. release, if not nil, disposes of each
// session but the last, outside the timed region.
func timeSetup[S any](tr *tracer, build func(parent int) (S, error), release func(S)) ([]float64, S, error) {
	var (
		samples []float64
		last    S
		total   time.Duration
	)
	for len(samples) < 5 || (total < minSetupTime && len(samples) < 200) {
		if release != nil && len(samples) > 0 {
			release(last)
		}
		runtime.GC()
		root := tr.begin("setup", "", -1, false)
		t0 := time.Now()
		s, err := build(root)
		d := time.Since(t0)
		tr.end(root)
		if err != nil {
			return nil, last, err
		}
		samples = append(samples, d.Seconds())
		total += d
		last = s
	}
	return samples, last, nil
}

const minSetupTime = 400 * time.Millisecond

// runStream runs a library workload. Set-up is timed before the measured
// files are generated, so the live heap it runs against is close to that of
// a process that has just started.
func runStream(b *bench, spec streamSpec) error {
	setup := &streamSetup{spec: spec}
	var (
		warm []*doc
		err  error
	)
	if !spec.cold || b.tr != nil {
		if warm, err = genDocs(spec.lang, b.rng, "warm", b.scale(warmDocs), b.size(warmLo), b.size(warmHi), 0, true); err != nil {
			return err
		}
	}
	if !spec.cold {
		if setup.art, err = buildArtifact(spec.lang, warm); err != nil {
			return err
		}
	}
	setupS, sess, err := timeSetup(b.tr, func(parent int) (streamSession, error) { return setup.build(b.tr, parent) }, nil)
	if err != nil {
		return err
	}
	b.set("setup_s", summarize("s", setupS))

	docs, err := genDocs(spec.lang, b.rng, "doc", b.scale(spec.docs), b.size(spec.lo), b.size(spec.hi), 0, false)
	if err != nil {
		return err
	}
	if b.opt.plantWrong {
		docs[0].valid = !docs[0].valid
	}
	if b.tr != nil {
		return traceStream(b, spec, setup, sess, docs, warm)
	}
	return timeStream(b, sess, docs)
}

// timeStream is the untraced run: fused passes over the pool for the run's
// seconds, then the oracle pass.
func timeStream(b *bench, sess streamSession, docs []*doc) error {
	l := docs[0].lang
	steps := make([]int, len(docs))
	var nsTok, allocTok, byteTok, lat []float64
	rssNote := b.quiesce()
	start := time.Now()
	deadline := start.Add(b.seconds())
	for pass := 0; time.Now().Before(deadline) || pass < 2; pass++ {
		h0 := readHeap()
		t0 := time.Now()
		tokens := 0
		for i, d := range docs {
			ts := time.Now()
			res := l.parseBytes(sess.p, sess.lex, strings.NewReader(d.text))
			lat = append(lat, float64(time.Since(ts))/1e6)
			b.attempted++
			b.checkResult(d, res)
			if pass == 0 {
				steps[i] = res.Steps
			} else if res.Steps != steps[i] {
				b.wrong("%s: pass %d took %d steps, pass 0 took %d", d.id, pass, res.Steps, steps[i])
			}
			tokens += len(d.tokens)
		}
		el := time.Since(t0)
		h := readHeap().sub(h0)
		nsTok = append(nsTok, float64(el.Nanoseconds())/float64(tokens))
		allocTok = append(allocTok, float64(h.objects)/float64(tokens))
		byteTok = append(byteTok, float64(h.bytes)/float64(tokens))
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	b.set("ns_per_token", summarize("ns", nsTok))
	b.set("allocs_per_token", summarize("count", allocTok))
	b.set("bytes_per_token", summarize("B", byteTok))
	b.set("peak_rss_mb", metric{Unit: "MB", Value: rss, N: 1, Note: rssNote})
	b.setLatency("", lat, 95)

	// Oracle pass, outside the timed region: every returned tree must be a
	// valid derivation of the batch tokenizer's word (Fig. 3), which also
	// checks that its yield equals the input.
	for i, d := range docs {
		res := l.parseBytes(sess.p, sess.lex, strings.NewReader(d.text))
		b.checkResult(d, res)
		if res.Steps != steps[i] {
			b.wrong("%s: oracle pass took %d steps, timed passes %d", d.id, res.Steps, steps[i])
		}
		if d.valid && accepted(res) {
			if err := costar.ValidateTree(sess.p.Grammar(), sess.p.Grammar().Start, res.Tree, d.tokens); err != nil {
				b.wrong("%s: returned tree fails validation: %v", d.id, err)
			}
		}
	}
	return nil
}

// quiesce prepares the timed phase: the reference engines drop their
// learned DFAs, free memory goes back to the OS, the RSS high-water mark
// restarts, and a GC runs as a barrier. It returns a note for peak_rss_mb
// when the high-water mark could not be restarted.
func (b *bench) quiesce() string {
	jsonLang.reference.ResetCache()
	pyLang.reference.ResetCache()
	note := ""
	if !resetPeakRSS() {
		note = "high-water mark since process start"
	}
	runtime.GC()
	return note
}

// checkResult compares a library verdict with the document's reference.
func (b *bench) checkResult(d *doc, res parser.Result) {
	switch {
	case res.Kind == parser.Error:
		b.wrong("%s: Error result: %v", d.id, res.Err)
	case accepted(res) != d.valid:
		b.wrong("%s: verdict %v, reference says valid=%v", d.id, res.Kind, d.valid)
	case d.valid && res.Consumed != len(d.tokens):
		b.wrong("%s: consumed %d tokens, input has %d", d.id, res.Consumed, len(d.tokens))
	}
}

// traceStream is the traced run of a library workload.
func traceStream(b *bench, spec streamSpec, setup *streamSetup, sess streamSession, docs, warm []*doc) error {
	start := time.Now()
	l := spec.lang
	t := &target{p: sess.p, lex: sess.lex}
	var err error
	if spec.cold {
		t.cold = sess.p
		if t.warm, err = parser.New(sess.p.Grammar(), parser.Options{}); err != nil {
			return err
		}
		for _, d := range warm {
			t.warm.Parse(d.tokens)
		}
		t.recover = newRecoverer(l, sess, parser.Options{Recover: true, FreshCachePerParse: true})
	} else {
		t.warm = sess.p
		if t.cold, err = parser.New(sess.p.Grammar(), parser.Options{FreshCachePerParse: true}); err != nil {
			return err
		}
		a, err := artifact.Decode(setup.art)
		if err != nil {
			return err
		}
		rp, err := parser.NewFromArtifact(a, parser.Options{Recover: true})
		if err != nil {
			return err
		}
		t.recover = newRecoverer(l, streamSession{rp, sess.lex}, parser.Options{})
	}
	mutants := mutants(b, docs)
	if err := b.layerPass(map[*lang]*target{l: t}, docs, mutants); err != nil {
		return err
	}
	art := setup.art
	if spec.cold {
		// The cold workload has no artifact; time the artifact path it
		// skips with a cold one (tables and analysis, no DFA), as
		// `costar compile -cold` writes.
		a, err := sess.p.ExportArtifact(l.name, l.source)
		if err != nil {
			return err
		}
		art = artifact.Encode(a)
	}
	if err := b.startupLayers(map[*lang][]byte{l: art}); err != nil {
		return err
	}
	b.overheadPairs(func(d *doc) parser.Result { return l.parseBytes(sess.p, sess.lex, strings.NewReader(d.text)) },
		docs, start.Add(b.seconds()))
	return nil
}

// newRecoverer returns a recovering bytes-to-verdict parse. With a zero
// opts it parses on sess itself; otherwise on a new session over sess's
// grammar with opts.
func newRecoverer(l *lang, sess streamSession, opts parser.Options) func(string) parser.Result {
	p := sess.p
	if opts != (parser.Options{}) {
		p = parser.MustNew(sess.p.Grammar(), opts)
	}
	return func(text string) parser.Result { return l.parseBytes(p, sess.lex, strings.NewReader(text)) }
}

// mutants derives one single-token deletion from each of the first docs
// (up to a quarter of the pool, at least one), keeping those the reference
// rejects.
func mutants(b *bench, docs []*doc) []*doc {
	n := max(1, len(docs)/4)
	// A stream of its own, so the measured files do not depend on it.
	rng := rand.New(rand.NewSource(b.opt.seed ^ 0x6d75746174696f6e))
	var out []*doc
	for _, d := range docs[:n] {
		m, ok := deleteToken(d.lang, d.text, rng)
		if !ok {
			continue
		}
		md := &doc{id: d.id + "-mut", lang: d.lang, text: m, mutated: true}
		if err := md.reference(); err != nil || md.valid {
			continue
		}
		out = append(out, md)
	}
	return out
}

// scale and size shrink pools and files under -quick (the smoke tests).
func (b *bench) scale(n int) int {
	if b.opt.quick {
		return max(2, n/10)
	}
	return n
}

func (b *bench) size(n int) int {
	if b.opt.quick {
		return max(20, n/10)
	}
	return n
}

func (b *bench) seconds() time.Duration {
	return time.Duration(b.opt.seconds * float64(time.Second))
}

// wrong records a wrong verdict: the run fails.
func (b *bench) wrong(format string, args ...any) {
	b.failed++
	b.wrongs++
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}
