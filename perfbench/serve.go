package main

// The serve-mixed workload: an in-process `costar serve`, booted from
// artifacts with the command's default admission settings, driven over
// loopback by a generator in the same process. Load uses at most two
// keep-alive connections and two sending goroutines.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"costar/internal/artifact"
	"costar/internal/parser"
	"costar/internal/serve"
)

// Offered rates, frozen when the benchmark was defined: about 30 % and 80 %
// of the closed-loop capacity (about 330 requests/s) measured on a 2-CPU
// Intel Xeon @ 2.10GHz host. The ladder for slo_rps spans both and goes
// past that capacity, and sloLimitMS is the p99 latency limit a rung must
// meet.
const (
	lightRPS   = 100.0
	heavyRPS   = 260.0
	sloLimitMS = 50.0
	senders    = 2 // sending goroutines and keep-alive connections
)

var ladderRPS = []float64{100, 160, 220, 280, 340, 400, 460, 520}

// Body mix: half JSON, half Python, about 10 % with one token deleted.
const (
	serveBodies            = 120
	jsonBodyLo, jsonBodyHi = 300, 3000
	pyBodyLo, pyBodyHi     = 200, 1200
)

// server is one booted `costar serve` instance.
type server struct {
	s        *serve.Server
	sessions map[*lang]*serve.Session
}

func (sv *server) url(d *doc) string { return "http://" + sv.s.Addr() + "/parse/" + d.lang.name }

// bootServer is the serve set-up: artifact bytes → Decode → AddArtifact
// for each language → Start → /readyz answers 200.
func bootServer(tr *tracer, parent int, arts map[*lang][]byte) (*server, error) {
	reg := serve.NewRegistry()
	sv := &server{sessions: make(map[*lang]*serve.Session)}
	for _, l := range []*lang{jsonLang, pyLang} {
		i := tr.begin("artifact.decode", l.name, parent, false)
		a, err := artifact.Decode(arts[l])
		tr.end(i)
		if err != nil {
			return nil, err
		}
		i = tr.begin("serve.add_artifact", l.name, parent, false)
		sess, err := reg.AddArtifact(a, parser.Options{})
		tr.end(i)
		if err != nil {
			return nil, err
		}
		sv.sessions[l] = sess
	}
	// costar serve's defaults (cmd/costar/serve.go), on a free loopback port.
	sv.s = serve.New(serve.Config{
		Addr:          "127.0.0.1:0",
		MaxBodyBytes:  8 << 20,
		DefaultBudget: 2 * time.Second,
		MaxBudget:     30 * time.Second,
		DrainTimeout:  10 * time.Second,
		MaxQueue:      64,
	}, reg)
	i := tr.begin("serve.start", "", parent, false)
	err := sv.s.Start()
	tr.end(i)
	if err != nil {
		return nil, err
	}
	i = tr.begin("serve.readyz", "", parent, false)
	defer tr.end(i)
	c := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for try := 0; ; try++ {
		resp, err := c.Get("http://" + sv.s.Addr() + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return sv, nil
			}
		}
		if try == 1000 {
			sv.s.Drain()
			return nil, fmt.Errorf("server never became ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// outcome is one request as the client saw it.
type outcome struct {
	body    int     // index into the body pool
	latMS   float64 // completion minus scheduled send time
	lateMS  float64 // actual minus scheduled send time
	status  int     // -1 for a transport failure
	kind    string
	tokens  int
	diags   int
	errText string
}

// loadgen sends requests to one server over at most `senders` keep-alive
// connections.
type loadgen struct {
	sv     *server
	bodies []*doc
	order  []int // seeded body order
	client *http.Client
	tr     *tracer
}

func newLoadgen(sv *server, bodies []*doc, order []int, tr *tracer) *loadgen {
	tp := &http.Transport{MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders, DisableCompression: true}
	return &loadgen{sv: sv, bodies: bodies, order: order, client: &http.Client{Transport: tp}, tr: tr}
}

func (g *loadgen) close() { g.client.CloseIdleConnections() }

// send posts body i and reads the typed response.
func (g *loadgen) send(i int, phase string) outcome {
	d := g.bodies[i]
	sp := g.tr.begin("http."+phase, d.id, -1, false)
	defer g.tr.end(sp)
	o := outcome{body: i, status: -1}
	resp, err := g.client.Post(g.sv.url(d), "text/plain", strings.NewReader(d.text))
	if err != nil {
		o.errText = err.Error()
		return o
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		o.errText = err.Error()
		return o
	}
	o.status = resp.StatusCode
	var r struct {
		Kind        string            `json:"kind"`
		Tokens      int               `json:"tokens"`
		Diagnostics []json.RawMessage `json:"diagnostics"`
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		o.errText = "undecodable response: " + err.Error()
		return o
	}
	o.kind, o.tokens, o.diags = r.Kind, r.Tokens, len(r.Diagnostics)
	return o
}

// openLoop sends at a fixed rate for dur: request k is due at k/rate
// seconds after the start, whether or not earlier ones have completed.
// Latency counts from the due time, so a stall also charges the requests
// queued behind it.
func (g *loadgen) openLoop(rate float64, dur time.Duration, phase string, offset int) []outcome {
	n := int(rate * dur.Seconds())
	out := make([]outcome, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				due := t0.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				o := g.send(g.order[(offset+k)%len(g.order)], phase)
				o.latMS = ms(time.Since(due))
				o.lateMS = ms(sent.Sub(due))
				out[k] = o
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop keeps both connections busy for dur and returns the outcomes
// and the wall time they took.
func (g *loadgen) closedLoop(dur time.Duration, offset int) ([]outcome, time.Duration) {
	var (
		mu   sync.Mutex
		out  []outcome
		next atomic.Int64
		wg   sync.WaitGroup
	)
	t0 := time.Now()
	deadline := t0.Add(dur)
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := int(next.Add(1) - 1)
				ts := time.Now()
				o := g.send(g.order[(offset+k)%len(g.order)], "saturate")
				o.latMS = ms(time.Since(ts))
				mu.Lock()
				out = append(out, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(t0)
}

// judge checks one response against its body's reference verdict and
// counts it. Refusals (429, 503) and deadline or size errors (504, 413) are
// typed failures; anything outside that vocabulary, or a verdict that
// disagrees with the reference, is a wrong answer.
func (b *bench) judge(st *serveStats, d *doc, o outcome) {
	b.attempted++
	st.status[o.status]++
	switch o.status {
	case http.StatusOK:
		switch {
		case !d.valid:
			b.wrong("%s: served 200 %s, reference rejects", d.id, o.kind)
		case o.kind != "Unique" && o.kind != "Ambig":
			b.wrong("%s: 200 with kind %q", d.id, o.kind)
		case o.tokens != len(d.tokens):
			b.wrong("%s: served %d tokens, input has %d", d.id, o.tokens, len(d.tokens))
		}
	case http.StatusUnprocessableEntity:
		switch {
		case d.valid:
			b.wrong("%s: served 422 %s, reference accepts", d.id, o.kind)
		case o.kind != "Reject" || o.diags == 0:
			b.wrong("%s: 422 with kind %q and %d diagnostics", d.id, o.kind, o.diags)
		}
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		b.failed++
		st.refused++
	case http.StatusGatewayTimeout, http.StatusRequestEntityTooLarge:
		b.failed++
	default:
		b.wrong("%s: untyped response %d %s", d.id, o.status, o.errText)
	}
}

// serveStats accumulates response statuses across phases.
type serveStats struct {
	status  map[int]int
	refused int
}

// phaseLatency returns the latencies (ms) of outcomes.
func phaseLatency(outs []outcome) (lat, late []float64) {
	for _, o := range outs {
		lat = append(lat, o.latMS)
		late = append(late, o.lateMS)
	}
	return lat, late
}

// scrapeShed sums costar_shed_total over reasons from /metrics.
func scrapeShed(sv *server) (int, error) {
	resp, err := http.Get("http://" + sv.s.Addr() + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "costar_shed_total{") {
			v, err := strconv.Atoi(line[strings.LastIndex(line, " ")+1:])
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			total += v
		}
	}
	return total, nil
}

// runServe runs serve-mixed. As in runStream, set-up is timed before the
// measured bodies are generated.
func runServe(b *bench) error {
	arts := make(map[*lang][]byte)
	for _, l := range []*lang{jsonLang, pyLang} {
		warm, err := genDocs(l, b.rng, "warm-"+l.name, b.scale(warmDocs), b.size(warmLo), b.size(warmHi), 0, true)
		if err != nil {
			return err
		}
		if arts[l], err = buildArtifact(l, warm); err != nil {
			return err
		}
	}
	setupS, sv, err := timeSetup(b.tr, func(parent int) (*server, error) { return bootServer(b.tr, parent, arts) },
		func(sv *server) { sv.s.Drain() })
	if err != nil {
		return err
	}
	defer sv.s.Drain()
	b.set("setup_s", summarize("s", setupS))

	n := b.scale(serveBodies)
	mutated := max(1, n/2/10) // about 10 % of each language's bodies
	jd, err := genDocs(jsonLang, b.rng, "json", n/2, b.size(jsonBodyLo), b.size(jsonBodyHi), mutated, false)
	if err != nil {
		return err
	}
	pd, err := genDocs(pyLang, b.rng, "py", n-n/2, b.size(pyBodyLo), b.size(pyBodyHi), mutated, false)
	if err != nil {
		return err
	}
	bodies := append(jd, pd...)
	if b.opt.plantWrong {
		bodies[0].valid = !bodies[0].valid
	}
	// A fresh permutation for every cycle through the pool, so which bodies
	// arrive back to back differs from cycle to cycle.
	var order []int
	for cycle := 0; cycle < 40; cycle++ {
		order = append(order, b.rng.Perm(len(bodies))...)
	}

	g := newLoadgen(sv, bodies, order, b.tr)
	defer g.close()
	st := &serveStats{status: make(map[int]int)}
	judgeAll := func(outs []outcome) {
		for _, o := range outs {
			b.judge(st, bodies[o.body], o)
		}
	}
	tokensOf := func(outs []outcome) int {
		t := 0
		for _, o := range outs {
			t += len(bodies[o.body].tokens)
		}
		return t
	}
	S := b.seconds()

	if b.tr == nil {
		rssNote := b.quiesce()
		done, err := b.saturate(g, S/2, judgeAll, tokensOf)
		if err != nil {
			return err
		}
		// Latency at the light offered rate. The phase cycles through the
		// whole body mix several times, so its allocation totals per token
		// barely depend on the seed.
		runtime.GC()
		h0 := readHeap()
		light := g.openLoop(lightRPS, S/2, "light", done)
		h := readHeap().sub(h0)
		judgeAll(light)
		lat, late := phaseLatency(light)
		b.setLatency("", lat, 95)
		tok := float64(tokensOf(light))
		b.set("allocs_per_token", single("count", float64(h.objects)/tok))
		b.set("bytes_per_token", single("B", float64(h.bytes)/tok))
		b.extra["loadgen.late_p99_ms"] = single("ms", percentile(late, 99))
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		b.set("peak_rss_mb", metric{Unit: "MB", Value: rss, N: 1, Note: rssNote})
		return b.checkLedger(sv, st)
	}
	return traceServe(b, sv, g, st, bodies, arts, judgeAll, tokensOf)
}

// saturate keeps both connections busy for dur, in five slices, and
// records ns_per_token (wall time over tokens served) as the median over
// the slices. It returns the number of requests sent.
func (b *bench) saturate(g *loadgen, dur time.Duration, judgeAll func([]outcome), tokensOf func([]outcome) int) (int, error) {
	var nsTok []float64
	done := 0
	for slice := 0; slice < 5; slice++ {
		runtime.GC()
		sat, wall := g.closedLoop(dur/5, done)
		done += len(sat)
		judgeAll(sat)
		tok := float64(tokensOf(sat))
		if tok == 0 {
			return 0, fmt.Errorf("saturation slice completed no requests")
		}
		nsTok = append(nsTok, float64(wall.Nanoseconds())/tok)
		b.extra[fmt.Sprintf("capacity_rps.%d", slice)] = single("1/s", float64(len(sat))/wall.Seconds())
	}
	if b.tr == nil {
		b.set("ns_per_token", summarize("ns", nsTok))
	}
	return done, nil
}

// checkLedger compares the server's shed counter with the refusals the
// client saw; a difference means a refusal went unaccounted for.
func (b *bench) checkLedger(sv *server, st *serveStats) error {
	shed, err := scrapeShed(sv)
	if err != nil {
		return err
	}
	delta := shed - st.refused
	if delta != 0 {
		b.wrong("shed ledger: server counted %d refusals, clients saw %d", shed, st.refused)
	}
	if b.tr != nil {
		b.set("serve.shed_ledger_delta", single("count", float64(delta)))
	}
	return nil
}

// traceServe is the traced run of serve-mixed.
func traceServe(b *bench, sv *server, g *loadgen, st *serveStats, bodies []*doc, arts map[*lang][]byte,
	judgeAll func([]outcome), tokensOf func([]outcome) int) error {
	S := b.seconds()
	ctx := context.Background()

	// The same lead-in as the untraced run, so the phases below see a
	// server in the same state.
	done, err := b.saturate(g, S/10, judgeAll, tokensOf)
	if err != nil {
		return err
	}
	runtime.GC()
	light := g.openLoop(lightRPS, S/5, "light", done)
	judgeAll(light)
	lat, _ := phaseLatency(light)
	b.setLatency("light.", lat, 99)
	if err := b.checkLedger(sv, st); err != nil {
		return err
	}

	runtime.GC()
	done += len(light)
	heavy := g.openLoop(heavyRPS, S/5, "heavy", done)
	done += len(heavy)
	judgeAll(heavy)
	lat, late := phaseLatency(heavy)
	b.setLatency("heavy.", lat, 99)
	b.set("loadgen.late_p99_ms", single("ms", percentile(late, 99)))
	if err := b.checkLedger(sv, st); err != nil {
		return err
	}

	// The ladder: ascending fixed rates until one misses the limit.
	slo := 0.0
	rung := S * 3 / 10 / time.Duration(len(ladderRPS))
	for _, rate := range ladderRPS {
		runtime.GC()
		outs := g.openLoop(rate, rung, "ladder", done)
		done += len(outs)
		refusedBefore := st.refused
		failedBefore := b.failed
		judgeAll(outs)
		lat, late := phaseLatency(outs)
		// A growing backlog shows as the generator running ever later: the
		// last tenth of the rung must still start within the limit.
		tail := late[len(late)*9/10:]
		ok := percentile(lat, 99) < sloLimitMS && st.refused == refusedBefore && b.failed == failedBefore &&
			percentile(tail, 100) < sloLimitMS
		b.extra[fmt.Sprintf("ladder.%g.p99_ms", rate)] = single("ms", percentile(lat, 99))
		if !ok {
			break
		}
		slo = rate
	}
	b.set("slo_rps", single("1/s", slo))
	if err := b.checkLedger(sv, st); err != nil {
		return err
	}

	// Direct session parses of the same bodies: the parse share of a request.
	direct := make([]float64, len(bodies))
	for i, d := range bodies {
		sp := b.tr.begin("serve.session_parse", d.id, -1, false)
		t0 := time.Now()
		res := sv.sessions[d.lang].Parse(ctx, strings.NewReader(d.text))
		direct[i] = ms(time.Since(t0))
		b.tr.end(sp)
		b.attempted++
		switch {
		case d.valid:
			b.checkResult(d, res)
		case res.Kind == parser.Error || accepted(res):
			b.wrong("%s: session parse of a rejected body gave %v", d.id, res.Kind)
		}
	}
	var base []float64
	for _, o := range light {
		base = append(base, direct[o.body])
	}
	b.set("serve.session_parse_ms", single("ms", percentile(base, 50)))
	b.set("serve.framing_ms", single("ms", b.metrics["light.p50_ms"].Value-percentile(base, 50)))
	attempted := 0
	for _, c := range st.status {
		attempted += c
	}
	b.set("serve.shed_frac", single("ratio", float64(st.refused)/math.Max(1, float64(attempted))))
	b.set("serve.status_422", single("count", float64(st.status[http.StatusUnprocessableEntity])))
	b.set("serve.status_504", single("count", float64(st.status[http.StatusGatewayTimeout])))

	// Layers over the same bodies, and recovery over the mutated ones
	// through the sessions the server uses.
	targets := make(map[*lang]*target)
	for l, sess := range sv.sessions {
		sess := sess
		cold, err := parser.New(sess.Parser().Grammar(), parser.Options{FreshCachePerParse: true})
		if err != nil {
			return err
		}
		targets[l] = &target{p: sess.Parser(), lex: l.lexer, warm: sess.Parser(), cold: cold,
			recover: func(text string) parser.Result { return sess.Parse(ctx, strings.NewReader(text)) }}
	}
	var clean, mutated []*doc
	for _, d := range bodies {
		if d.mutated {
			mutated = append(mutated, d)
		} else {
			clean = append(clean, d)
		}
	}
	if err := b.layerPass(targets, clean, mutated); err != nil {
		return err
	}
	if err := b.startupLayers(arts); err != nil {
		return err
	}
	b.overheadPairs(func(d *doc) parser.Result {
		return sv.sessions[d.lang].Parse(ctx, strings.NewReader(d.text))
	}, clean, time.Now().Add(S/5))
	return nil
}
