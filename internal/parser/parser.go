// Package parser is CoStar's top-level API (Section 3.1): Parse takes a
// grammar G, a start nonterminal S, and a token word w, and returns
//
//   - Unique(v): v is the sole S-rooted parse tree for w,
//   - Ambig(v):  v is one of at least two distinct parse trees,
//   - Reject:    w ∉ L(G), or
//   - Error(e):  left recursion or an inconsistent state was detected
//     (unreachable for well-formed non-left-recursive grammars,
//     Theorem 5.8).
//
// A Parser value is a session: it owns the grammar's static analyses and a
// persistent SLL DFA cache, so later parses benefit from earlier ones. The
// paper notes (Section 6.2) that CoStar had no way to reuse a cache across
// inputs while ANTLR does; the session API supplies that extension, and
// Options.FreshCachePerParse restores the paper's exact configuration.
//
// Sessions are additionally safe for concurrent use: many goroutines can
// parse through one Parser at once, sharing (and jointly growing) a single
// SLL DFA, and ParseInputs exposes a worker-pool batch API on top.
package parser

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"

	"costar/internal/analysis"
	"costar/internal/diag"
	"costar/internal/grammar"
	"costar/internal/lexer"
	"costar/internal/machine"
	"costar/internal/prediction"
	"costar/internal/source"
	"costar/internal/tree"
)

// Kind aliases machine.ResultKind for the public surface.
type Kind = machine.ResultKind

// Re-exported result kinds.
const (
	Unique    = machine.Unique
	Ambig     = machine.Ambig
	Reject    = machine.Reject
	Error     = machine.ResultError
	Recovered = machine.Recovered
)

// Limits bounds the resources one parse may consume (see machine.Limits):
// max machine steps, tokens consumed, stack depth, prediction closure work,
// and tree nodes built. The zero value is unlimited; each exhausted limit
// surfaces as a structured Error result naming the limit — never a false
// Reject.
type Limits = machine.Limits

// Usage reports a parse's resource high-water marks; every Result carries
// one, success or failure, so budgets can be set from measured headroom.
type Usage = machine.Usage

// Result is the outcome of a parse.
type Result struct {
	Kind     Kind
	Tree     *tree.Tree // for Unique and Ambig; for Recovered, the partial tree
	Reason   string     // for Reject: why the input was rejected
	Err      error      // for Error
	Steps    int        // machine transitions taken
	Consumed int        // tokens consumed before halting
	Expected []string   // for Reject: terminals that could have continued
	Usage    Usage      // resource high-water marks for this parse
	Stats    prediction.Stats
	// Diags carries the unified positioned diagnostics for every failure
	// shape: one syntax diagnostic for a plain Reject, one per repair for a
	// Recovered result, and the converted machine/lexer error for Error
	// results. Always sorted by position (diag.Sort order).
	Diags []diag.Diagnostic
}

// Canceled reports whether the result is an Error caused by context
// cancellation or deadline expiry — the parse was abandoned, not decided.
func (r Result) Canceled() bool {
	if e, ok := r.Err.(*machine.Error); ok {
		return e.Kind == machine.ErrCanceled || e.Kind == machine.ErrDeadline
	}
	return false
}

// String renders the result compactly.
func (r Result) String() string {
	switch r.Kind {
	case Unique, Ambig:
		return fmt.Sprintf("%s(%s)", r.Kind, r.Tree)
	case Reject:
		return "Reject(" + r.Reason + ")"
	case Recovered:
		return fmt.Sprintf("Recovered(%s, %d diagnostics)", r.Tree, len(r.Diags))
	default:
		return fmt.Sprintf("Error(%v)", r.Err)
	}
}

// Options configures a Parser session.
type Options struct {
	// CheckInvariants runs the machine-state well-formedness checker
	// before every step (Figure 4), converting any violation into an
	// Error result. Off by default; the test suite turns it on.
	CheckInvariants bool
	// DisableSLL answers every prediction in LL mode — the cache ablation.
	DisableSLL bool
	// FreshCachePerParse gives every parse an empty SLL DFA of its own,
	// matching the paper's benchmark configuration (each trial starts
	// cold). The parse-private DFA lives in the pooled per-parse scratch
	// and is cleared in place when the parse ends, so its memory serves
	// the next parse. Off by default: the session reuses its cache.
	FreshCachePerParse bool
	// Limits bounds every parse's resource consumption — steps, tokens,
	// stack depth, prediction closure work, tree nodes. Exhaustion surfaces
	// as a structured Error result naming the limit, with the measured
	// high-water marks in Result.Usage.
	Limits Limits
	// Recover turns on recovering parse mode: a would-be Reject suspends
	// the machine, the recovery driver applies panic-mode FOLLOW/anchor-set
	// repairs (skip / insert / pop / drop) under the Limits.MaxRepairs
	// budget, and the result is Recovered — a partial tree with error nodes
	// plus one positioned diagnostic per repair. Recovery activates only
	// after a Reject: accepting inputs take bit-identical paths with the
	// flag on or off, Error results (limits, cancellation, lex failures)
	// pass through unrepaired, and certified grammars stay certified.
	Recover bool
}

// Parser is a reusable parsing session for one grammar.
//
// A Parser is safe for concurrent use: any number of goroutines may call
// Parse/ParseInput (and the read-only accessors) on one session at the same
// time, all sharing — and jointly warming — the single SLL DFA cache. The
// grammar and its static analyses are immutable after New; per-start-symbol
// targets intern through a sync.Map; session statistics accumulate under a
// mutex; and the cache itself is concurrent (see prediction.Cache).
// ParseInputs layers a worker pool on top for batch workloads.
type Parser struct {
	g       *grammar.Grammar
	an      *analysis.Analysis
	opts    Options
	targets sync.Map // start symbol → *analysis.Targets, interned lazily
	cache   *prediction.Cache
	// certified records, at session construction, whether the grammar
	// carried a valid certificate; the machine then runs with its
	// left-recursion probe demoted to an assertion (Theorem 5.8 makes it
	// unreachable).
	certified bool

	// pool recycles per-parse state (governor, predictor with its decision
	// scratch, the machine's in-place Mem, token cursor) across parses, so
	// a warm session's steady-state allocation rate is amortized to near
	// zero. See parseScratch for the lifetime contract.
	pool sync.Pool

	statsMu sync.Mutex
	stats   prediction.Stats // accumulated across parses

	// bound is the last lexer ParseReader bound to this session's grammar;
	// a parse with the same lexer reuses it after one pointer compare.
	bound atomic.Pointer[lexer.Binding]
}

// parseScratch is the pooled per-parse state. Everything here is scratch
// whose lifetime ends with the parse: the governor and predictor are Reset
// for each parse, the machine's Mem (the state the run steps in place, its
// per-depth stack nodes and accumulators) is overwritten by the next run,
// a FreshCachePerParse session's parse-private DFA is cleared once the
// Result is built, and the cursor keeps only its interned-ID capacity
// between parses. None of it is Result-scoped: each run builds its tree in
// a table of its own that only the Result's tree keeps alive, so pooled
// reuse can never reclaim nodes a caller still holds.
// A scratch is used by one goroutine for one parse at a time; a parse that
// panics abandons its scratch rather than returning a half-mutated value to
// the pool.
type parseScratch struct {
	gov   *machine.Governor
	ap    *prediction.AdaptivePredictor
	mem   *machine.Mem
	cur   source.Cursor
	cache *prediction.Cache // parse-private DFA (FreshCachePerParse only)
}

// getScratch fetches pooled per-parse state, or builds a fresh set.
func (p *Parser) getScratch() *parseScratch {
	if sc, ok := p.pool.Get().(*parseScratch); ok {
		return sc
	}
	return &parseScratch{mem: machine.NewMem()}
}

// release returns scratch to the pool. Callers must have dropped every
// reference into the scratch first (in parse, the deferred release
// runs after the Result — which aliases only the run's tree table — is
// fully built and the machine's final state is out of scope).
func (p *Parser) release(sc *parseScratch) {
	sc.mem.Reset()
	sc.cur.Clear()
	if sc.cache != nil {
		sc.cache.Clear()
	}
	p.pool.Put(sc)
}

// New validates g and builds a session. The error reports the first
// well-formedness violation (undefined nonterminals, missing start, ...).
//
// If the grammar carries a well-formedness certificate (attached by
// grammarlint.Certify) the session runs in certified mode: the machine's
// dynamic left-recursion check is demoted to a debug assertion, since the
// certificate plus Theorem 5.8 prove it unreachable.
func New(g *grammar.Grammar, opts Options) (*Parser, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return newSession(g, analysis.New(g), prediction.NewCache(g.Compiled()), opts), nil
}

// newSession assembles a session over a validated grammar, its analysis
// and its SLL DFA. Certified mode follows the certificate alone: it engages
// exactly when the grammar carries one issued for its own fingerprint.
func newSession(g *grammar.Grammar, an *analysis.Analysis, cache *prediction.Cache, opts Options) *Parser {
	c := g.Compiled()
	return &Parser{
		g:         g,
		an:        an,
		opts:      opts,
		cache:     cache,
		certified: c.Certificate() != nil && c.Certificate().Fingerprint == c.Fingerprint(),
	}
}

// MustNew is New panicking on error, for package-level parser literals.
func MustNew(g *grammar.Grammar, opts Options) *Parser {
	p, err := New(g, opts)
	if err != nil {
		panic(err)
	}
	return p
}

// Grammar returns the session's grammar.
func (p *Parser) Grammar() *grammar.Grammar { return p.g }

// Analysis returns the session's static grammar analysis.
func (p *Parser) Analysis() *analysis.Analysis { return p.an }

// Certified reports whether the session runs in certified mode: the grammar
// carried a valid well-formedness certificate at construction.
func (p *Parser) Certified() bool { return p.certified }

// Stats returns a snapshot of the prediction statistics accumulated over
// the session; safe to call while parses are in flight.
func (p *Parser) Stats() prediction.Stats {
	p.statsMu.Lock()
	defer p.statsMu.Unlock()
	return p.stats
}

// CacheSize returns the SLL DFA footprint (start states, interned states).
func (p *Parser) CacheSize() (starts, states int) { return p.cache.Size() }

// ResetCache discards the session's SLL DFA (the cold-cache configuration
// of the Figure 11 experiment).
func (p *Parser) ResetCache() { p.cache.Reset() }

// Input is one parse input: a start symbol and a token word, resident or
// pulled on demand. Start == "" means the grammar's start symbol; Tokens
// holds a resident word, Pull streams one (only the sliding lookahead
// window stays in memory). Input{} is the empty word. Setting both Tokens
// and Pull is a structured Error result.
type Input struct {
	Start  string
	Tokens []grammar.Token
	Pull   source.Pull
}

// ParseInput parses in under ctx: the session's one entry point, which
// Parse, ParseReader and ParseInputs call. It is reentrant: concurrent
// calls on one session share the SLL DFA cache safely. Cancellation or
// deadline expiry halts the machine loop and the prediction closures within
// a bounded amount of work and surfaces as a structured Error result
// (ErrCanceled / ErrDeadline), never a false Reject. A Read already blocked
// in a reader behind Pull cannot be interrupted (wrap the reader itself for
// that), but no further pulls are issued once ctx ends. Pull failures
// (lexing or reader errors) surface as Error results with a
// machine.ErrSource cause, never as false accepts.
func (p *Parser) ParseInput(ctx context.Context, in Input) Result {
	if in.Tokens != nil && in.Pull != nil {
		return Result{Kind: Error, Err: errors.New("parser: Input sets both Tokens and Pull")}
	}
	start := in.Start
	if start == "" {
		start = p.g.Start
	}
	sc := p.getScratch()
	if in.Pull != nil {
		sc.cur.ResetPull(p.g.Compiled(), in.Pull)
		return p.parse(ctx, start, sc, &sc.cur, -1)
	}
	sc.cur.ResetTokens(p.g.Compiled(), in.Tokens)
	return p.parse(ctx, start, sc, &sc.cur, len(in.Tokens))
}

// Parse parses w starting from the grammar's start symbol: the paper's
// parse (Section 3.1).
func (p *Parser) Parse(w []grammar.Token) Result {
	return p.ParseInput(context.Background(), Input{Tokens: w})
}

// ParseReader lexes r incrementally with lex and parses the token stream
// from the grammar's start symbol, in bounded memory end to end. It is
// ParseInput with Input{Pull: lex.Pull(r)}, except that the lexer hands the
// cursor each token's terminal ID: lex is bound to the session's grammar
// once (lexer.Bind) and the binding is kept for later parses with the same
// lexer.
func (p *Parser) ParseReader(lex *lexer.Lexer, r io.Reader) Result {
	b := p.bound.Load()
	if b == nil || b.Lexer() != lex {
		b = lex.Bind(p.g.Compiled())
		p.bound.Store(b)
	}
	sc := p.getScratch()
	sc.cur.ResetIDPull(p.g.Compiled(), b.Pull(r))
	return p.parse(context.Background(), p.g.Start, sc, &sc.cur, -1)
}

// ParseSource parses the tokens of src from the grammar's start symbol. The
// cursor is consumed by the parse (it is a single-use value); on a Reject or
// Error result it is left at the failure position for diagnostics. It is
// the one entry point that takes a caller-built cursor; ParseInput builds
// its cursor in the pooled scratch instead.
func (p *Parser) ParseSource(src *source.Cursor) Result {
	return p.parse(context.Background(), p.g.Start, p.getScratch(), src, -1)
}

// parse is the shared core: run the machine over a token cursor. total is
// the input length when known up front (the slice path), or -1 when the
// input is streamed and the length is unknowable before the parse ends. sc
// is the parse's pooled scratch (its cursor may or may not be src); parse
// owns it from here: the deferred release recycles it after the Result is
// fully built, and a panicking parse abandons it so a half-mutated scratch
// never reenters the pool.
//
// parse is the panic-containment boundary: a panic anywhere below —
// machine, prediction, cursor, incremental lexer, a hostile pull function —
// is recovered into an Error result carrying the panic value and a stack
// summary, so one poisoned parse can never take down a batch worker pool or
// a serving goroutine.
func (p *Parser) parse(ctx context.Context, start string, sc *parseScratch, src *source.Cursor, total int) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			res = Result{Kind: Error, Err: machine.PanicErr(r, debug.Stack())}
			return // abandon sc: don't poison the pool
		}
		p.release(sc)
	}()
	if !p.g.HasNT(start) {
		return Result{Kind: Error, Err: fmt.Errorf("parser: start symbol %q has no productions", start)}
	}
	var tg *analysis.Targets
	if v, ok := p.targets.Load(start); ok {
		tg = v.(*analysis.Targets)
	} else {
		// Racing goroutines may both compute (the analysis is pure);
		// LoadOrStore interns one winner for the session.
		v, _ := p.targets.LoadOrStore(start, analysis.NewTargetsFor(p.g, start))
		tg = v.(*analysis.Targets)
	}
	cache := p.cache
	if p.opts.FreshCachePerParse {
		if sc.cache == nil {
			sc.cache = prediction.NewCache(p.g.Compiled())
		}
		cache = sc.cache
	}
	// One governor serves the machine loop and the prediction closures, so
	// cancellation and the cumulative limits cover both layers. Both come
	// from the pooled scratch: built once, Reset per parse.
	gov := sc.gov
	if gov == nil {
		gov = machine.NewGovernor(ctx, p.opts.Limits)
		sc.gov = gov
	} else {
		gov.Reset(ctx, p.opts.Limits)
	}
	popts := prediction.Options{
		DisableSLL: p.opts.DisableSLL,
		Cache:      cache,
		Governor:   gov,
	}
	ap := sc.ap
	if ap == nil {
		ap = prediction.NewWith(p.g, tg, popts)
		sc.ap = ap
	} else {
		ap.Reset(tg, popts)
	}
	mres := machine.Multistep(p.g, ap, machine.InitSourceIn(sc.mem, p.g, start, src), machine.Options{
		CheckInvariants: p.opts.CheckInvariants,
		Governor:        gov,
		Certified:       p.certified,
	})
	var recDiags []diag.Diagnostic
	if mres.Kind == machine.Reject && p.opts.Recover {
		// Recovery only activates on a would-be Reject, so accepting inputs
		// take the exact path they take with the flag off. The driver shares
		// this parse's governor: repairs and the resumed machine segments
		// charge the same budgets and observe the same cancellation.
		rr := machine.RecoverFrom(p.g, ap, p.an, mres, machine.Options{
			Governor:  gov,
			Certified: p.certified,
		})
		mres = rr.Result
		recDiags = rr.Diags
	}
	p.accumulate(ap.Stats)
	res = Result{Kind: mres.Kind, Tree: mres.Tree, Reason: mres.Reason, Steps: mres.Steps,
		Consumed: mres.Consumed, Usage: mres.Usage, Stats: ap.Stats, Diags: recDiags}
	if res.Kind == Reject {
		res.Expected = p.expectedAt(mres.Final)
		d := diag.Errorf(diag.CodeSyntax, diag.TokenPos(mres.Consumed), "%s", mres.Reason)
		d.Expected = res.Expected
		res.Diags = append(res.Diags, d)
		if total >= 0 {
			res.Reason = fmt.Sprintf("%s (after %d of %d tokens)", res.Reason, mres.Consumed, total)
		} else {
			res.Reason = fmt.Sprintf("%s (after %d tokens)", res.Reason, mres.Consumed)
		}
		if len(res.Expected) > 0 {
			res.Reason += "; expected one of: " + strings.Join(res.Expected, ", ")
		}
	}
	if mres.Err != nil {
		res.Err = mres.Err
		res.Diags = append(res.Diags, errDiag(mres.Err, mres.Consumed))
		diag.Sort(res.Diags)
	}
	return res
}

// errDiag converts a parse-aborting error to its unified diagnostic: lexer
// failures keep their byte/line/col position (and copy their snippet out of
// the zero-copy scan window), machine errors map their kind to a diagnostic
// code at the current token index, and anything else is an internal error.
func errDiag(err error, consumed int) diag.Diagnostic {
	var lexErr *lexer.Error
	if errors.As(err, &lexErr) {
		return lexErr.Diag()
	}
	var mErr *machine.Error
	if errors.As(err, &mErr) {
		return mErr.Diag(consumed)
	}
	return diag.Errorf(diag.CodeInternal, diag.TokenPos(consumed), "%v", err)
}

// Accepts reports whether w ∈ L(G) from the session's start symbol. Because
// CoStar terminates without error on every input (for well-formed,
// non-left-recursive grammars), this is a decision procedure for language
// membership; it panics if the machine reports an internal error, which the
// static left-recursion check lets callers rule out up front.
func (p *Parser) Accepts(w []grammar.Token) bool {
	res := p.Parse(w)
	switch res.Kind {
	case Unique, Ambig:
		return true
	case Reject, Recovered:
		return false
	default:
		panic(fmt.Sprintf("parser: Accepts hit an error result: %v", res.Err))
	}
}

// ParseInputs parses n inputs on a pool of workers goroutines and returns
// the results in input order; workers <= 0 means runtime.GOMAXPROCS(0). All
// workers share the session's SLL DFA, so each input's predictions benefit
// from states any other input already forced — the cross-input cache
// monotonicity of the Figure 11 warm-cache experiment, spent on multi-core
// throughput.
//
// open(i) builds input i only when a worker picks it up, so at most workers
// inputs are resident at once; the cleanup it returns (nil allowed) runs
// after that input's parse — typically closing a file. Items are isolated:
// an open failure, a panic in open, or one item's resource blowup becomes
// that item's Error result and the rest of the batch proceeds. Once ctx
// ends the batch stops promptly: in-flight parses abort through their
// governors, not-yet-started items are drained with Canceled results
// without being opened (every slot is filled; completed items keep their
// real results), and all workers have exited by the time ParseInputs
// returns, so a canceled batch leaks no goroutines.
func (p *Parser) ParseInputs(ctx context.Context, n int, open func(i int) (Input, func(), error), workers int) []Result {
	out := make([]Result, n)
	work := func(i int) {
		if err := ctx.Err(); err != nil {
			out[i] = Result{Kind: Error, Err: machine.CanceledErr(err)}
			return
		}
		out[i] = p.openAndParse(ctx, i, open)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			work(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				work(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// openAndParse is one ParseInputs item. open runs caller code; its panics
// are contained like the parse's own, so one poisoned input cannot kill a
// batch worker.
func (p *Parser) openAndParse(ctx context.Context, i int, open func(i int) (Input, func(), error)) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			res = Result{Kind: Error, Err: machine.PanicErr(r, debug.Stack())}
		}
	}()
	in, cleanup, err := open(i)
	if err != nil {
		return Result{Kind: Error, Err: fmt.Errorf("parser: opening input %d: %w", i, err)}
	}
	if cleanup != nil {
		defer cleanup()
	}
	return p.ParseInput(ctx, in)
}

func (p *Parser) accumulate(s prediction.Stats) {
	p.statsMu.Lock()
	defer p.statsMu.Unlock()
	p.stats.SLLCalls += s.SLLCalls
	p.stats.LLFallbacks += s.LLFallbacks
	p.stats.CacheHits += s.CacheHits
	p.stats.CacheMisses += s.CacheMisses
	p.stats.TrivialCalls += s.TrivialCalls
	p.stats.TokensScanned += s.TokensScanned
	p.stats.BudgetExhaustions += s.BudgetExhaustions
	if s.MaxLookahead > p.stats.MaxLookahead {
		p.stats.MaxLookahead = s.MaxLookahead
	}
}

// Parse is the one-shot convenience API: parse w from start in g with
// default options. It validates the grammar on every call; construct a
// Parser for repeated use.
func Parse(g *grammar.Grammar, start string, w []grammar.Token) Result {
	p, err := New(g, Options{})
	if err != nil {
		return Result{Kind: Error, Err: err}
	}
	return p.ParseInput(context.Background(), Input{Start: start, Tokens: w})
}

// expectedAt computes the terminals that could have continued the parse at
// the rejected state: FIRST of the unprocessed suffix-stack symbols, plus
// "<end of input>" when the whole remainder is nullable. This is the
// "informative error message" dividend of top-down parsing that the paper's
// related-work section contrasts with LR error reporting.
func (p *Parser) expectedAt(st *machine.State) []string {
	if st == nil {
		return nil
	}
	unproc := st.Suffix.Unproc()
	set := p.an.FirstOfFormIDs(unproc)
	out := analysis.SortedSet(set)
	if p.an.NullableFormIDs(unproc) {
		out = append(out, "<end of input>")
	}
	return out
}
