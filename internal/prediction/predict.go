package prediction

import (
	"costar/internal/analysis"
	"costar/internal/grammar"
	"costar/internal/machine"
	"costar/internal/source"
)

// Stats counts prediction activity; the Figure 10/11 benchmarks and the
// ablation tests read these.
type Stats struct {
	SLLCalls       int    // adaptivePredict invocations that ran SLL
	LLFallbacks    int    // times SLL failed over to LL
	CacheHits      int    // DFA edges followed from the cache
	CacheMisses    int    // DFA edges computed and inserted
	TrivialCalls   int    // decisions with a single alternative (no prediction)
	MaxLookahead   int    // deepest lookahead used by any single decision
	MaxLookaheadNT string // the decision nonterminal that used it
	TokensScanned  int    // total lookahead tokens examined
	// BudgetExhaustions counts closure-budget blowups (anomalyBudget): a
	// defensive backstop tripping, previously folded silently into the LL
	// fallback path. Non-zero values mean a single closure call outgrew the
	// per-call budget (closureBudget) — the grammar or the input is
	// adversarial.
	BudgetExhaustions int
}

// Options tunes an AdaptivePredictor.
type Options struct {
	// DisableSLL skips SLL entirely and answers every decision with LL
	// prediction. This is the paper's implicit baseline for the value of
	// the DFA cache (ablation: BenchmarkAblationSLLCache).
	DisableSLL bool
	// Cache supplies a pre-existing DFA cache, enabling cross-input reuse
	// (the Figure 11 "warmed cache" configuration). Nil means fresh.
	Cache *Cache
	// Governor, when non-nil, enforces the parse's cancellation context and
	// cumulative resource limits inside the closure loops — the layer where
	// adversarial inputs burn time without taking machine steps. The same
	// governor must be shared with the machine run.
	Governor *machine.Governor
}

// AdaptivePredictor implements machine.Predictor with the adaptivePredict
// algorithm. A predictor is cheap and carries per-call scratch (decisionNT,
// Stats), so create one per parse or per goroutine; the *Cache it uses is
// safe for concurrent use and is the piece worth sharing — concurrent
// predictors over one Cache warm a single DFA for all of them.
type AdaptivePredictor struct {
	eng        engine
	cache      *Cache
	opts       Options
	decisionNT grammar.NTID // current decision, for lookahead attribution
	Stats      Stats
}

// New builds an AdaptivePredictor for g. The static return-target analysis
// is computed once here (or supply a shared *analysis.Targets via NewWith).
func New(g *grammar.Grammar, opts Options) *AdaptivePredictor {
	return NewWith(g, analysis.NewTargets(g), opts)
}

// NewWith is New with a precomputed Targets (grammar analyses are pure, so
// sharing across predictors is safe).
func NewWith(g *grammar.Grammar, targets *analysis.Targets, opts Options) *AdaptivePredictor {
	ap := &AdaptivePredictor{eng: engine{c: g.Compiled(), budget: closureBudget, scr: newScratch(g.Compiled())}}
	ap.eng.stats = &ap.Stats
	ap.Reset(targets, opts)
	return ap
}

// Cache returns the predictor's DFA cache, so callers can reuse it for
// later inputs (Section 6.2 notes ANTLR can do this and CoStar could not;
// parser sessions expose it as the paper's discussed extension).
func (ap *AdaptivePredictor) Cache() *Cache { return ap.cache }

// Reset rearms the predictor for another parse of the same grammar: fresh
// Stats, new targets/cache/governor from opts (a nil Cache is a fresh one,
// a nil Governor an unlimited one), scratch buffers and arenas retained.
// It must only be called between parses — never while a prediction is in
// flight — and only with targets computed for the same grammar the
// predictor was built with. Pooled parser sessions use this to reach
// steady-state zero predictor allocation.
func (ap *AdaptivePredictor) Reset(targets *analysis.Targets, opts Options) {
	c := opts.Cache
	if c == nil {
		c = NewCache(ap.eng.c)
	}
	gov := opts.Governor
	if gov == nil {
		gov = machine.NewGovernor(nil, machine.Limits{})
	}
	ap.cache = c
	ap.opts = opts
	ap.decisionNT = 0
	ap.Stats = Stats{}
	ap.eng.targets = targets
	ap.eng.gov = gov
}

// Predict implements machine.Predictor: adaptivePredict for decision
// nonterminal nt with the machine's current suffix stack and a lookahead
// cursor over the remaining tokens. Prediction only peeks the cursor —
// depth k examines la.Peek(k) — so each decision's lookahead depth is
// exactly the window the cursor must retain (the per-prediction high-water
// mark recorded in Stats.MaxLookahead). A truncated source reads as end of
// input here; the machine distinguishes the two cases via the cursor's Err
// after the decision returns.
func (ap *AdaptivePredictor) Predict(nt grammar.NTID, suffix *machine.SuffixStack, la *source.Cursor) machine.Prediction {
	idxs := ap.eng.c.ProdsFor(nt)
	switch len(idxs) {
	case 0:
		return machine.Prediction{Kind: machine.PredReject}
	case 1:
		// A single alternative is not a decision; no subparsers needed.
		ap.Stats.TrivialCalls++
		return machine.Prediction{Kind: machine.PredUnique, Rhs: ap.eng.c.Rhs(idxs[0])}
	}
	ap.decisionNT = nt
	ap.eng.beginDecision()
	if !ap.opts.DisableSLL {
		ap.Stats.SLLCalls++
		if p, ok := ap.sllPredict(nt, la); ok {
			return p
		}
		ap.Stats.LLFallbacks++
	}
	return ap.llPredict(nt, suffix, la)
}

// ---------------------------------------------------------------------------
// LL mode: precise simulation on the real machine stack
// ---------------------------------------------------------------------------

// llPredict launches one subparser per right-hand side of nt, each carrying
// the machine's actual suffix stack, and advances them in lockstep until
// they all agree (UniqueP), all die (RejectP), or several complete parses
// survive to the end of the input (AmbigP). Left recursion discovered here
// is genuine and yields ErrorP.
func (ap *AdaptivePredictor) llPredict(nt grammar.NTID, suffix *machine.SuffixStack, la *source.Cursor) machine.Prediction {
	c := ap.eng.c
	scr := ap.eng.scr
	below := scr.stacks.enterMachine(suffix)
	v0 := machine.NTSet{}.AddIn(&scr.words, nt)
	initial := scr.initial[:0]
	for _, idx := range c.ProdsFor(nt) {
		initial = append(initial, config{
			alt:     int32(idx),
			top:     scr.stacks.push(nt, int32(idx), 0, below),
			visited: v0,
		})
	}
	scr.initial = initial[:0]
	cfgs, pred := ap.closeAndCheckLL(initial, 0)
	if pred != nil {
		return *pred
	}
	for depth := 0; ; depth++ {
		if gErr := ap.eng.gov.LookaheadTick(); gErr != nil {
			return machine.Prediction{Kind: machine.PredError, Err: gErr}
		}
		term, ok := la.Peek(depth)
		if !ok {
			return ap.resolveAtEOF(cfgs, depth)
		}
		ap.noteLookahead(depth + 1)
		cfgs, pred = ap.closeAndCheckLL(ap.eng.move(cfgs, term), depth+1)
		if pred != nil {
			return *pred
		}
	}
}

// closeAndCheckLL closes the configs and applies the LL loop's early-exit
// rules; a non-nil prediction ends the decision.
func (ap *AdaptivePredictor) closeAndCheckLL(work []config, depth int) ([]config, *machine.Prediction) {
	res := ap.eng.closure(modeLL, work)
	switch res.anomaly {
	case anomalyLeftRec:
		p := machine.Prediction{Kind: machine.PredError,
			Err: machine.LeftRecursive(ap.eng.c.NTName(res.lrNT), "detected during LL prediction")}
		return nil, &p
	case anomalyBudget:
		p := machine.Prediction{Kind: machine.PredError,
			Err: machine.InvalidState("LL prediction closure budget exhausted")}
		return nil, &p
	case anomalyGoverned:
		p := machine.Prediction{Kind: machine.PredError, Err: res.govErr}
		return nil, &p
	}
	cfgs := res.stable
	if len(cfgs) == 0 {
		p := machine.Prediction{Kind: machine.PredReject, FailDepth: depth}
		return nil, &p
	}
	alts, _ := ap.eng.altSummary(cfgs)
	if len(alts) == 1 {
		p := machine.Prediction{Kind: machine.PredUnique, Rhs: ap.eng.c.Rhs(alts[0])}
		return nil, &p
	}
	return cfgs, nil
}

// resolveAtEOF applies the end-of-input rule shared by both modes: only
// subparsers that completed an entire parse remain viable.
func (ap *AdaptivePredictor) resolveAtEOF(cfgs []config, depth int) machine.Prediction {
	_, halted := ap.eng.altSummary(cfgs)
	switch len(halted) {
	case 0:
		return machine.Prediction{Kind: machine.PredReject, FailDepth: depth}
	case 1:
		return machine.Prediction{Kind: machine.PredUnique, Rhs: ap.eng.c.Rhs(halted[0])}
	default:
		// Multiple complete parses: the input is ambiguous. Choose the
		// lowest-numbered alternative, as ANTLR does.
		return machine.Prediction{Kind: machine.PredAmbig, Rhs: ap.eng.c.Rhs(halted[0])}
	}
}

// ---------------------------------------------------------------------------
// SLL mode: cached simulation on overapproximated context
// ---------------------------------------------------------------------------

// sllPredict runs the cached SLL simulation. It returns (prediction, true)
// when the SLL outcome is trustworthy, and (_, false) when prediction must
// recommence in LL mode: on SLL conflicts (the paper's AmbigP-in-SLL case)
// and on any anomaly (left-recursion kills may be spurious under
// overapproximated context, and killed subparsers would also make RejectP
// unsound).
func (ap *AdaptivePredictor) sllPredict(nt grammar.NTID, la *source.Cursor) (machine.Prediction, bool) {
	// The decision works in one generation throughout: its frame IDs name
	// that generation's frames. A concurrent Reset leaves the decision on
	// its pre-Reset snapshot.
	g := ap.cache.gen.Load()
	st := g.start(nt, func() *dfaState { return ap.buildStart(g, nt) })
	if st == nil {
		// The governor halted start-state construction; the abort is final
		// (true): retrying in LL would charge the same exhausted budget.
		return machine.Prediction{Kind: machine.PredError, Err: ap.eng.gov.Err()}, true
	}
	for depth := 0; ; depth++ {
		if gErr := ap.eng.gov.LookaheadTick(); gErr != nil {
			return machine.Prediction{Kind: machine.PredError, Err: gErr}, true
		}
		if st.anomalous {
			return machine.Prediction{}, false
		}
		if st.uniqueAlt >= 0 {
			return machine.Prediction{Kind: machine.PredUnique, Rhs: ap.eng.c.Rhs(st.uniqueAlt)}, true
		}
		if len(st.configs) == 0 && len(st.haltedAlts) == 0 {
			return machine.Prediction{Kind: machine.PredReject, FailDepth: depth}, true
		}
		term, haveTok := la.Peek(depth)
		if !haveTok {
			switch len(st.haltedAlts) {
			case 0:
				return machine.Prediction{Kind: machine.PredReject, FailDepth: depth}, true
			case 1:
				return machine.Prediction{Kind: machine.PredUnique, Rhs: ap.eng.c.Rhs(st.haltedAlts[0])}, true
			default:
				// SLL "ambiguity" merely means the overapproximation could
				// not separate the alternatives — recompute precisely.
				return machine.Prediction{}, false
			}
		}
		ap.noteLookahead(depth + 1)
		next := st.edge(term)
		if next != nil {
			ap.Stats.CacheHits++
		} else {
			// Miss: build the successor and publish it. A goroutine racing
			// on the same edge interns the identical state (content
			// addressing), so setEdge converges regardless of who wins.
			ap.Stats.CacheMisses++
			res := ap.eng.closure(modeSLL, ap.eng.moveState(&g.frames, st.configs, term))
			if res.anomaly == anomalyGoverned {
				// A governed abort reflects this parse's budget, not the
				// grammar: never intern it into the shared DFA, where it
				// would poison decisions of unrelated parses.
				return machine.Prediction{Kind: machine.PredError, Err: res.govErr}, true
			}
			next = st.setEdge(term, ap.cache.intern(&ap.eng, g, res))
		}
		st = next
	}
}

// buildStart computes generation g's DFA start state for decision
// nonterminal nt. It returns nil — without publishing anything — when the
// governor halted construction; the governor's sticky error carries the
// cause.
func (ap *AdaptivePredictor) buildStart(g *cacheGen, nt grammar.NTID) *dfaState {
	c := ap.eng.c
	scr := ap.eng.scr
	v0 := machine.NTSet{}.AddIn(&scr.words, nt)
	initial := scr.initial[:0]
	for _, idx := range c.ProdsFor(nt) {
		initial = append(initial, config{
			alt:     int32(idx),
			top:     scr.stacks.push(nt, int32(idx), 0, -1),
			visited: v0,
		})
	}
	scr.initial = initial[:0]
	res := ap.eng.closure(modeSLL, initial)
	if res.anomaly == anomalyGoverned {
		return nil
	}
	return ap.cache.intern(&ap.eng, g, res)
}

func (ap *AdaptivePredictor) noteLookahead(depth int) {
	ap.Stats.TokensScanned++
	if depth > ap.Stats.MaxLookahead {
		ap.Stats.MaxLookahead = depth
		ap.Stats.MaxLookaheadNT = ap.eng.c.NTName(ap.decisionNT)
	}
}
