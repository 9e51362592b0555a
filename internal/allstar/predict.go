package allstar

import (
	"sort"

	"costar/internal/grammar"
)

// predictor owns the GSS and the persistent DFA cache. One predictor
// serves a whole session; Reset drops the learned DFA (cold-cache runs).
// The DFA has the verified engine's layout: start states indexed by
// nonterminal and edges by terminal, so Figure 10 compares machines rather
// than tables.
type predictor struct {
	ig  *igrammar
	gss *gss

	starts []*pdfaState // by decision nonterminal
	states map[string]*pdfaState
}

type pdfaState struct {
	configs    []config
	haltedAlts []int32
	uniqueAlt  int32 // -1 when unresolved
	conflict   int32 // lowest alt of an early-detected conflict, or -1
	anomalous  bool
	// edges holds the successor per terminal t at t+1 (slot 0 for
	// NoTerm); nil for a state adaptivePredict answers at without reading
	// a token.
	edges []*pdfaState
}

// predOutcome is the predictor's answer for one decision.
type predOutcome struct {
	kind predKind
	alt  int32 // production index for predUnique / predAmbig
}

type predKind uint8

const (
	predUnique predKind = iota
	predAmbig
	predReject
	predError
)

// closureBudget bounds expansions per closure call — the stop for runaway
// GSS growth on left-recursive or adversarial grammars, and the baseline
// engine's counterpart of the verified engine's per-call budget.
const closureBudget = 1 << 20

func newPredictor(ig *igrammar) *predictor {
	return &predictor{
		ig:     ig,
		gss:    newGSS(),
		starts: make([]*pdfaState, ig.c.NumNTs()),
		states: make(map[string]*pdfaState),
	}
}

// reset drops the DFA but keeps the GSS (node ids stay valid).
func (p *predictor) reset() {
	clear(p.starts)
	p.states = make(map[string]*pdfaState)
}

func (p *predictor) size() (starts, states int) {
	for _, st := range p.starts {
		if st != nil {
			starts++
		}
	}
	return starts, len(p.states)
}

// adaptivePredict picks a production for decision nonterminal nt. The
// machine's current stack (as GSS continuation chain) is supplied lazily
// via mkContext, so the common SLL path never materializes it.
func (p *predictor) adaptivePredict(nt grammar.NTID, remaining []grammar.TermID, mkContext func() int32) predOutcome {
	st := p.starts[nt]
	if st == nil {
		st = p.buildStart(nt)
		p.starts[nt] = st
	}
	for depth := 0; ; depth++ {
		if st.anomalous {
			return p.llPredict(nt, remaining, mkContext())
		}
		if st.uniqueAlt >= 0 {
			return predOutcome{kind: predUnique, alt: st.uniqueAlt}
		}
		if st.conflict >= 0 {
			// Early SLL conflict (same GSS node, different alternatives):
			// the overapproximated context cannot separate them. Retry with
			// full context, which either separates them or confirms the
			// ambiguity without scanning to end of input.
			return p.llPredict(nt, remaining, mkContext())
		}
		if len(st.configs) == 0 && len(st.haltedAlts) == 0 {
			return predOutcome{kind: predReject}
		}
		if depth == len(remaining) {
			return resolveEOF(st.haltedAlts)
		}
		t := remaining[depth]
		next := st.edges[t+1]
		if next == nil {
			next = p.intern(p.closure(modeSLL, moveConfigs(p.ig, p.gss, st.configs, t)))
			st.edges[t+1] = next
		}
		st = next
	}
}

func resolveEOF(halted []int32) predOutcome {
	switch len(halted) {
	case 0:
		return predOutcome{kind: predReject}
	case 1:
		return predOutcome{kind: predUnique, alt: halted[0]}
	default:
		return predOutcome{kind: predAmbig, alt: halted[0]}
	}
}

func (p *predictor) buildStart(nt grammar.NTID) *pdfaState {
	var work []config
	for _, prod := range p.ig.c.ProdsFor(nt) {
		work = append(work, config{alt: int32(prod), stack: p.gss.push(pos(int32(prod), 0), gssEmpty)})
	}
	return p.intern(p.closure(modeSLL, work))
}

type pmode uint8

const (
	modeSLL pmode = iota
	modeLL
)

type pclosure struct {
	stable    []config
	anomalous bool
}

// closure drives configs to stable positions (terminal at the dot, or
// halted), with GSS merging providing deduplication for free.
func (p *predictor) closure(m pmode, work []config) pclosure {
	var out pclosure
	seen := make(map[config]bool, len(work)*2)
	stable := make(map[config]bool)
	budget := closureBudget
	ig, g := p.ig, p.gss
	for len(work) > 0 {
		if budget--; budget < 0 {
			out.anomalous = true
			return out
		}
		c := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[c] {
			continue
		}
		seen[c] = true
		if c.stack == haltedStack {
			if !stable[c] {
				stable[c] = true
				out.stable = append(out.stable, c)
			}
			continue
		}
		f := g.frame(c.stack)
		prod, dot := posProd(f), posDot(f)
		rhs := ig.c.Rhs(int(prod))
		if int(dot) == len(rhs) {
			parent := g.parent(c.stack)
			if parent != gssEmpty {
				work = append(work, config{alt: c.alt, stack: parent})
				continue
			}
			lhs := ig.c.Lhs(int(prod))
			if m == modeLL {
				work = append(work, config{alt: c.alt, stack: haltedStack})
				continue
			}
			for _, cs := range ig.callSites[lhs] {
				work = append(work, config{alt: c.alt, stack: g.push(cs, gssEmpty)})
			}
			if ig.canFinish[lhs] {
				work = append(work, config{alt: c.alt, stack: haltedStack})
			}
			continue
		}
		sym := rhs[dot]
		if sym.IsT() {
			if !stable[c] {
				stable[c] = true
				out.stable = append(out.stable, c)
			}
			continue
		}
		// Push. Left recursion makes the GSS chain grow unboundedly and is
		// stopped by the budget; the verified engine is the component that
		// gives precise LeftRecursive errors.
		cont := g.push(pos(prod, dot+1), g.parent(c.stack))
		for _, q := range ig.c.ProdsFor(sym.NT()) {
			work = append(work, config{alt: c.alt, stack: g.push(pos(int32(q), 0), cont)})
		}
	}
	return out
}

// moveConfigs advances stable configs over terminal t.
func moveConfigs(ig *igrammar, g *gss, cfgs []config, t grammar.TermID) []config {
	want := grammar.TermSym(t)
	var out []config
	for _, c := range cfgs {
		if c.stack == haltedStack {
			continue
		}
		f := g.frame(c.stack)
		prod, dot := posProd(f), posDot(f)
		rhs := ig.c.Rhs(int(prod))
		// Stable configs always dot a terminal, so a plain SymID compare
		// suffices (an unknown input terminal encodes to a negative SymID
		// and can never equal one).
		if int(dot) < len(rhs) && rhs[dot] == want {
			out = append(out, config{alt: c.alt, stack: g.push(pos(prod, dot+1), g.parent(c.stack))})
		}
	}
	return out
}

// intern canonicalizes a closure result into a DFA state. Configs are pairs
// of ints, so the signature is cheap.
func (p *predictor) intern(cl pclosure) *pdfaState {
	cfgs := cl.stable
	sort.Slice(cfgs, func(i, j int) bool {
		if cfgs[i].alt != cfgs[j].alt {
			return cfgs[i].alt < cfgs[j].alt
		}
		return cfgs[i].stack < cfgs[j].stack
	})
	buf := make([]byte, 0, len(cfgs)*8+1)
	if cl.anomalous {
		buf = append(buf, 0xff)
	}
	for _, c := range cfgs {
		buf = append(buf,
			byte(c.alt), byte(c.alt>>8), byte(c.alt>>16), byte(c.alt>>24),
			byte(c.stack), byte(c.stack>>8), byte(c.stack>>16), byte(c.stack>>24))
	}
	key := string(buf)
	if st, ok := p.states[key]; ok {
		return st
	}
	st := &pdfaState{uniqueAlt: -1, conflict: -1, anomalous: cl.anomalous, configs: cfgs}
	// Resolution facts.
	altSet := map[int32]bool{}
	for _, c := range cfgs {
		altSet[c.alt] = true
		if c.stack == haltedStack {
			if len(st.haltedAlts) == 0 || st.haltedAlts[len(st.haltedAlts)-1] != c.alt {
				st.haltedAlts = append(st.haltedAlts, c.alt)
			}
		}
	}
	if len(altSet) == 1 && !st.anomalous {
		for a := range altSet {
			st.uniqueAlt = a
		}
	}
	// Early conflict: two configs with the same stack but different alts
	// (sorted order puts equal stacks of one alt together; detect via map).
	if st.uniqueAlt < 0 && !st.anomalous {
		byStack := map[int32]int32{}
		for _, c := range cfgs {
			if c.stack == haltedStack {
				continue
			}
			if prev, ok := byStack[c.stack]; ok && prev != c.alt {
				if st.conflict < 0 || prev < st.conflict {
					st.conflict = prev
				}
			} else if !ok {
				byStack[c.stack] = c.alt
			}
		}
		if len(st.haltedAlts) > 1 && st.conflict < 0 {
			st.conflict = st.haltedAlts[0]
		}
	}
	if st.uniqueAlt < 0 && st.conflict < 0 && !st.anomalous && len(cfgs) > 0 {
		st.edges = make([]*pdfaState, p.ig.c.NumTerms()+1)
	}
	p.states[key] = st
	return st
}

// llPredict re-runs the decision with the parser's full context.
func (p *predictor) llPredict(nt grammar.NTID, remaining []grammar.TermID, context int32) predOutcome {
	var work []config
	for _, prod := range p.ig.c.ProdsFor(nt) {
		work = append(work, config{alt: int32(prod), stack: p.gss.push(pos(int32(prod), 0), context)})
	}
	cl := p.closure(modeLL, work)
	for depth := 0; ; depth++ {
		if cl.anomalous {
			return predOutcome{kind: predError}
		}
		if len(cl.stable) == 0 {
			return predOutcome{kind: predReject}
		}
		if out, done := resolveLL(cl.stable); done {
			return out
		}
		if depth == len(remaining) {
			var halted []int32
			seen := map[int32]bool{}
			for _, c := range cl.stable {
				if c.stack == haltedStack && !seen[c.alt] {
					seen[c.alt] = true
					halted = append(halted, c.alt)
				}
			}
			sort.Slice(halted, func(i, j int) bool { return halted[i] < halted[j] })
			return resolveEOF(halted)
		}
		cl = p.closure(modeLL, moveConfigs(p.ig, p.gss, cl.stable, remaining[depth]))
	}
}

// resolveLL applies convergence and exact-conflict rules to a full-context
// closure: one alternative left → unique. Early ambiguity fires only under
// ANTLR's "all subsets conflict" condition: every live configuration sits
// on a stack shared by the same set of ≥2 alternatives, and no halted
// configuration offers an alternative future — then all futures are paired,
// so the input is ambiguous between exactly those alternatives (if it
// parses at all, which is the only case where the label matters).
func resolveLL(cfgs []config) (predOutcome, bool) {
	altSet := map[int32]bool{}
	groups := map[int32]map[int32]bool{} // stack → alts on it
	hasHalted := false
	for _, c := range cfgs {
		altSet[c.alt] = true
		if c.stack == haltedStack {
			hasHalted = true
			continue
		}
		g := groups[c.stack]
		if g == nil {
			g = map[int32]bool{}
			groups[c.stack] = g
		}
		g[c.alt] = true
	}
	if len(altSet) == 1 {
		for a := range altSet {
			return predOutcome{kind: predUnique, alt: a}, true
		}
	}
	if hasHalted || len(groups) == 0 {
		return predOutcome{}, false
	}
	var ref map[int32]bool
	for _, g := range groups {
		if len(g) < 2 {
			return predOutcome{}, false
		}
		if ref == nil {
			ref = g
			continue
		}
		if len(g) != len(ref) {
			return predOutcome{}, false
		}
		for a := range g {
			if !ref[a] {
				return predOutcome{}, false
			}
		}
	}
	min := int32(-1)
	for a := range ref {
		if min < 0 || a < min {
			min = a
		}
	}
	return predOutcome{kind: predAmbig, alt: min}, true
}
