package allstar

import (
	"fmt"

	"costar/internal/grammar"
	"costar/internal/machine"
	"costar/internal/tree"
)

// Options configures a baseline parser session.
type Options struct {
	// FreshCachePerParse drops the learned DFA before every parse — the
	// cold-cache configuration of Figure 11. Default: keep it (ANTLR can
	// reuse a warmed cache; Section 6.2).
	FreshCachePerParse bool
}

// Parser is a reusable imperative ALL(*) parser for one grammar. Not safe
// for concurrent use.
type Parser struct {
	ig   *igrammar
	pred *predictor
	opts Options
}

// Result mirrors the verified engine's outcome so the two are directly
// comparable: same kinds, same tree type.
type Result struct {
	Kind   machine.ResultKind
	Tree   *tree.Tree
	Reason string
	Err    error
}

// New builds a baseline parser for g (validated) with g.Start as start.
func New(g *grammar.Grammar, opts Options) (*Parser, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	ig, err := intern(g, g.Start)
	if err != nil {
		return nil, err
	}
	return &Parser{ig: ig, pred: newPredictor(ig), opts: opts}, nil
}

// MustNew panics on error.
func MustNew(g *grammar.Grammar, opts Options) *Parser {
	p, err := New(g, opts)
	if err != nil {
		panic(err)
	}
	return p
}

// CacheSize reports the DFA footprint (start states, interned states).
func (p *Parser) CacheSize() (starts, states int) { return p.pred.size() }

// ResetCache drops the learned DFA.
func (p *Parser) ResetCache() { p.pred.reset() }

// WarmUp parses w and discards the result, leaving the DFA warm — the
// Figure 11 "after cache warm-up" protocol.
func (p *Parser) WarmUp(words ...[]grammar.Token) {
	for _, w := range words {
		p.Parse(w)
	}
}

// pframe is one mutable parser stack frame: a production in progress. Its
// children so far are the parse's ID stack from base up.
type pframe struct {
	prod int32
	dot  int32
	base int32
}

// Parse parses w from the grammar's start symbol. Leaves and nodes go into
// one tree table per parse and frames keep their children on one ID stack,
// as in the verified engine, so the two engines' comparison (Figure 10) is
// not an allocator comparison.
func (p *Parser) Parse(w []grammar.Token) Result {
	if p.opts.FreshCachePerParse {
		p.pred.reset()
	}
	ig := p.ig
	t := tree.NewTable(ig.c.NTNames())
	var kids []tree.ID
	frame := func(prod int32) pframe {
		return pframe{prod: prod, base: int32(len(kids))}
	}
	toks := ig.c.InternTerms(w)
	// Guard against runaway non-consuming recursion (left-recursive
	// grammars): a legitimate stack never outgrows this bound.
	maxStack := (len(toks) + 2) * (ig.c.NumNTs() + 2)
	unique := true
	pos := 0
	var stack []pframe

	// mkContext converts the current parser stack into a GSS chain for
	// full-context (LL) prediction; built lazily because SLL usually wins.
	mkContext := func() int32 {
		node := gssEmpty
		for i := range stack {
			node = p.pred.gss.push(posOf(stack[i].prod, stack[i].dot+1), node)
		}
		return node
	}

	// chooseProd predicts a production for nt.
	chooseProd := func(nt grammar.NTID) (int32, *Result) {
		alts := ig.c.ProdsFor(nt)
		if len(alts) == 1 {
			return int32(alts[0]), nil
		}
		out := p.pred.adaptivePredict(nt, toks[pos:], mkContext)
		switch out.kind {
		case predUnique:
			return out.alt, nil
		case predAmbig:
			unique = false
			return out.alt, nil
		case predReject:
			return 0, &Result{Kind: machine.Reject,
				Reason: fmt.Sprintf("no viable alternative for %s at token %d", ig.c.NTName(nt), pos)}
		default:
			return 0, &Result{Kind: machine.ResultError,
				Err: fmt.Errorf("allstar: prediction for %s exhausted its budget (left-recursive grammar?)", ig.c.NTName(nt))}
		}
	}

	// Bootstrap: predict the start symbol's production.
	prod, fail := chooseProd(ig.start)
	if fail != nil {
		return *fail
	}
	stack = append(stack, frame(prod))

	for {
		top := &stack[len(stack)-1]
		rhs := ig.c.Rhs(int(top.prod))
		if int(top.dot) == len(rhs) {
			// Reduce.
			node := t.Node(ig.c.Lhs(int(top.prod)), kids[top.base:])
			kids = kids[:top.base]
			stack = stack[:len(stack)-1]
			if len(stack) == 0 {
				if pos != len(toks) {
					return Result{Kind: machine.Reject,
						Reason: fmt.Sprintf("input continues past a complete parse at token %d", pos)}
				}
				kind := machine.Unique
				if !unique {
					kind = machine.Ambig
				}
				return Result{Kind: kind, Tree: t.Tree(node)}
			}
			kids = append(kids, node)
			stack[len(stack)-1].dot++
			continue
		}
		sym := rhs[top.dot]
		if sym.IsT() {
			if pos >= len(toks) {
				return Result{Kind: machine.Reject,
					Reason: fmt.Sprintf("input exhausted; expected %s", ig.src.Prods[top.prod].Rhs[top.dot])}
			}
			if toks[pos] != sym.Term() {
				return Result{Kind: machine.Reject,
					Reason: fmt.Sprintf("expected %s, found %s at token %d", ig.src.Prods[top.prod].Rhs[top.dot], w[pos], pos)}
			}
			kids = append(kids, t.Leaf(w[pos]))
			top.dot++
			pos++
			continue
		}
		if len(stack) >= maxStack {
			return Result{Kind: machine.ResultError,
				Err: fmt.Errorf("allstar: parser stack exceeded %d frames (left-recursive grammar?)", maxStack)}
		}
		prod, fail := chooseProd(sym.NT())
		if fail != nil {
			return *fail
		}
		stack = append(stack, frame(prod))
	}
}

func posOf(prod, dot int32) int32 { return pos(prod, dot) }
