package machine_test

import (
	"testing"

	"costar/internal/languages/pylang"
	"costar/internal/machine"
	"costar/internal/prediction"
	"costar/internal/source"
)

// TestPooledScratchBoundedByStackDepth pins the in-place rule (DESIGN.md
// §5f): a pooled Mem that serves a short Python parse and then one about
// 20× longer retains scratch bounded by the stack-depth high-water mark,
// not by the token or step count. An in-place run owns one prefix and one
// suffix node per depth, each prefix node holding accumulators of at most
// maxRHS+1 elements; carving in doubling chunks can at most double that,
// plus one minimum chunk. A run that kept every step's state, nodes and
// accumulators until Reset — the persistent machine's allocation pattern —
// would blow the bound by two orders of magnitude.
func TestPooledScratchBoundedByStackDepth(t *testing.T) {
	g := pylang.Grammar()
	maxRhs := 0
	for _, rhs := range g.Compiled().Tables().ProdRhs {
		maxRhs = max(maxRhs, len(rhs))
	}
	cache := prediction.NewCache(g.Compiled())
	mem := machine.NewMem()
	parse := func(size int) (machine.Result, int) {
		toks, err := pylang.Tokenize(pylang.Generate(11, size))
		if err != nil {
			t.Fatal(err)
		}
		gov := machine.NewGovernor(nil, machine.Limits{})
		ap := prediction.New(g, prediction.Options{Cache: cache, Governor: gov})
		res := machine.Multistep(g, ap, machine.InitSourceIn(mem, g, g.Start, source.FromTokens(g.Compiled(), toks)),
			machine.Options{Governor: gov})
		if res.Kind != machine.Unique {
			t.Fatalf("%d-token parse: %v %s", len(toks), res.Kind, res.Reason)
		}
		mem.Reset() // what the parser's pool does on release
		return res, len(toks)
	}

	_, short := parse(400)
	res, long := parse(11000)
	if long < 15*short {
		t.Fatalf("long input has %d tokens, short %d: want about 20x", long, short)
	}
	bound := 2*(maxRhs+1)*(res.Usage.StackDepth+2) + 64
	if res.Steps < 10*bound {
		t.Fatalf("%d steps against a bound of %d elements: the input is too small to tell", res.Steps, bound)
	}
	for name, c := range mem.ScratchCap() {
		if c > bound {
			t.Errorf("%s arena retains %d elements after a %d-token, %d-step parse of stack depth %d; want <= %d",
				name, c, long, res.Steps, res.Usage.StackDepth, bound)
		}
	}
	t.Logf("tokens %d→%d, steps %d, depth %d, bound %d, retained %v",
		short, long, res.Steps, res.Usage.StackDepth, bound, mem.ScratchCap())
}
