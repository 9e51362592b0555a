package grammarlint

// Property tests: the executable form of "the static verifier and the
// dynamic detector agree".
//
//   - Certified grammars never produce a left-recursion Error: for random
//     grammars that Certify accepts, parsing random inputs (member words
//     and noise) through the full engine yields Unique/Ambig/Reject only —
//     Theorem 5.8, with the certificate standing in for the theorem's
//     hypotheses.
//   - Flagged grammars carry evidence: every left-recursion diagnostic's
//     witness cycle is validated step by step against the grammar — each
//     consecutive pair (X, Y) must be justified by a production X → α Y β
//     with α nullable.
//   - The SCC pass agrees exactly with an independent per-NT DFS kept
//     here as the reference (two implementations, one relation).

import (
	"math/rand"
	"testing"

	"costar/internal/analysis"
	"costar/internal/grammar"
	"costar/internal/machine"
	"costar/internal/parser"
	"costar/internal/source"
)

// genGrammar builds a random grammar with a healthy share of ε-productions
// so hidden left recursion (through nullable prefixes) actually occurs.
func genGrammar(rng *rand.Rand) *grammar.Grammar {
	nts := []string{"S", "A", "B", "C"}[:2+rng.Intn(3)]
	ts := []string{"a", "b", "c"}[:1+rng.Intn(3)]
	b := grammar.NewBuilder("S")
	for _, nt := range nts {
		alts := 1 + rng.Intn(3)
		for i := 0; i < alts; i++ {
			n := rng.Intn(4) // 0 = ε-production
			rhs := make([]grammar.Symbol, 0, n)
			for j := 0; j < n; j++ {
				if rng.Intn(3) == 0 {
					rhs = append(rhs, grammar.NT(nts[rng.Intn(len(nts))]))
				} else {
					rhs = append(rhs, grammar.T(ts[rng.Intn(len(ts))]))
				}
			}
			b.Add(nt, rhs...)
		}
	}
	return b.Grammar()
}

// genWord derives a word from g when possible (bounded depth), else returns
// a uniformly random word over the terminals.
func genWord(rng *rand.Rand, g *grammar.Grammar, an *analysis.Analysis) []grammar.Token {
	ts := g.Terminals()
	if rng.Intn(2) == 0 || len(ts) == 0 {
		// Derive from S with a depth budget, preferring short expansions.
		var out []grammar.Token
		budget := 40
		var expand func(nt string, depth int) bool
		expand = func(nt string, depth int) bool {
			if budget <= 0 || depth > 12 {
				return false
			}
			budget--
			idxs := g.ProductionIndices(nt)
			if len(idxs) == 0 {
				return false
			}
			i := idxs[rng.Intn(len(idxs))]
			for _, s := range g.Prods[i].Rhs {
				if s.IsT() {
					out = append(out, grammar.Tok(s.Name, s.Name))
					continue
				}
				if !expand(s.Name, depth+1) {
					return false
				}
			}
			return true
		}
		if expand(g.Start, 0) {
			return out
		}
	}
	n := rng.Intn(6)
	w := make([]grammar.Token, n)
	for i := range w {
		t := ts[rng.Intn(len(ts))]
		w[i] = grammar.Tok(t, t)
	}
	return w
}

// TestCertifiedGrammarsNeverErrorProperty: grammarlint's accept verdict
// implies the dynamic detector stays silent on every input.
func TestCertifiedGrammarsNeverErrorProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0xC057A6))
	trials := 300
	if testing.Short() {
		trials = 60
	}
	certified, flagged := 0, 0
	for trial := 0; trial < trials; trial++ {
		g := genGrammar(rng)
		r := Check(g)
		if !r.Certifiable() {
			flagged++
			continue
		}
		certified++
		if _, _, err := Certify(g); err != nil {
			t.Fatalf("trial %d: Certifiable report but Certify failed: %v", trial, err)
		}
		p, err := parser.New(g, parser.Options{CheckInvariants: true})
		if err != nil {
			t.Fatalf("trial %d: certified grammar rejected by parser.New: %v\n%s", trial, err, g)
		}
		an := analysis.New(g)
		for k := 0; k < 20; k++ {
			w := genWord(rng, g, an)
			res := p.Parse(w)
			if res.Kind == parser.Error {
				t.Fatalf("trial %d: certified grammar produced Error on %s: %v\ngrammar:\n%s",
					trial, grammar.WordString(w), res.Err, g)
			}
		}
	}
	if certified == 0 || flagged == 0 {
		t.Fatalf("generator imbalance: %d certified, %d flagged (want both > 0)", certified, flagged)
	}
	t.Logf("%d certified, %d flagged", certified, flagged)
}

// TestFlaggedGrammarsCarryValidWitnesses: every left-recursion diagnostic's
// witness cycle is a real nullable-path cycle in the grammar.
func TestFlaggedGrammarsCarryValidWitnesses(t *testing.T) {
	rng := rand.New(rand.NewSource(0xBADC0DE))
	trials := 300
	if testing.Short() {
		trials = 60
	}
	checked := 0
	for trial := 0; trial < trials; trial++ {
		g := genGrammar(rng)
		r := Check(g)
		an := analysis.New(g)
		for _, d := range r.Errors() {
			if d.Code != CodeLeftRecursion && d.Code != CodeHiddenLeftRec {
				continue
			}
			checked++
			if len(d.Witness) < 2 || d.Witness[0] != d.NT || d.Witness[len(d.Witness)-1] != d.NT {
				t.Fatalf("trial %d: malformed witness %v for %s", trial, d.Witness, d.NT)
			}
			for i := 0; i+1 < len(d.Witness); i++ {
				if !nullablePathStep(g, an, d.Witness[i], d.Witness[i+1]) {
					t.Fatalf("trial %d: witness step %s → %s has no justifying production\nwitness: %v\ngrammar:\n%s",
						trial, d.Witness[i], d.Witness[i+1], d.Witness, g)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("generator produced no left-recursion diagnostics to validate")
	}
	t.Logf("validated %d witnesses", checked)
}

// nullablePathStep reports whether some production X → α Y β has α nullable
// — the edge relation both detectors are defined over.
func nullablePathStep(g *grammar.Grammar, an *analysis.Analysis, x, y string) bool {
	for _, i := range g.ProductionIndices(x) {
		for _, s := range g.Prods[i].Rhs {
			if s.IsT() {
				break
			}
			if s.Name == y {
				return true
			}
			if !an.Nullable(s.Name) {
				break
			}
		}
	}
	return false
}

// TestSCCAgreesWithPerNTAnalysis: the Tarjan pass and the independent
// per-NT DFS flag exactly the same nonterminals.
func TestSCCAgreesWithPerNTAnalysis(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trials := 500
	if testing.Short() {
		trials = 100
	}
	for trial := 0; trial < trials; trial++ {
		g := genGrammar(rng)
		r := Check(g)
		mine := map[string]bool{}
		for _, d := range r.Errors() {
			if d.Code == CodeLeftRecursion || d.Code == CodeHiddenLeftRec {
				mine[d.NT] = true
			}
		}
		theirs := map[string]bool{}
		for nt := range perNTLeftRecursion(g) {
			theirs[nt] = true
		}
		for nt := range mine {
			if !theirs[nt] {
				t.Fatalf("trial %d: grammarlint flags %s, the per-NT DFS does not\ngrammar:\n%s", trial, nt, g)
			}
		}
		for nt := range theirs {
			if !mine[nt] {
				t.Fatalf("trial %d: the per-NT DFS flags %s, grammarlint does not\ngrammar:\n%s", trial, nt, g)
			}
		}
	}
}

// perNTLeftRecursion is the reference decision procedure the SCC pass is
// checked against: it builds the "nullable-left-corner" graph — an edge
// X → Y exists when some production X → αYβ has nullable α — and, for each
// nonterminal separately, searches for a path back to itself. It returns a
// witness cycle per left-recursive nonterminal.
func perNTLeftRecursion(g *grammar.Grammar) map[string][]string {
	an := analysis.New(g)
	edges := make(map[string][]string)
	for _, p := range g.Prods {
		for _, s := range p.Rhs {
			if s.IsT() {
				break
			}
			edges[p.Lhs] = append(edges[p.Lhs], s.Name)
			if !an.Nullable(s.Name) {
				break
			}
		}
	}
	cycles := make(map[string][]string)
	for _, nt := range g.Nonterminals() {
		if cycle := findCycle(edges, nt); cycle != nil {
			cycles[nt] = cycle
		}
	}
	return cycles
}

// findCycle searches for a path start → ... → start in edges, returning it
// (with start at both ends) or nil.
func findCycle(edges map[string][]string, start string) []string {
	// DFS from each successor of start, looking for start.
	type frame struct {
		node string
		next int
	}
	seen := map[string]bool{}
	var stack []frame
	push := func(n string) { stack = append(stack, frame{node: n}) }
	parent := map[string]string{}
	for _, succ := range edges[start] {
		if succ == start {
			return []string{start, start}
		}
		if !seen[succ] {
			seen[succ] = true
			parent[succ] = start
			push(succ)
		}
	}
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		succs := edges[top.node]
		if top.next >= len(succs) {
			stack = stack[:len(stack)-1]
			continue
		}
		n := succs[top.next]
		top.next++
		if n == start {
			// Reconstruct start → ... → top.node → start.
			var rev []string
			for cur := top.node; cur != start; cur = parent[cur] {
				rev = append(rev, cur)
			}
			path := []string{start}
			for i := len(rev) - 1; i >= 0; i-- {
				path = append(path, rev[i])
			}
			return append(path, start)
		}
		if !seen[n] {
			seen[n] = true
			parent[n] = top.node
			push(n)
		}
	}
	return nil
}

// TestFlaggedGrammarDynamicDetection drives the machine directly down a
// witness cycle with a scripted predictor, confirming the dynamic detector
// fires on grammars the static pass flags — the other direction of
// agreement on a concrete instance.
func TestFlaggedGrammarDynamicDetection(t *testing.T) {
	g := grammar.MustParseBNF(`
		A -> B A x | a ;
		B -> %empty | b
	`)
	r := Check(g)
	d := hasCode(r, CodeHiddenLeftRec, "A")
	if d == nil {
		t.Fatalf("A not flagged:\n%s", r)
	}
	// Scripted predictor: always pick A → B A x and B → ε, replaying the
	// witness derivation; the machine must report LeftRecursive(A).
	pred := scriptByFirstAlt{g: g}
	res := machine.Multistep(g, pred, machine.Init(g, "A", []grammar.Token{grammar.Tok("a", "a")}), machine.Options{})
	if res.Kind != machine.ResultError || res.Err.Kind != machine.ErrLeftRecursive {
		t.Fatalf("machine result = %v (err %v), want LeftRecursive error", res.Kind, res.Err)
	}
	if res.Err.NT != "A" {
		t.Errorf("dynamic detector blamed %s, static witness was %v", res.Err.NT, d.Witness)
	}
}

// scriptByFirstAlt always predicts the first alternative — for A → B A x /
// B → ε that is exactly the witness derivation loop.
type scriptByFirstAlt struct{ g *grammar.Grammar }

func (s scriptByFirstAlt) Predict(nt grammar.NTID, _ *machine.SuffixStack, _ *source.Cursor) machine.Prediction {
	idxs := s.g.Compiled().ProdsFor(nt)
	if len(idxs) == 0 {
		return machine.Prediction{Kind: machine.PredReject}
	}
	return machine.Prediction{Kind: machine.PredUnique, Rhs: s.g.Compiled().Rhs(idxs[0])}
}
