package costar

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestFacadeQuickstart(t *testing.T) {
	g := MustParseBNF(`S -> A c | A d ; A -> a A | b`)
	p := MustNewParser(g, Options{})
	res := p.Parse(Words("a", "b", "d"))
	if res.Kind != Unique {
		t.Fatalf("result = %s", res)
	}
	if err := ValidateTree(g, "S", res.Tree, Words("a", "b", "d")); err != nil {
		t.Error(err)
	}
	if res := p.Parse(Words("a", "b")); res.Kind != Reject {
		t.Errorf("result = %s", res)
	}
}

// TestValidateTreeLinearBytes holds tree validation to one left-to-right
// pass: validating the n-token right-recursive list L -> a L | a allocates
// bytes linear in n. Rebuilding every child's yield at every level
// allocated 196 MB at n = 2,000.
func TestValidateTreeLinearBytes(t *testing.T) {
	g := MustParseBNF(`L -> a L | a`)
	const n = 2000
	w := Words(strings.Fields(strings.Repeat("a ", n))...)
	res := MustNewParser(g, Options{}).Parse(w)
	if res.Kind != Unique {
		t.Fatalf("result = %s", res.Kind)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := ValidateTree(g, "L", res.Tree, w); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b > 64*n {
		t.Errorf("validating a %d-token list allocated %d bytes, want at most %d", n, b, 64*n)
	}
}

func TestFacadeOneShot(t *testing.T) {
	g := MustParseBNF(`S -> x`)
	if res := Parse(g, "S", Words("x")); res.Kind != Unique {
		t.Errorf("result = %s", res)
	}
	if res := Parse(g, "S", Words("y")); res.Kind != Reject {
		t.Errorf("result = %s", res)
	}
}

func TestFacadeAmbiguityAndError(t *testing.T) {
	amb := MustParseBNF(`S -> X | Y ; X -> a ; Y -> a`)
	if res := Parse(amb, "S", Words("a")); res.Kind != Ambig {
		t.Errorf("result = %s", res)
	}
	lr := MustParseBNF(`E -> E plus n | n`)
	if res := Parse(lr, "E", Words("n")); res.Kind != Error {
		t.Errorf("result = %s", res)
	}
}

func TestFacadeG4(t *testing.T) {
	g, l := MustLoadG4(`
		grammar Calc;
		expr : term (('+' | '-') term)* ;
		term : NUM | '(' expr ')' ;
		NUM : [0-9]+ ;
		WS : [ \t\r\n]+ -> skip ;
	`)
	toks, err := l.Tokenize("1 + (2 - 3)")
	if err != nil {
		t.Fatal(err)
	}
	p := MustNewParser(g, Options{})
	res := p.Parse(toks)
	if res.Kind != Unique {
		t.Fatalf("result = %s", res)
	}
	if y := res.Tree.Yield(); len(y) != 7 || y[0].Literal != "1" {
		t.Errorf("yield = %v", y)
	}
}

func TestFacadeG4Errors(t *testing.T) {
	if _, _, err := LoadG4("bogus"); err == nil {
		t.Error("LoadG4 accepted garbage")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustLoadG4 should panic")
		}
	}()
	MustLoadG4("bogus")
}

// TestFacadeConcurrentSmoke is the tier-1 concurrency smoke test: one
// session hammered by goroutines and the batch API, fast enough to run in
// -short mode and under -race on every `make race`.
func TestFacadeConcurrentSmoke(t *testing.T) {
	g := MustParseBNF(`S -> A c | A d ; A -> a A | b`)
	p := MustNewParser(g, Options{})
	words := [][]Token{
		Words("a", "b", "d"),
		Words("b", "c"),
		Words("a", "a", "a", "b", "c"),
		Words("a", "b"), // reject
	}
	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				w := words[(i+k)%len(words)]
				res := p.Parse(w)
				switch res.Kind {
				case Unique:
					if err := ValidateTree(g, "S", res.Tree, w); err != nil {
						t.Error(err)
						return
					}
				case Reject:
					if len(w) != 2 {
						t.Errorf("unexpected reject of %v", w)
						return
					}
				default:
					t.Errorf("unexpected result %s", res)
					return
				}
			}
		}(k)
	}
	wg.Wait()

	results := parseWords(context.Background(), p, words, 4)
	for i, res := range results[:3] {
		if res.Kind != Unique {
			t.Errorf("batch word %d: %s", i, res)
		}
	}
	if results[3].Kind != Reject {
		t.Errorf("batch word 3: %s", results[3])
	}
	if starts, states := p.CacheSize(); starts == 0 || states == 0 {
		t.Errorf("concurrent parses left the cache empty (%d, %d)", starts, states)
	}
}

// parseWords batch-parses resident words through ParseInputs under ctx.
func parseWords(ctx context.Context, p *Parser, words [][]Token, workers int) []Result {
	return p.ParseInputs(ctx, len(words), func(i int) (Input, func(), error) {
		return Input{Tokens: words[i]}, nil, nil
	}, workers)
}

func TestFacadeBuilders(t *testing.T) {
	g := NewGrammar("S", []Production{
		{Lhs: "S", Rhs: []Symbol{T("a"), NT("B")}},
		{Lhs: "B", Rhs: []Symbol{T("b")}},
	})
	if _, err := NewParser(g, Options{}); err != nil {
		t.Fatal(err)
	}
	if Tok("a", "x").Terminal != "a" {
		t.Error("Tok broken")
	}
	if !strings.Contains(g.String(), "S -> a B") {
		t.Errorf("grammar = %s", g)
	}
}
