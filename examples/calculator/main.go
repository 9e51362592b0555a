// calculator: define an expression language in the ANTLR-style syntax
// (EBNF operators, lexer rules), let the pipeline desugar it to BNF, and
// evaluate arithmetic from the parse trees — the full grammar-to-value
// workflow on a grammar a user would actually write.
package main

import (
	"fmt"
	"strconv"

	"costar"
)

const calcG4 = `
grammar Calc;

expr : term (addop term)* ;
addop : '+' | '-' ;
term : factor (mulop factor)* ;
mulop : '*' | '/' ;
factor : '-' factor | atom ;
atom : NUM | '(' expr ')' ;

NUM : [0-9]+ ('.' [0-9]+)? ;
WS : [ \t\r\n]+ -> skip ;
`

func main() {
	g, lex := costar.MustLoadG4(calcG4)
	fmt.Println("desugared grammar:")
	fmt.Print(g.String())

	p := costar.MustNewParser(g, costar.Options{})
	for _, src := range []string{
		"1 + 2 * 3",
		"(1 + 2) * 3",
		"-4 * (2 - 10) / 3",
		"2 * -3",
	} {
		toks, err := lex.Tokenize(src)
		if err != nil {
			panic(err)
		}
		res := p.Parse(toks)
		if res.Kind != costar.Unique {
			panic(res.String())
		}
		fmt.Printf("%-20s = %g\n", src, evalExpr(res.Tree))
	}

	// Syntax errors come back as Reject with a reason, never as a panic or
	// a wrong answer — the decision-procedure guarantee.
	toks, _ := lex.Tokenize("1 + * 2")
	res := p.Parse(toks)
	fmt.Printf("%-20s : %s\n", "1 + * 2", res.Kind)
	fmt.Printf("  reason: %s\n", res.Reason)
}

// evalExpr interprets an expr node: term (addop term)*.
func evalExpr(n *costar.Tree) float64 {
	acc := evalTerm(n.Child(0))
	ops, operands := flatten(n.Child(1)) // expr_star
	for i, op := range ops {
		if op == "+" {
			acc += evalTerm(operands[i])
		} else {
			acc -= evalTerm(operands[i])
		}
	}
	return acc
}

// evalTerm interprets term: factor (mulop factor)*.
func evalTerm(n *costar.Tree) float64 {
	acc := evalFactor(n.Child(0))
	ops, operands := flatten(n.Child(1)) // term_star
	for i, op := range ops {
		if op == "*" {
			acc *= evalFactor(operands[i])
		} else {
			acc /= evalFactor(operands[i])
		}
	}
	return acc
}

// flatten walks a desugared star helper (X → op operand X | ε) into
// parallel op/operand lists.
func flatten(star *costar.Tree) ([]string, []*costar.Tree) {
	var ops []string
	var operands []*costar.Tree
	for star.NumChildren() == 3 {
		// children: (addop/mulop) operand rest
		ops = append(ops, star.Child(0).Child(0).Token().Terminal)
		operands = append(operands, star.Child(1))
		star = star.Child(2)
	}
	return ops, operands
}

func evalFactor(n *costar.Tree) float64 {
	if n.NumChildren() == 2 { // '-' factor
		return -evalFactor(n.Child(1))
	}
	return evalAtom(n.Child(0))
}

func evalAtom(n *costar.Tree) float64 {
	if n.NumChildren() == 3 { // '(' expr ')'
		return evalExpr(n.Child(1))
	}
	f, err := strconv.ParseFloat(n.Child(0).Token().Literal, 64)
	if err != nil {
		panic(err)
	}
	return f
}
