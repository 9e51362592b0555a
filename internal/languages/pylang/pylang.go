// Package pylang provides the Python 3 benchmark language (Figure 8,
// row 4): a substantial subset of the Python 3 grammar (functions, classes,
// decorators, control flow, exceptions, imports, the full expression
// precedence chain, comprehension-free literals), its lexer, and the
// INDENT/DEDENT layout pass that Python's parser requires.
//
// The paper's Python grammar (from antlr/grammars-v4) desugars to 521
// productions; this subset desugars to a few hundred — the same order of
// magnitude, and by far the largest of the four benchmark grammars, which
// is what the Figure 9/10 analysis needs (grammar size drives the
// comparison-heavy map operations that make Python the slowest benchmark).
//
// The INDENT and DEDENT terminals are produced by the layout pass, not by
// lexical rules; their lexer rules match control characters (U+0001,
// U+0002) that never occur in generated sources and exist only to satisfy
// the token-producibility check.
package pylang

import (
	"fmt"
	"strings"

	"costar/internal/grammar"
	"costar/internal/languages/langkit"
	"costar/internal/lexer"
)

// Source is the grammar.
const Source = `
grammar Python3;

file_input : stmt* ;
stmt : simple_stmts | compound_stmt ;
simple_stmts : simple_stmt (';' simple_stmt)* NEWLINE ;
simple_stmt : expr_stmt | pass_stmt | flow_stmt | import_stmt | global_stmt | del_stmt | assert_stmt ;
expr_stmt : testlist (augassign testlist | ('=' testlist)*) ;
augassign : '+=' | '-=' | '*=' | '/=' | '//=' | '%=' | '**=' | '>>=' | '<<=' | '&=' | '|=' | '^=' ;
pass_stmt : 'pass' ;
flow_stmt : 'break' | 'continue' | return_stmt | raise_stmt ;
return_stmt : 'return' testlist? ;
raise_stmt : 'raise' (test ('from' test)?)? ;
import_stmt : import_name | import_from ;
import_name : 'import' dotted_as_names ;
import_from : 'from' dotted_name 'import' import_as_names ;
dotted_as_names : dotted_as_name (',' dotted_as_name)* ;
dotted_as_name : dotted_name ('as' NAME)? ;
import_as_names : import_as_name (',' import_as_name)* | '*' ;
import_as_name : NAME ('as' NAME)? ;
dotted_name : NAME ('.' NAME)* ;
global_stmt : 'global' NAME (',' NAME)* ;
del_stmt : 'del' testlist ;
assert_stmt : 'assert' test (',' test)? ;

compound_stmt : if_stmt | while_stmt | for_stmt | try_stmt | with_stmt | funcdef | classdef | decorated ;
decorated : decorator+ (funcdef | classdef) ;
decorator : '@' dotted_name ('(' arglist? ')')? NEWLINE ;
if_stmt : 'if' test ':' suite ('elif' test ':' suite)* ('else' ':' suite)? ;
while_stmt : 'while' test ':' suite ('else' ':' suite)? ;
for_stmt : 'for' exprlist 'in' testlist ':' suite ('else' ':' suite)? ;
try_stmt : 'try' ':' suite (except_clause+ ('else' ':' suite)? ('finally' ':' suite)? | 'finally' ':' suite) ;
except_clause : 'except' (test ('as' NAME)?)? ':' suite ;
with_stmt : 'with' with_item (',' with_item)* ':' suite ;
with_item : test ('as' expr)? ;
funcdef : 'def' NAME parameters ('->' test)? ':' suite ;
parameters : '(' typedargslist? ')' ;
typedargslist : tfparg (',' tfparg)* ;
tfparg : tfpdef ('=' test)? | '*' tfpdef | '**' tfpdef ;
tfpdef : NAME (':' test)? ;
classdef : 'class' NAME ('(' arglist? ')')? ':' suite ;
suite : simple_stmts | NEWLINE INDENT stmt+ DEDENT ;

test : or_test ('if' or_test 'else' test)? | lambdef ;
lambdef : 'lambda' varargslist? ':' test ;
varargslist : NAME (',' NAME)* ;
or_test : and_test ('or' and_test)* ;
and_test : not_test ('and' not_test)* ;
not_test : 'not' not_test | comparison ;
comparison : expr (comp_op expr)* ;
comp_op : '<' | '>' | '==' | '>=' | '<=' | '!=' | 'in' | 'not' 'in' | 'is' | 'is' 'not' ;
expr : xor_expr ('|' xor_expr)* ;
xor_expr : and_expr ('^' and_expr)* ;
and_expr : shift_expr ('&' shift_expr)* ;
shift_expr : arith_expr (('<<' | '>>') arith_expr)* ;
arith_expr : term (('+' | '-') term)* ;
term : factor (('*' | '/' | '//' | '%') factor)* ;
factor : ('+' | '-' | '~') factor | power ;
power : atom_expr ('**' factor)? ;
atom_expr : atom trailer* ;
atom : '(' testlist_comp? ')' | '[' testlist_comp? ']' | '{' dictorsetmaker? '}'
     | NAME | NUMBER | STRING+ | 'True' | 'False' | 'None' | '...' ;
testlist_comp : test (comp_for | (',' test)* ','?) ;
dictorsetmaker : test (':' test ((',' test ':' test)* ','? | comp_for) | comp_for | (',' test)* ','?) ;
comp_for : 'for' exprlist 'in' or_test comp_iter? ;
comp_iter : comp_for | comp_if ;
comp_if : 'if' or_test comp_iter? ;
trailer : '(' arglist? ')' | '[' subscriptlist ']' | '.' NAME ;
subscriptlist : subscript (',' subscript)* ;
subscript : test (':' test? (':' test?)?)? | ':' test? (':' test?)? ;
arglist : argument (',' argument)* ','? ;
argument : test ('=' test)? | '*' test | '**' test ;
testlist : test (',' test)* ','? ;
exprlist : expr (',' expr)* ;

NEWLINE : '\r'? '\n' ;
INDENT : '\u0001' ;
DEDENT : '\u0002' ;
NAME : [a-zA-Z_] [a-zA-Z0-9_]* ;
NUMBER : '0' [xX] [0-9a-fA-F]+ | [0-9]+ ('.' [0-9]*)? ([eE] [+\-]? [0-9]+)? | '.' [0-9]+ ;
STRING : '\'' (~['\\\n] | '\\' .)* '\'' | '"' (~["\\\n] | '\\' .)* '"' ;
LINEJOIN : '\\' '\r'? '\n' -> skip ;
COMMENT : '#' ~[\n]* -> skip ;
WS : [ \t]+ -> skip ;
`

// Lang is the compiled language; tokenization runs the layout pass, in
// batch or streaming form depending on the entry point.
var Lang = langkit.New("python3", Source, Layout, StreamLayout)

// Grammar returns the desugared BNF grammar (start symbol "file_input").
func Grammar() *grammar.Grammar { return Lang.Grammar() }

// Lexer returns the compiled lexer (pre-layout).
func Lexer() *lexer.Lexer { return Lang.Lexer() }

// Tokenize lexes Python source and applies the layout pass.
func Tokenize(src string) ([]grammar.Token, error) { return Lang.Tokenize(src) }

// layoutState is the per-line state of Python's line-structure rules:
//
//   - NEWLINE tokens inside open brackets are dropped (implicit joining);
//   - blank and comment-only lines produce no NEWLINE;
//   - indentation changes at logical-line starts emit INDENT/DEDENT
//     (indentation is the starting column of the line's first token;
//     generated corpora indent with spaces only);
//   - end of input closes any open line and outstanding indents.
//
// The state is deliberately tiny (an indent stack and two counters) so the
// streaming form retains nothing proportional to the input. Both Layout and
// StreamLayout are drains of the same feed/finish pair, so they agree by
// construction.
type layoutState struct {
	indents  []int
	depth    int  // bracket nesting
	lineOpen bool // tokens emitted since last NEWLINE
}

// layoutLevels is how many indent levels a layout state holds before its
// stack grows: generated corpora nest a handful of levels deep, and 16
// absorbs any realistic hand-written nesting.
const layoutLevels = 16

func newLayoutState() *layoutState {
	s := &layoutState{indents: make([]int, 1, layoutLevels)}
	return s
}

// feed processes one raw lexeme, appending any tokens it produces to out.
func (s *layoutState) feed(lx lexer.Lexeme, out []grammar.Token) ([]grammar.Token, error) {
	if lx.Skip {
		return out, nil
	}
	if lx.Tok.Terminal == "NEWLINE" {
		if s.depth > 0 || !s.lineOpen {
			return out, nil // implicit joining / blank line
		}
		out = append(out, grammar.Tok("NEWLINE", lx.Tok.Literal))
		s.lineOpen = false
		return out, nil
	}
	if !s.lineOpen {
		// First token of a logical line: apply indentation rules.
		col := lx.Col - 1
		switch {
		case col > s.indents[len(s.indents)-1]:
			s.indents = append(s.indents, col)
			out = append(out, grammar.Tok("INDENT", ""))
		case col < s.indents[len(s.indents)-1]:
			for len(s.indents) > 1 && col < s.indents[len(s.indents)-1] {
				s.indents = s.indents[:len(s.indents)-1]
				out = append(out, grammar.Tok("DEDENT", ""))
			}
			if col != s.indents[len(s.indents)-1] {
				return nil, fmt.Errorf("pylang: line %d: unindent to column %d does not match any outer level", lx.Line, col+1)
			}
		}
		s.lineOpen = true
	}
	switch lx.Tok.Terminal {
	case "(", "[", "{":
		s.depth++
	case ")", "]", "}":
		if s.depth > 0 {
			s.depth--
		}
	}
	return append(out, lx.Tok), nil
}

// finish closes any open logical line and outstanding indents at end of
// input.
func (s *layoutState) finish(out []grammar.Token) []grammar.Token {
	if s.lineOpen {
		out = append(out, grammar.Tok("NEWLINE", "\n"))
		s.lineOpen = false
	}
	for len(s.indents) > 1 {
		s.indents = s.indents[:len(s.indents)-1]
		out = append(out, grammar.Tok("DEDENT", ""))
	}
	return out
}

// Layout is the batch form of the line-structure pass: it drains the whole
// lexeme slice through the layout state.
func Layout(lexs []lexer.Lexeme) ([]grammar.Token, error) {
	st := newLayoutState()
	var out []grammar.Token
	var err error
	for _, lx := range lexs {
		if out, err = st.feed(lx, out); err != nil {
			return nil, err
		}
	}
	return st.finish(out), nil
}

// StreamLayout is the demand-driven form: each call pulls just enough raw
// lexemes to produce the next parser token. One lexeme can yield several
// tokens (a deep unindent emits a burst of DEDENTs), so a small queue
// buffers the surplus; it never grows beyond one line's worth of layout
// tokens. Errors — from the lexeme source or from the indentation rules —
// are sticky. The whole pass is one allocation plus the returned closure:
// the layout state, its indent stack and the queue live in one streamLayout.
func StreamLayout(next func() (lexer.Lexeme, bool, error)) func() (grammar.Token, bool, error) {
	l := &streamLayout{next: next}
	l.st.indents = l.levels[:1]
	// One feed can emit at most a DEDENT burst plus the token itself, so
	// the queue reaches steady state without growing.
	l.queue = l.buf[:0]
	return l.pull
}

// streamLayout is StreamLayout's state.
type streamLayout struct {
	next   func() (lexer.Lexeme, bool, error)
	st     layoutState
	queue  []grammar.Token
	head   int // queue[head:] is pending; queue[:head] already handed out
	done   bool
	sticky error
	levels [layoutLevels]int
	buf    [16]grammar.Token
}

// pull returns the next parser token.
func (l *streamLayout) pull() (grammar.Token, bool, error) {
	for {
		if l.sticky != nil {
			return grammar.Token{}, false, l.sticky
		}
		if l.head < len(l.queue) {
			t := l.queue[l.head]
			l.head++
			return t, true, nil
		}
		// Drained: rewind onto the full backing array. Popping by
		// reslicing (queue = queue[1:]) would strand the consumed prefix
		// and force a reallocation on nearly every refill — about one
		// extra allocation per token over a long stream.
		l.queue, l.head = l.queue[:0], 0
		if l.done {
			return grammar.Token{}, false, nil
		}
		lx, ok, err := l.next()
		if err != nil {
			l.sticky = err
			return grammar.Token{}, false, err
		}
		if !ok {
			l.queue = l.st.finish(l.queue)
			l.done = true
			continue
		}
		if l.queue, err = l.st.feed(lx, l.queue); err != nil {
			l.sticky = err
			return grammar.Token{}, false, err
		}
	}
}

// ---------------------------------------------------------------------------
// Corpus generator
// ---------------------------------------------------------------------------

var pyNames = []string{
	"data", "value", "result", "config", "items", "count", "index", "node",
	"parser", "buffer", "state", "token", "total", "cache", "queue",
}

var pyFuncs = []string{
	"process", "compute", "handle", "update", "validate", "transform",
	"collect", "resolve", "merge", "encode",
}

// Generate produces deterministic Python source of roughly targetTokens
// parser tokens (post-layout).
func Generate(seed int64, targetTokens int) string {
	g := &pgen{rng: langkit.NewRNG(seed)}
	var b strings.Builder
	b.WriteString("import os, sys\nfrom collections import deque as dq\n\n")
	g.used = 12
	for g.used < targetTokens {
		switch g.rng.Next(4) {
		case 0:
			g.classdef(&b)
		default:
			g.funcdef(&b, 0, g.rng.Bool(1, 3))
		}
		b.WriteString("\n")
	}
	return b.String()
}

type pgen struct {
	rng  *langkit.RNG
	used int
}

func (g *pgen) indent(b *strings.Builder, level int) {
	for i := 0; i < level; i++ {
		b.WriteString("    ")
	}
}

func (g *pgen) classdef(b *strings.Builder) {
	fmt.Fprintf(b, "class %s%d:\n", strings.Title(g.rng.Pick(pyNames)), g.rng.Next(100))
	g.used += 5
	methods := 1 + g.rng.Next(3)
	for i := 0; i < methods; i++ {
		g.funcdef(b, 1, false)
	}
}

func (g *pgen) funcdef(b *strings.Builder, level int, decorated bool) {
	if decorated {
		g.indent(b, level)
		fmt.Fprintf(b, "@%s\n", g.rng.Pick(pyFuncs))
		g.used += 3
	}
	g.indent(b, level)
	if g.rng.Bool(1, 4) {
		fmt.Fprintf(b, "def %s%d(%s, *%s, **%s):\n",
			g.rng.Pick(pyFuncs), g.rng.Next(1000), g.rng.Pick(pyNames), g.rng.Pick(pyNames), g.rng.Pick(pyNames))
		g.used += 14
	} else {
		fmt.Fprintf(b, "def %s%d(%s, %s=%d):\n",
			g.rng.Pick(pyFuncs), g.rng.Next(1000), g.rng.Pick(pyNames), g.rng.Pick(pyNames), g.rng.Next(10))
		g.used += 12
	}
	stmts := 2 + g.rng.Next(5)
	for i := 0; i < stmts; i++ {
		g.stmt(b, level+1, 0)
	}
}

func (g *pgen) stmt(b *strings.Builder, level, depth int) {
	if depth > 3 {
		g.simple(b, level)
		return
	}
	switch g.rng.Next(10) {
	case 0:
		g.indent(b, level)
		fmt.Fprintf(b, "if %s:\n", g.expr(2))
		g.used += 3
		g.stmt(b, level+1, depth+1)
		if g.rng.Bool(1, 2) {
			g.indent(b, level)
			b.WriteString("else:\n")
			g.used += 3
			g.stmt(b, level+1, depth+1)
		}
	case 1:
		g.indent(b, level)
		fmt.Fprintf(b, "for %s in %s:\n", g.rng.Pick(pyNames), g.expr(1))
		g.used += 5
		g.stmt(b, level+1, depth+1)
	case 2:
		g.indent(b, level)
		fmt.Fprintf(b, "while %s:\n", g.expr(2))
		g.used += 3
		g.stmt(b, level+1, depth+1)
		g.indent(b, level+1)
		b.WriteString("break\n")
		g.used += 2
	case 3:
		g.indent(b, level)
		b.WriteString("try:\n")
		g.used += 3
		g.stmt(b, level+1, depth+1)
		g.indent(b, level)
		fmt.Fprintf(b, "except ValueError as %s:\n", g.rng.Pick(pyNames))
		g.used += 6
		g.stmt(b, level+1, depth+1)
	case 4:
		g.indent(b, level)
		fmt.Fprintf(b, "with open(%q) as %s:\n", "file.txt", g.rng.Pick(pyNames))
		g.used += 9
		g.stmt(b, level+1, depth+1)
	default:
		g.simple(b, level)
	}
}

func (g *pgen) simple(b *strings.Builder, level int) {
	g.indent(b, level)
	switch g.rng.Next(12) {
	case 0:
		fmt.Fprintf(b, "%s = %s\n", g.rng.Pick(pyNames), g.expr(3))
		g.used += 3
	case 1:
		fmt.Fprintf(b, "%s += %s\n", g.rng.Pick(pyNames), g.expr(2))
		g.used += 3
	case 2:
		fmt.Fprintf(b, "return %s\n", g.expr(3))
		g.used += 2
	case 3:
		fmt.Fprintf(b, "%s.%s(%s, %s)\n",
			g.rng.Pick(pyNames), g.rng.Pick(pyFuncs), g.expr(1), g.expr(1))
		g.used += 9
	case 4:
		fmt.Fprintf(b, "assert %s, %q\n", g.expr(2), "invariant")
		g.used += 4
	case 5:
		fmt.Fprintf(b, "%s = {%q: %s, %q: [%s, %s]}\n",
			g.rng.Pick(pyNames), "a", g.expr(1), "b", g.expr(1), g.expr(1))
		g.used += 14
	case 6:
		fmt.Fprintf(b, "%s = lambda %s, %s: %s\n",
			g.rng.Pick(pyNames), g.rng.Pick(pyNames), g.rng.Pick(pyNames), g.expr(1))
		g.used += 8
	case 7:
		fmt.Fprintf(b, "del %s\n", g.rng.Pick(pyNames))
		g.used += 3
	case 8:
		fmt.Fprintf(b, "global %s, %s\n", g.rng.Pick(pyNames), g.rng.Pick(pyNames))
		g.used += 5
	case 9:
		fmt.Fprintf(b, "%s = %s[%d:%d]\n", g.rng.Pick(pyNames), g.rng.Pick(pyNames),
			g.rng.Next(5), 5+g.rng.Next(5))
		g.used += 9
	case 11:
		switch g.rng.Next(3) {
		case 0:
			fmt.Fprintf(b, "%s = [%s(%s) for %s in %s if %s > %d]\n",
				g.rng.Pick(pyNames), g.rng.Pick(pyFuncs), g.rng.Pick(pyNames),
				g.rng.Pick(pyNames), g.rng.Pick(pyNames), g.rng.Pick(pyNames), g.rng.Next(10))
			g.used += 16
		case 1:
			fmt.Fprintf(b, "%s = {%s: %s for %s in %s}\n",
				g.rng.Pick(pyNames), g.rng.Pick(pyNames), g.expr(1),
				g.rng.Pick(pyNames), g.rng.Pick(pyNames))
			g.used += 12
		default:
			fmt.Fprintf(b, "%s = {%s for %s in %s for %s in %s}\n",
				g.rng.Pick(pyNames), g.expr(1),
				g.rng.Pick(pyNames), g.rng.Pick(pyNames),
				g.rng.Pick(pyNames), g.rng.Pick(pyNames))
			g.used += 14
		}
	case 10:
		fmt.Fprintf(b, "raise ValueError(%q)\n", g.rng.Pick(pyNames))
		g.used += 6
	default:
		b.WriteString("pass\n")
		g.used += 2
	}
}

// expr builds an expression string of bounded depth; returns its text.
func (g *pgen) expr(depth int) string {
	if depth <= 0 {
		switch g.rng.Next(5) {
		case 0:
			return fmt.Sprintf("%d", g.rng.Next(1000))
		case 1:
			return fmt.Sprintf("%q", g.rng.Pick(pyNames))
		case 2:
			return "None"
		default:
			return g.rng.Pick(pyNames)
		}
	}
	switch g.rng.Next(8) {
	case 0:
		return fmt.Sprintf("%s + %s", g.expr(depth-1), g.expr(depth-1))
	case 1:
		return fmt.Sprintf("%s * %s - %d", g.expr(depth-1), g.rng.Pick(pyNames), g.rng.Next(10))
	case 2:
		return fmt.Sprintf("%s(%s)", g.rng.Pick(pyFuncs), g.expr(depth-1))
	case 3:
		return fmt.Sprintf("%s[%d]", g.rng.Pick(pyNames), g.rng.Next(10))
	case 4:
		return fmt.Sprintf("%s if %s > %d else %s",
			g.expr(depth-1), g.rng.Pick(pyNames), g.rng.Next(100), g.expr(depth-1))
	case 5:
		// Parenthesized: "not" binds loosest, so "a + not b" would be a
		// syntax error (in CPython too).
		return fmt.Sprintf("(not %s)", g.expr(depth-1))
	case 6:
		return fmt.Sprintf("%s.%s", g.rng.Pick(pyNames), g.rng.Pick(pyNames))
	default:
		return fmt.Sprintf("(%s or %s)", g.expr(depth-1), g.rng.Pick(pyNames))
	}
}
