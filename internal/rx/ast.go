// Package rx is a small regular-expression engine built from scratch for
// the lexing substrate: patterns → AST → one Thompson NFA → one DFA (subset
// construction) whose accepting states name the winning pattern. CompileMulti
// is the only construction; the lexer's scanner walks the result rune by
// rune for maximal munch with rule priority on ties.
//
// The paper's evaluation lexes inputs with ANTLR lexers before parsing;
// this package plays that role (see internal/lexer and internal/g4). Only
// the stdlib is used; the supported pattern syntax is the classic core:
//
//	a          literal rune (UTF-8 aware)
//	.          any rune
//	[a-z0-9_]  character class, [^...] negated
//	\n \t \r \f \\ \. \* ... escapes; \uXXXX code point
//	e1e2       concatenation
//	e1|e2      alternation
//	e* e+ e?   repetition
//	(e)        grouping
package rx

import (
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"
)

// Node is a regex AST node.
type Node interface {
	// String renders the node back into pattern syntax.
	String() string
	isNode()
}

// Range is an inclusive rune interval.
type Range struct{ Lo, Hi rune }

// Class matches one rune inside (or, when Negated, outside) Ranges.
type Class struct {
	Ranges  []Range
	Negated bool
}

// Empty matches the empty string (ε).
type Empty struct{}

// Concat matches its parts in sequence.
type Concat struct{ Parts []Node }

// Alt matches any of its alternatives.
type Alt struct{ Alts []Node }

// Star matches zero or more repetitions of Inner.
type Star struct{ Inner Node }

// Plus matches one or more repetitions of Inner.
type Plus struct{ Inner Node }

// Opt matches zero or one occurrence of Inner.
type Opt struct{ Inner Node }

func (Class) isNode()  {}
func (Empty) isNode()  {}
func (Concat) isNode() {}
func (Alt) isNode()    {}
func (Star) isNode()   {}
func (Plus) isNode()   {}
func (Opt) isNode()    {}

// maxRune is the largest code point handled.
const maxRune = utf8.MaxRune

// Lit builds a class matching exactly rune r.
func Lit(r rune) Class { return Class{Ranges: []Range{{r, r}}} }

// Str builds a concatenation of literals matching s exactly.
func Str(s string) Node {
	var parts []Node
	for _, r := range s {
		parts = append(parts, Lit(r))
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return Concat{Parts: parts}
}

// AnyRune matches any single rune.
func AnyRune() Class { return Class{Ranges: []Range{{0, maxRune}}} }

// normalized returns the class's match set as sorted, merged, non-adjacent
// ranges with negation resolved.
func (c Class) normalized() []Range {
	rs := append([]Range{}, c.Ranges...)
	sort.Slice(rs, func(i, j int) bool { return rs[i].Lo < rs[j].Lo })
	var merged []Range
	for _, r := range rs {
		if r.Lo > r.Hi {
			continue
		}
		if n := len(merged); n > 0 && r.Lo <= merged[n-1].Hi+1 {
			if r.Hi > merged[n-1].Hi {
				merged[n-1].Hi = r.Hi
			}
			continue
		}
		merged = append(merged, r)
	}
	if !c.Negated {
		return merged
	}
	var out []Range
	next := rune(0)
	for _, r := range merged {
		if r.Lo > next {
			out = append(out, Range{next, r.Lo - 1})
		}
		if r.Hi+1 > next {
			next = r.Hi + 1
		}
	}
	if next <= maxRune {
		out = append(out, Range{next, maxRune})
	}
	return out
}

// String implements Node.
func (c Class) String() string {
	rs := c.Ranges
	if len(rs) == 1 && !c.Negated && rs[0].Lo == rs[0].Hi {
		return escapeLit(rs[0].Lo)
	}
	if len(rs) == 1 && !c.Negated && rs[0].Lo == 0 && rs[0].Hi == maxRune {
		return "."
	}
	var b strings.Builder
	b.WriteByte('[')
	if c.Negated {
		b.WriteByte('^')
	}
	for _, r := range rs {
		b.WriteString(escapeClass(r.Lo))
		if r.Hi != r.Lo {
			b.WriteByte('-')
			b.WriteString(escapeClass(r.Hi))
		}
	}
	b.WriteByte(']')
	return b.String()
}

// String implements Node.
func (Empty) String() string { return "" }

// String implements Node.
func (n Concat) String() string {
	var b strings.Builder
	for _, p := range n.Parts {
		if a, ok := p.(Alt); ok {
			b.WriteString("(" + a.String() + ")")
		} else {
			b.WriteString(p.String())
		}
	}
	return b.String()
}

// String implements Node.
func (n Alt) String() string {
	parts := make([]string, len(n.Alts))
	for i, a := range n.Alts {
		parts[i] = a.String()
	}
	return strings.Join(parts, "|")
}

func suffixString(inner Node, suffix string) string {
	switch inner.(type) {
	case Class:
		return inner.String() + suffix
	default:
		return "(" + inner.String() + ")" + suffix
	}
}

// String implements Node.
func (n Star) String() string { return suffixString(n.Inner, "*") }

// String implements Node.
func (n Plus) String() string { return suffixString(n.Inner, "+") }

// String implements Node.
func (n Opt) String() string { return suffixString(n.Inner, "?") }

func escapeLit(r rune) string {
	switch r {
	case '\n':
		return `\n`
	case '\t':
		return `\t`
	case '\r':
		return `\r`
	case '\f':
		return `\f`
	case '\\', '.', '*', '+', '?', '|', '(', ')', '[', ']', '^', '$':
		return `\` + string(r)
	}
	return string(r)
}

func escapeClass(r rune) string {
	switch r {
	case '\n':
		return `\n`
	case '\t':
		return `\t`
	case '\r':
		return `\r`
	case '\f':
		return `\f`
	case '\\', ']', '^', '-':
		return `\` + string(r)
	}
	return string(r)
}

// Parse parses a pattern into an AST.
func Parse(pattern string) (Node, error) {
	p := &rxParser{src: []rune(pattern)}
	n, err := p.alt()
	if err != nil {
		return nil, fmt.Errorf("rx: %w", err)
	}
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("rx: unexpected %q at offset %d", string(p.src[p.pos]), p.pos)
	}
	return n, nil
}

// MustParse is Parse panicking on error, for pattern literals.
func MustParse(pattern string) Node {
	n, err := Parse(pattern)
	if err != nil {
		panic(err)
	}
	return n
}

type rxParser struct {
	src []rune
	pos int
}

func (p *rxParser) peek() (rune, bool) {
	if p.pos >= len(p.src) {
		return 0, false
	}
	return p.src[p.pos], true
}

func (p *rxParser) alt() (Node, error) {
	first, err := p.concat()
	if err != nil {
		return nil, err
	}
	alts := []Node{first}
	for {
		r, ok := p.peek()
		if !ok || r != '|' {
			break
		}
		p.pos++
		n, err := p.concat()
		if err != nil {
			return nil, err
		}
		alts = append(alts, n)
	}
	if len(alts) == 1 {
		return alts[0], nil
	}
	return Alt{Alts: alts}, nil
}

func (p *rxParser) concat() (Node, error) {
	var parts []Node
	for {
		r, ok := p.peek()
		if !ok || r == '|' || r == ')' {
			break
		}
		n, err := p.repeat()
		if err != nil {
			return nil, err
		}
		parts = append(parts, n)
	}
	switch len(parts) {
	case 0:
		return Empty{}, nil
	case 1:
		return parts[0], nil
	}
	return Concat{Parts: parts}, nil
}

func (p *rxParser) repeat() (Node, error) {
	n, err := p.atom()
	if err != nil {
		return nil, err
	}
	for {
		r, ok := p.peek()
		if !ok {
			return n, nil
		}
		switch r {
		case '*':
			p.pos++
			n = Star{Inner: n}
		case '+':
			p.pos++
			n = Plus{Inner: n}
		case '?':
			p.pos++
			n = Opt{Inner: n}
		default:
			return n, nil
		}
	}
}

func (p *rxParser) atom() (Node, error) {
	r, ok := p.peek()
	if !ok {
		return nil, fmt.Errorf("unexpected end of pattern")
	}
	switch r {
	case '(':
		p.pos++
		n, err := p.alt()
		if err != nil {
			return nil, err
		}
		if r2, ok := p.peek(); !ok || r2 != ')' {
			return nil, fmt.Errorf("missing ')'")
		}
		p.pos++
		return n, nil
	case '[':
		return p.class()
	case '.':
		p.pos++
		return AnyRune(), nil
	case '\\':
		p.pos++
		lit, err := p.escape()
		if err != nil {
			return nil, err
		}
		return Lit(lit), nil
	case '*', '+', '?':
		return nil, fmt.Errorf("repetition %q with nothing to repeat", string(r))
	case ')':
		return nil, fmt.Errorf("unmatched ')'")
	default:
		p.pos++
		return Lit(r), nil
	}
}

func (p *rxParser) class() (Node, error) {
	p.pos++ // '['
	var c Class
	if r, ok := p.peek(); ok && r == '^' {
		c.Negated = true
		p.pos++
	}
	for {
		r, ok := p.peek()
		if !ok {
			return nil, fmt.Errorf("unterminated character class")
		}
		if r == ']' {
			p.pos++
			if len(c.Ranges) == 0 {
				return nil, fmt.Errorf("empty character class")
			}
			return c, nil
		}
		lo, err := p.classRune()
		if err != nil {
			return nil, err
		}
		hi := lo
		if r2, ok := p.peek(); ok && r2 == '-' {
			if r3 := p.src[p.pos+1 : min(p.pos+2, len(p.src))]; len(r3) == 1 && r3[0] != ']' {
				p.pos++ // '-'
				hi, err = p.classRune()
				if err != nil {
					return nil, err
				}
				if hi < lo {
					return nil, fmt.Errorf("inverted range %q-%q", string(lo), string(hi))
				}
			}
		}
		c.Ranges = append(c.Ranges, Range{lo, hi})
	}
}

func (p *rxParser) classRune() (rune, error) {
	r, ok := p.peek()
	if !ok {
		return 0, fmt.Errorf("unterminated character class")
	}
	p.pos++
	if r != '\\' {
		return r, nil
	}
	return p.escape()
}

func (p *rxParser) escape() (rune, error) {
	r, ok := p.peek()
	if !ok {
		return 0, fmt.Errorf("dangling backslash")
	}
	p.pos++
	switch r {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case 'f':
		return '\f', nil
	case '0':
		return 0, nil
	case 'u':
		if p.pos+4 > len(p.src) {
			return 0, fmt.Errorf(`\u needs four hex digits`)
		}
		v := rune(0)
		for i := 0; i < 4; i++ {
			d := hexVal(p.src[p.pos+i])
			if d < 0 {
				return 0, fmt.Errorf(`bad \u escape`)
			}
			v = v<<4 | rune(d)
		}
		p.pos += 4
		return v, nil
	default:
		return r, nil // identity escape: \\, \., \[, \-, \' ...
	}
}

func hexVal(r rune) int {
	switch {
	case r >= '0' && r <= '9':
		return int(r - '0')
	case r >= 'a' && r <= 'f':
		return int(r-'a') + 10
	case r >= 'A' && r <= 'F':
		return int(r-'A') + 10
	}
	return -1
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
