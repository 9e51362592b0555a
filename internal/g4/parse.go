package g4

import (
	"fmt"
	"unicode/utf8"

	"costar/internal/ebnf"
	"costar/internal/lexer"
	"costar/internal/rx"
)

// fileParser consumes the token stream produced by scan.
type fileParser struct {
	toks []g4Tok
	pos  int
	// implicit tokens: inline 'literals' seen in parser rules, in order of
	// first appearance (they become the highest-priority lexer rules).
	litOrder []string
	litSeen  map[string]bool
}

func (p *fileParser) noteLiteral(text string) {
	if p.litSeen == nil {
		p.litSeen = map[string]bool{}
	}
	if !p.litSeen[text] {
		p.litSeen[text] = true
		p.litOrder = append(p.litOrder, text)
	}
}

func (p *fileParser) peek() (g4Tok, bool) {
	if p.pos >= len(p.toks) {
		return g4Tok{}, false
	}
	return p.toks[p.pos], true
}

func (p *fileParser) at(kind tokKind, text string) bool {
	t, ok := p.peek()
	return ok && t.kind == kind && (text == "" || t.text == text)
}

func (p *fileParser) take() g4Tok {
	t := p.toks[p.pos]
	p.pos++
	return t
}

func (p *fileParser) expect(kind tokKind, text string) (g4Tok, error) {
	t, ok := p.peek()
	if !ok {
		return g4Tok{}, fmt.Errorf("g4: unexpected end of file, expected %q", text)
	}
	if t.kind != kind || (text != "" && t.text != text) {
		return g4Tok{}, fmt.Errorf("g4: line %d: expected %q, found %q", t.line, text, t.text)
	}
	return p.take(), nil
}

// rawRule is a rule before lexer/parser classification is applied.
type rawRule struct {
	name     string
	fragment bool
	skip     bool
	mode     string // lexer mode the rule belongs to ("" = default)
	pushMode string
	popMode  bool
	setMode  string
	line     int
	// exactly one of these is set, by name case:
	parserBody ebnf.Expr
	lexerBody  lexExpr
}

func isLexerRuleName(name string) bool {
	r, _ := utf8.DecodeRuneInString(name)
	return r >= 'A' && r <= 'Z'
}

func (p *fileParser) file() (*File, error) {
	if _, err := p.expect(tIdent, "grammar"); err != nil {
		return nil, err
	}
	nameTok, err := p.expect(tIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tPunct, ";"); err != nil {
		return nil, err
	}
	var rules []rawRule
	currentMode := ""
	for {
		if _, ok := p.peek(); !ok {
			break
		}
		// "mode NAME ;" switches the lexer mode for subsequent rules.
		if p.at(tIdent, "mode") && p.pos+2 < len(p.toks) &&
			p.toks[p.pos+1].kind == tIdent && p.toks[p.pos+2].kind == tPunct && p.toks[p.pos+2].text == ";" {
			p.take()
			currentMode = p.take().text
			p.take()
			continue
		}
		r, err := p.rule()
		if err != nil {
			return nil, err
		}
		if r.lexerBody != nil || r.fragment {
			r.mode = currentMode
		} else if currentMode != "" {
			return nil, fmt.Errorf("g4: line %d: parser rule %s inside mode %s", r.line, r.name, currentMode)
		}
		rules = append(rules, r)
	}
	return assemble(nameTok.text, rules, p.litOrder)
}

func (p *fileParser) rule() (rawRule, error) {
	var r rawRule
	if p.at(tIdent, "fragment") {
		p.take()
		r.fragment = true
	}
	nameTok, err := p.expect(tIdent, "")
	if err != nil {
		return r, err
	}
	r.name = nameTok.text
	r.line = nameTok.line
	if _, err := p.expect(tPunct, ":"); err != nil {
		return r, err
	}
	if isLexerRuleName(r.name) {
		body, err := p.lexAlt()
		if err != nil {
			return r, err
		}
		r.lexerBody = body
	} else {
		if r.fragment {
			return r, fmt.Errorf("g4: line %d: fragment on parser rule %s", r.line, r.name)
		}
		body, err := p.ebnfAlt()
		if err != nil {
			return r, err
		}
		r.parserBody = body
	}
	// Optional "-> action, action, ..." directives: skip, channel(X),
	// pushMode(X), popMode, mode(X).
	if p.at(tPunct, "->") {
		p.take()
		for {
			d, err := p.expect(tIdent, "")
			if err != nil {
				return r, err
			}
			arg := ""
			needArg := d.text == "channel" || d.text == "pushMode" || d.text == "mode"
			if needArg {
				if _, err := p.expect(tPunct, "("); err != nil {
					return r, err
				}
				a, err := p.expect(tIdent, "")
				if err != nil {
					return r, err
				}
				arg = a.text
				if _, err := p.expect(tPunct, ")"); err != nil {
					return r, err
				}
			}
			switch d.text {
			case "skip":
				r.skip = true
			case "channel":
				r.skip = true // hidden channels never reach the parser
			case "pushMode":
				r.pushMode = arg
			case "popMode":
				r.popMode = true
			case "mode":
				r.setMode = arg
			default:
				return r, fmt.Errorf("g4: line %d: unsupported action %q", d.line, d.text)
			}
			if !p.at(tPunct, ",") {
				break
			}
			p.take()
		}
	}
	if _, err := p.expect(tPunct, ";"); err != nil {
		return r, err
	}
	return r, nil
}

// ---------------------------------------------------------------------------
// Parser-rule bodies → EBNF
// ---------------------------------------------------------------------------

func (p *fileParser) ebnfAlt() (ebnf.Expr, error) {
	first, err := p.ebnfSeq()
	if err != nil {
		return nil, err
	}
	alts := []ebnf.Expr{first}
	for p.at(tPunct, "|") {
		p.take()
		e, err := p.ebnfSeq()
		if err != nil {
			return nil, err
		}
		alts = append(alts, e)
	}
	if len(alts) == 1 {
		return alts[0], nil
	}
	return ebnf.Alt{Alts: alts}, nil
}

func (p *fileParser) ebnfSeq() (ebnf.Expr, error) {
	var items []ebnf.Expr
	for {
		t, ok := p.peek()
		if !ok || t.kind == tPunct && (t.text == "|" || t.text == ";" || t.text == ")" || t.text == "->") {
			break
		}
		e, err := p.ebnfSuffixed()
		if err != nil {
			return nil, err
		}
		if e != nil { // EOF refs vanish
			items = append(items, e)
		}
	}
	if len(items) == 1 {
		return items[0], nil
	}
	return ebnf.Seq{Items: items}, nil
}

func (p *fileParser) ebnfSuffixed() (ebnf.Expr, error) {
	e, err := p.ebnfElement()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(tPunct, "*"):
			p.take()
			if e == nil {
				return nil, fmt.Errorf("g4: operator on EOF")
			}
			e = ebnf.Star{Inner: e}
		case p.at(tPunct, "+"):
			p.take()
			if e == nil {
				return nil, fmt.Errorf("g4: operator on EOF")
			}
			e = ebnf.Plus{Inner: e}
		case p.at(tPunct, "?"):
			p.take()
			if e == nil {
				return nil, fmt.Errorf("g4: operator on EOF")
			}
			e = ebnf.Opt{Inner: e}
		default:
			return e, nil
		}
	}
}

func (p *fileParser) ebnfElement() (ebnf.Expr, error) {
	t, ok := p.peek()
	if !ok {
		return nil, fmt.Errorf("g4: unexpected end of file in rule body")
	}
	switch {
	case t.kind == tLit:
		p.take()
		p.noteLiteral(t.text)
		return ebnf.T{Name: t.text}, nil
	case t.kind == tIdent:
		p.take()
		if t.text == "EOF" {
			return nil, nil // CoStar requires full input anyway
		}
		if isLexerRuleName(t.text) {
			return ebnf.T{Name: t.text}, nil
		}
		return ebnf.NT{Name: t.text}, nil
	case t.kind == tPunct && t.text == "(":
		p.take()
		e, err := p.ebnfAlt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tPunct, ")"); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, fmt.Errorf("g4: line %d: unexpected %q in parser rule", t.line, t.text)
	}
}

// ---------------------------------------------------------------------------
// Lexer-rule bodies → lexExpr → rx.Node
// ---------------------------------------------------------------------------

// lexExpr is the pre-resolution lexer-rule AST: rx.Node shapes plus
// fragment references.
type lexExpr interface{ isLexExpr() }

type lxNode struct{ n rx.Node }  // already an rx fragment (literal, class, any)
type lxRef struct{ name string } // fragment / token reference
type lxSeq struct{ items []lexExpr }
type lxAlt struct{ alts []lexExpr }
type lxStar struct{ inner lexExpr }
type lxPlus struct{ inner lexExpr }
type lxOpt struct{ inner lexExpr }
type lxNot struct{ inner lexExpr }

func (lxNode) isLexExpr() {}
func (lxRef) isLexExpr()  {}
func (lxSeq) isLexExpr()  {}
func (lxAlt) isLexExpr()  {}
func (lxStar) isLexExpr() {}
func (lxPlus) isLexExpr() {}
func (lxOpt) isLexExpr()  {}
func (lxNot) isLexExpr()  {}

func (p *fileParser) lexAlt() (lexExpr, error) {
	first, err := p.lexSeq()
	if err != nil {
		return nil, err
	}
	alts := []lexExpr{first}
	for p.at(tPunct, "|") {
		p.take()
		e, err := p.lexSeq()
		if err != nil {
			return nil, err
		}
		alts = append(alts, e)
	}
	if len(alts) == 1 {
		return alts[0], nil
	}
	return lxAlt{alts: alts}, nil
}

func (p *fileParser) lexSeq() (lexExpr, error) {
	var items []lexExpr
	for {
		t, ok := p.peek()
		if !ok || t.kind == tPunct && (t.text == "|" || t.text == ";" || t.text == ")" || t.text == "->") {
			break
		}
		e, err := p.lexSuffixed()
		if err != nil {
			return nil, err
		}
		items = append(items, e)
	}
	if len(items) == 1 {
		return items[0], nil
	}
	return lxSeq{items: items}, nil
}

func (p *fileParser) lexSuffixed() (lexExpr, error) {
	e, err := p.lexElement()
	if err != nil {
		return nil, err
	}
	suffix := ""
	for {
		t, ok := p.peek()
		if !ok || t.kind != tPunct {
			return e, nil
		}
		switch t.text {
		case "*":
			e = lxStar{inner: e}
		case "+":
			e = lxPlus{inner: e}
		case "?":
			// ANTLR reads a ? after a suffix as non-greedy; taken as one
			// more Opt it would turn '/*' .*? '*/' into a greedy match
			// running to the last */ of the input.
			if suffix != "" {
				return nil, fmt.Errorf("g4: line %d: non-greedy %s? in a lexer rule: the lexer only does longest match", t.line, suffix)
			}
			e = lxOpt{inner: e}
		default:
			return e, nil
		}
		p.take()
		suffix = t.text
	}
}

func (p *fileParser) lexElement() (lexExpr, error) {
	t, ok := p.peek()
	if !ok {
		return nil, fmt.Errorf("g4: unexpected end of file in lexer rule")
	}
	switch {
	case t.kind == tLit:
		p.take()
		// 'a'..'z' range
		if p.at(tPunct, "..") {
			p.take()
			hiTok, err := p.expect(tLit, "")
			if err != nil {
				return nil, err
			}
			lo, hi := singleRune(t.text), singleRune(hiTok.text)
			if lo < 0 || hi < 0 || hi < lo {
				return nil, fmt.Errorf("g4: line %d: bad range %q..%q", t.line, t.text, hiTok.text)
			}
			return lxNode{rx.Class{Ranges: []rx.Range{{Lo: lo, Hi: hi}}}}, nil
		}
		return lxNode{rx.Str(t.text)}, nil
	case t.kind == tClass:
		p.take()
		c, err := parseANTLRClass(t.text, t.line)
		if err != nil {
			return nil, err
		}
		return lxNode{c}, nil
	case t.kind == tIdent:
		p.take()
		if !isLexerRuleName(t.text) {
			return nil, fmt.Errorf("g4: line %d: parser rule %q referenced from lexer rule", t.line, t.text)
		}
		return lxRef{name: t.text}, nil
	case t.kind == tPunct && t.text == ".":
		p.take()
		return lxNode{rx.AnyRune()}, nil
	case t.kind == tPunct && t.text == "~":
		p.take()
		inner, err := p.lexElement()
		if err != nil {
			return nil, err
		}
		return lxNot{inner: inner}, nil
	case t.kind == tPunct && t.text == "(":
		p.take()
		e, err := p.lexAlt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tPunct, ")"); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, fmt.Errorf("g4: line %d: unexpected %q in lexer rule", t.line, t.text)
	}
}

func singleRune(s string) rune {
	r, size := utf8.DecodeRuneInString(s)
	if size == 0 || size != len(s) {
		return -1
	}
	return r
}

// parseANTLRClass converts a raw [...] body (escapes intact) into rx.Class.
func parseANTLRClass(body string, line int) (rx.Class, error) {
	node, err := rx.Parse("[" + body + "]")
	if err != nil {
		return rx.Class{}, fmt.Errorf("g4: line %d: bad character class [%s]: %v", line, body, err)
	}
	c, ok := node.(rx.Class)
	if !ok {
		return rx.Class{}, fmt.Errorf("g4: line %d: bad character class [%s]", line, body)
	}
	return c, nil
}

// ---------------------------------------------------------------------------
// Assembly
// ---------------------------------------------------------------------------

func assemble(name string, rules []rawRule, literals []string) (*File, error) {
	f := &File{Name: name}
	frags := map[string]lexExpr{}
	var lexRules []rawRule
	var parserRules []rawRule
	for _, r := range rules {
		switch {
		case r.fragment:
			frags[r.name] = r.lexerBody
		case r.lexerBody != nil:
			lexRules = append(lexRules, r)
		default:
			parserRules = append(parserRules, r)
		}
	}
	if len(parserRules) == 0 {
		return nil, fmt.Errorf("g4: grammar %s has no parser rules", name)
	}
	// Non-fragment token rules can also be referenced from other rules.
	for _, r := range lexRules {
		if _, dup := frags[r.name]; !dup {
			frags[r.name] = r.lexerBody
		}
	}

	// EBNF parser grammar.
	eg := &ebnf.Grammar{Start: parserRules[0].name}
	for _, r := range parserRules {
		eg.Rules = append(eg.Rules, ebnf.Rule{Name: r.name, Body: r.parserBody})
	}
	f.Parser = eg

	// Implicit tokens: inline literals in parser rules, in order of first
	// appearance, placed before explicit rules (ANTLR gives them priority).
	var spec lexer.Spec
	for _, lit := range literals {
		spec.Rules = append(spec.Rules, lexer.Lit(lit))
	}
	for _, r := range lexRules {
		node, err := resolveLex(r.lexerBody, frags, map[string]bool{r.name: true})
		if err != nil {
			return nil, fmt.Errorf("g4: rule %s: %w", r.name, err)
		}
		spec.Rules = append(spec.Rules, lexer.Rule{
			Name: r.name, Pattern: node, Skip: r.skip,
			Mode: r.mode, Push: r.pushMode, Pop: r.popMode, Set: r.setMode,
		})
	}
	f.Lexer = spec

	// Every token the parser references must be producible: either an
	// implicit literal (collected above) or a non-skip lexer rule.
	producible := map[string]bool{}
	for _, r := range spec.Rules {
		if !r.Skip {
			producible[r.Name] = true
		}
	}
	for _, r := range parserRules {
		if missing := findMissingToken(r.parserBody, producible); missing != "" {
			return nil, fmt.Errorf("g4: rule %s references token %s, which no lexer rule produces", r.name, missing)
		}
	}
	return f, nil
}

// findMissingToken returns the first terminal reference not in producible,
// or "".
func findMissingToken(e ebnf.Expr, producible map[string]bool) string {
	switch e := e.(type) {
	case ebnf.T:
		if !producible[e.Name] {
			return e.Name
		}
	case ebnf.Seq:
		for _, it := range e.Items {
			if m := findMissingToken(it, producible); m != "" {
				return m
			}
		}
	case ebnf.Alt:
		for _, a := range e.Alts {
			if m := findMissingToken(a, producible); m != "" {
				return m
			}
		}
	case ebnf.Star:
		return findMissingToken(e.Inner, producible)
	case ebnf.Plus:
		return findMissingToken(e.Inner, producible)
	case ebnf.Opt:
		return findMissingToken(e.Inner, producible)
	}
	return ""
}

func resolveLex(e lexExpr, frags map[string]lexExpr, visiting map[string]bool) (rx.Node, error) {
	switch e := e.(type) {
	case lxNode:
		return e.n, nil
	case lxRef:
		if visiting[e.name] {
			return nil, fmt.Errorf("recursive lexer rule %s", e.name)
		}
		body, ok := frags[e.name]
		if !ok {
			return nil, fmt.Errorf("undefined lexer rule %s", e.name)
		}
		visiting[e.name] = true
		n, err := resolveLex(body, frags, visiting)
		delete(visiting, e.name)
		return n, err
	case lxSeq:
		parts := make([]rx.Node, 0, len(e.items))
		for _, it := range e.items {
			n, err := resolveLex(it, frags, visiting)
			if err != nil {
				return nil, err
			}
			parts = append(parts, n)
		}
		if len(parts) == 1 {
			return parts[0], nil
		}
		return rx.Concat{Parts: parts}, nil
	case lxAlt:
		alts := make([]rx.Node, 0, len(e.alts))
		for _, a := range e.alts {
			n, err := resolveLex(a, frags, visiting)
			if err != nil {
				return nil, err
			}
			alts = append(alts, n)
		}
		return rx.Alt{Alts: alts}, nil
	case lxStar:
		n, err := resolveLex(e.inner, frags, visiting)
		if err != nil {
			return nil, err
		}
		return rx.Star{Inner: n}, nil
	case lxPlus:
		n, err := resolveLex(e.inner, frags, visiting)
		if err != nil {
			return nil, err
		}
		return rx.Plus{Inner: n}, nil
	case lxOpt:
		n, err := resolveLex(e.inner, frags, visiting)
		if err != nil {
			return nil, err
		}
		return rx.Opt{Inner: n}, nil
	case lxNot:
		n, err := resolveLex(e.inner, frags, visiting)
		if err != nil {
			return nil, err
		}
		c, ok := n.(rx.Class)
		if !ok {
			return nil, fmt.Errorf("~ applies only to character sets and single characters")
		}
		if c.Negated {
			return rx.Class{Ranges: c.Ranges}, nil
		}
		return rx.Class{Ranges: c.Ranges, Negated: true}, nil
	default:
		return nil, fmt.Errorf("unknown lexer expression %T", e)
	}
}

// String summarizes the file: its name and its rule counts.
func (f *File) String() string {
	return fmt.Sprintf("grammar %s: %d parser rules, %d lexer rules",
		f.Name, len(f.Parser.Rules), len(f.Lexer.Rules))
}
