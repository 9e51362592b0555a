// Package g4 reads a grammar written in an ANTLR-4-like syntax and splits
// it into the two artifacts the rest of the pipeline consumes: an EBNF
// parser grammar (internal/ebnf, desugared to BNF for CoStar) and a lexical
// specification (internal/lexer). It is the front end of the paper's
// grammar conversion tool (Section 6.1): "we built a tool that converts a
// grammar in ANTLR's input format to the ... data structure that CoStar
// takes as input".
//
// Supported subset:
//
//	grammar Name;
//	ruleName : alternative | alternative ;      // parser rule (lowercase)
//	TOKEN    : 'lit' [a-z]+ ~["\\] . FRAG* ;    // lexer rule (uppercase)
//	fragment FRAG : ... ;                        // lexer fragment
//	WS : [ \t\r\n]+ -> skip ;                    // skip / hidden-channel
//
// Parser-rule elements: 'literals' (implicit tokens), TOKEN refs, rule
// refs, (...), e*, e+, e?, alternation. Lexer-rule elements: 'literals',
// ['character classes'] with ANTLR escapes, ~negation of classes and
// single-char literals, '.', 'a'..'z' ranges, fragment refs, grouping and
// the same operators. Comments (// and /* */) are ignored.
package g4

import (
	"fmt"
	"strings"

	"costar/internal/ebnf"
	"costar/internal/grammar"
	"costar/internal/lexer"
)

// File is a parsed grammar file.
type File struct {
	Name   string
	Parser *ebnf.Grammar
	Lexer  lexer.Spec
}

// Parse reads a .g4-subset source into a File. The parser grammar's start
// symbol is the first parser rule.
func Parse(src string) (*File, error) {
	toks, err := scan(src)
	if err != nil {
		return nil, err
	}
	p := &fileParser{toks: toks}
	return p.file()
}

// Compile runs the whole grammar-conversion pipeline on .g4 source: Parse,
// then the EBNF desugarer for the BNF grammar, then the lexer compiler.
func Compile(src string) (*grammar.Grammar, *lexer.Lexer, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, nil, err
	}
	g, err := ebnf.Desugar(f.Parser)
	if err != nil {
		return nil, nil, err
	}
	lex, err := lexer.New(f.Lexer)
	if err != nil {
		return nil, nil, err
	}
	return g, lex, nil
}

// MustParse is Parse panicking on error.
func MustParse(src string) *File {
	f, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return f
}

// ---------------------------------------------------------------------------
// Scanner
// ---------------------------------------------------------------------------

type tokKind uint8

const (
	tIdent tokKind = iota // ruleName, TOKEN, keywords
	tLit                  // 'text' with escapes resolved
	tClass                // [...] raw body (escapes kept for the class parser)
	tPunct                // : ; | ( ) * + ? ~ . -> ..
)

type g4Tok struct {
	kind tokKind
	text string
	line int
}

func scan(src string) ([]g4Tok, error) {
	var out []g4Tok
	line := 1
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case strings.HasPrefix(src[i:], "//"):
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case strings.HasPrefix(src[i:], "/*"):
			end := strings.Index(src[i+2:], "*/")
			if end < 0 {
				return nil, fmt.Errorf("g4: line %d: unterminated block comment", line)
			}
			line += strings.Count(src[i:i+2+end+2], "\n")
			i += 2 + end + 2
		case c == '\'':
			lit, n, err := scanLiteral(src[i:], line)
			if err != nil {
				return nil, err
			}
			out = append(out, g4Tok{tLit, lit, line})
			i += n
		case c == '[':
			j := i + 1
			for j < len(src) && src[j] != ']' {
				if src[j] == '\\' && j+1 < len(src) {
					j++
				}
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("g4: line %d: unterminated character class", line)
			}
			out = append(out, g4Tok{tClass, src[i+1 : j], line})
			i = j + 1
		case strings.HasPrefix(src[i:], "->"):
			out = append(out, g4Tok{tPunct, "->", line})
			i += 2
		case strings.HasPrefix(src[i:], ".."):
			out = append(out, g4Tok{tPunct, "..", line})
			i += 2
		case strings.ContainsRune(":;|()*+?~.,", rune(c)):
			out = append(out, g4Tok{tPunct, string(c), line})
			i++
		case isIdentByte(c):
			j := i
			for j < len(src) && isIdentByte(src[j]) {
				j++
			}
			out = append(out, g4Tok{tIdent, src[i:j], line})
			i = j
		default:
			return nil, fmt.Errorf("g4: line %d: unexpected character %q", line, string(c))
		}
	}
	return out, nil
}

func isIdentByte(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// scanLiteral reads 'text' starting at src[0] == '\” and returns the
// unescaped text and bytes consumed.
func scanLiteral(src string, line int) (string, int, error) {
	var b strings.Builder
	i := 1
	for i < len(src) {
		switch src[i] {
		case '\'':
			return b.String(), i + 1, nil
		case '\\':
			if i+1 >= len(src) {
				return "", 0, fmt.Errorf("g4: line %d: dangling escape", line)
			}
			i++
			switch src[i] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case 'f':
				b.WriteByte('\f')
			case '\\', '\'':
				b.WriteByte(src[i])
			case 'u':
				if i+4 >= len(src) {
					return "", 0, fmt.Errorf("g4: line %d: bad \\u escape", line)
				}
				v := rune(0)
				for k := 1; k <= 4; k++ {
					d := hexVal(src[i+k])
					if d < 0 {
						return "", 0, fmt.Errorf("g4: line %d: bad \\u escape", line)
					}
					v = v<<4 | rune(d)
				}
				b.WriteRune(v)
				i += 4
			default:
				b.WriteByte('\\')
				b.WriteByte(src[i])
			}
			i++
		case '\n':
			return "", 0, fmt.Errorf("g4: line %d: newline in literal", line)
		default:
			b.WriteByte(src[i])
			i++
		}
	}
	return "", 0, fmt.Errorf("g4: line %d: unterminated literal", line)
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}
