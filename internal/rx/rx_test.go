package rx

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"unicode/utf8"
)

// longest runs m's longest-match loop over s from its first byte, the way
// the lexer's scanner does — an ASCII byte through the table (NextByte),
// any other rune through the range search (Next): the byte length of the
// longest accepted prefix, the pattern that wins it, and whether any
// (possibly empty) prefix was accepted.
func longest(m *MultiDFA, s string) (length, pattern int, ok bool) {
	st := m.Start()
	pattern = m.Accept(st)
	ok = pattern >= 0
	for i := 0; i < len(s); {
		size := 1
		if b := s[i]; b < utf8.RuneSelf {
			st = m.NextByte(st, b)
		} else {
			var r rune
			r, size = utf8.DecodeRuneInString(s[i:])
			st = m.Next(st, r)
		}
		if st < 0 {
			break
		}
		i += size
		if p := m.Accept(st); p >= 0 {
			length, pattern, ok = i, p, true
		}
	}
	return length, pattern, ok
}

// compile builds the automaton of one pattern.
func compile(t *testing.T, pattern string) *MultiDFA {
	t.Helper()
	n, err := Parse(pattern)
	if err != nil {
		t.Fatalf("compile %q: %v", pattern, err)
	}
	return CompileMulti([]Node{n})
}

// matches reports whether m accepts exactly s.
func matches(m *MultiDFA, s string) bool {
	n, _, ok := longest(m, s)
	return ok && n == len(s)
}

func mustMatch(t *testing.T, pattern, s string, want bool) {
	t.Helper()
	if got := matches(compile(t, pattern), s); got != want {
		t.Errorf("%q matches %q = %v, want %v", pattern, s, got, want)
	}
}

func TestBasicMatching(t *testing.T) {
	mustMatch(t, "abc", "abc", true)
	mustMatch(t, "abc", "ab", false)
	mustMatch(t, "abc", "abcd", false)
	mustMatch(t, "a|b", "a", true)
	mustMatch(t, "a|b", "b", true)
	mustMatch(t, "a|b", "c", false)
	mustMatch(t, "a*", "", true)
	mustMatch(t, "a*", "aaaa", true)
	mustMatch(t, "a+", "", false)
	mustMatch(t, "a+", "aaa", true)
	mustMatch(t, "a?b", "b", true)
	mustMatch(t, "a?b", "ab", true)
	mustMatch(t, "a?b", "aab", false)
	mustMatch(t, "(ab)*c", "ababc", true)
	mustMatch(t, "(ab)*c", "abac", false)
	mustMatch(t, "", "", true)
	mustMatch(t, "", "x", false)
}

func TestClasses(t *testing.T) {
	mustMatch(t, "[a-z]+", "hello", true)
	mustMatch(t, "[a-z]+", "Hello", false)
	mustMatch(t, "[a-zA-Z_][a-zA-Z0-9_]*", "_ident9", true)
	mustMatch(t, "[a-zA-Z_][a-zA-Z0-9_]*", "9ident", false)
	mustMatch(t, "[^0-9]", "x", true)
	mustMatch(t, "[^0-9]", "5", false)
	mustMatch(t, `[\]\-]`, "]", true)
	mustMatch(t, `[\]\-]`, "-", true)
	mustMatch(t, "[a-c]", "b", true)
	mustMatch(t, "[a-c]", "d", false)
	// '-' at class end is literal.
	mustMatch(t, "[a-]", "-", true)
	mustMatch(t, "[a-]", "a", true)
}

func TestEscapesAndUnicode(t *testing.T) {
	mustMatch(t, `\n`, "\n", true)
	mustMatch(t, `\t`, "\t", true)
	mustMatch(t, `\\`, `\`, true)
	mustMatch(t, `\.`, ".", true)
	mustMatch(t, `\.`, "x", false)
	mustMatch(t, `A`, "A", true)
	mustMatch(t, `é+`, "ééé", true)
	mustMatch(t, "[α-ω]+", "λμν", true)
	mustMatch(t, "[α-ω]+", "abc", false)
	mustMatch(t, ".", "日", true)
	mustMatch(t, "..", "日本", true)
}

func TestParseErrors(t *testing.T) {
	bad := []string{"(", ")", "(a", "[", "[]", "[z-a]", "*", "+a*b(", `\u12`, `a\`}
	for _, p := range bad {
		if _, err := Parse(p); err == nil {
			t.Errorf("Parse(%q) should fail", p)
		}
	}
}

func TestLongestPrefix(t *testing.T) {
	d := compile(t, "[0-9]+")
	if n, _, ok := longest(d, "123abc"); !ok || n != 3 {
		t.Errorf("longest = %d, %v", n, ok)
	}
	if _, _, ok := longest(d, "abc"); ok {
		t.Error("no digits should mean no match")
	}
	// Maximal munch prefers the longer alternative.
	if n, _, ok := longest(compile(t, "a|ab"), "abz"); !ok || n != 2 {
		t.Errorf("maximal munch = %d, %v; want 2", n, ok)
	}
	// ε-accepting pattern reports a zero-length match.
	if n, _, ok := longest(compile(t, "a*"), "bbb"); !ok || n != 0 {
		t.Errorf("ε prefix = %d, %v", n, ok)
	}
}

func TestStrAndRoundTrip(t *testing.T) {
	d := CompileMulti([]Node{Str("let")})
	if !matches(d, "let") || matches(d, "le") {
		t.Error("Str literal broken")
	}
	// String() output reparses to an equivalent matcher.
	for _, p := range []string{"a(b|c)*d", "[a-f0-9]+", `x\.y`, "a?b+c*", "[^\"]*"} {
		n := MustParse(p)
		n2, err := Parse(n.String())
		if err != nil {
			t.Fatalf("reparse of %q (from %q) failed: %v", n.String(), p, err)
		}
		d1, d2 := CompileMulti([]Node{n}), CompileMulti([]Node{n2})
		for _, s := range []string{"", "a", "ab", "abc", "x.y", "xy", "deadbeef", `"q"`} {
			n1, _, ok1 := longest(d1, s)
			n2, _, ok2 := longest(d2, s)
			if n1 != n2 || ok1 != ok2 {
				t.Errorf("round-trip changed semantics of %q on %q", p, s)
			}
		}
	}
}

// TestDifferentialAgainstStdlib drives random pattern lists and inputs
// through the automaton the lexer uses and the standard library's regexp,
// which serves as the reference semantics: each pattern anchored at the
// input's start, with (?s) so '.' matches anything, and leftmost-longest
// matching. Across the list, the longest match wins and a tie goes to the
// lowest index — maximal munch with rule priority. The inputs mix ASCII
// with two multi-byte runes, so both the byte table and the range search
// run (and negated classes such as [^ab] match outside ASCII); every
// automaton's byte table must also agree with its range search on every
// state and every ASCII byte.
func TestDifferentialAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []rune("abc01é→")
	for trial := 0; trial < 400; trial++ {
		var pats []string
		var nodes []Node
		var std []*regexp.Regexp
		for k := 1 + rng.Intn(4); k > 0; k-- {
			pat := randPattern(rng, 4)
			re, err := regexp.Compile(`(?s)\A(?:` + pat + `)`)
			if err != nil {
				continue // pattern landed outside the common subset
			}
			re.Longest()
			n, err := Parse(pat)
			if err != nil {
				t.Fatalf("our parser rejected %q accepted by stdlib: %v", pat, err)
			}
			pats = append(pats, pat)
			nodes = append(nodes, n)
			std = append(std, re)
		}
		if len(nodes) == 0 {
			continue
		}
		m := CompileMulti(nodes)
		checkByteTable(t, m, pats)
		want := func(s string) (length, pattern int, ok bool) {
			length, pattern = 0, -1
			for i, re := range std {
				if loc := re.FindStringIndex(s); loc != nil && (!ok || loc[1] > length) {
					length, pattern, ok = loc[1], i, true
				}
			}
			return length, pattern, ok
		}
		if _, wp, _ := want(""); m.Accept(m.Start()) != wp {
			t.Fatalf("patterns %q: start accepts %d, stdlib's first ε pattern is %d", pats, m.Accept(m.Start()), wp)
		}
		for i := 0; i < 60; i++ {
			n := rng.Intn(8)
			var b strings.Builder
			for j := 0; j < n; j++ {
				b.WriteRune(alphabet[rng.Intn(len(alphabet))])
			}
			s := b.String()
			gl, gp, gok := longest(m, s)
			wl, wp, wok := want(s)
			if gl != wl || gp != wp || gok != wok {
				t.Fatalf("patterns %q input %q: got (%d, %d, %v), stdlib (%d, %d, %v)", pats, s, gl, gp, gok, wl, wp, wok)
			}
		}
	}
}

// checkByteTable requires NextByte(s, b) == Next(s, rune(b)) for every
// state s of m and every ASCII byte b.
func checkByteTable(t *testing.T, m *MultiDFA, pats []string) {
	t.Helper()
	for s := 0; s < m.NumStates(); s++ {
		for b := 0; b < utf8.RuneSelf; b++ {
			if got, want := m.NextByte(s, byte(b)), m.Next(s, rune(b)); got != want {
				t.Fatalf("patterns %q: state %d byte %#x: NextByte %d, Next %d", pats, s, b, got, want)
			}
		}
	}
}

// randPattern emits patterns in the syntax subset shared with stdlib.
func randPattern(rng *rand.Rand, depth int) string {
	if depth <= 0 {
		return string("abc01"[rng.Intn(5)])
	}
	switch rng.Intn(10) {
	// Repetitions are always parenthesized: "e+?" means non-greedy plus in
	// the stdlib but Plus-then-Opt here, so bare stacking is excluded from
	// the shared subset.
	case 0:
		return "(" + randPattern(rng, depth-1) + ")*"
	case 1:
		return "(" + randPattern(rng, depth-1) + ")+"
	case 2:
		return "(" + randPattern(rng, depth-1) + ")?"
	case 3:
		return "(" + randPattern(rng, depth-1) + "|" + randPattern(rng, depth-1) + ")"
	case 4, 5:
		return "(" + randPattern(rng, depth-1) + randPattern(rng, depth-1) + ")"
	case 6:
		return "[abc]"
	case 7:
		return "[^ab]"
	case 8:
		return "[a-c0-1]"
	default:
		return string("abc01"[rng.Intn(5)])
	}
}

func TestClassNormalization(t *testing.T) {
	c := Class{Ranges: []Range{{'d', 'f'}, {'a', 'c'}, {'e', 'g'}}}
	got := c.normalized()
	if len(got) != 1 || got[0].Lo != 'a' || got[0].Hi != 'g' {
		t.Errorf("normalized = %v", got)
	}
	neg := Class{Ranges: []Range{{'b', 'c'}}, Negated: true}
	rs := neg.normalized()
	if len(rs) != 2 || rs[0].Lo != 0 || rs[0].Hi != 'a' || rs[1].Lo != 'd' || rs[1].Hi != maxRune {
		t.Errorf("negated = %v", rs)
	}
	// Inverted and empty ranges are dropped.
	junk := Class{Ranges: []Range{{'z', 'a'}}}
	if len(junk.normalized()) != 0 {
		t.Errorf("inverted range kept: %v", junk.normalized())
	}
}

func TestNodeStrings(t *testing.T) {
	cases := map[string]Node{
		"a":      Lit('a'),
		".":      AnyRune(),
		"ab":     Str("ab"),
		"a|b":    Alt{Alts: []Node{Lit('a'), Lit('b')}},
		"(a|b)c": Concat{Parts: []Node{Alt{Alts: []Node{Lit('a'), Lit('b')}}, Lit('c')}},
		"a*":     Star{Inner: Lit('a')},
		"(ab)+":  Plus{Inner: Str("ab")},
		"[a-c]?": Opt{Inner: Class{Ranges: []Range{{'a', 'c'}}}},
		`\n`:     Lit('\n'),
		"[^a]":   Class{Ranges: []Range{{'a', 'a'}}, Negated: true},
	}
	for want, n := range cases {
		if got := n.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
}

func TestDFAStateCount(t *testing.T) {
	// Sanity: a keyword DFA has len+1 reachable states.
	d := CompileMulti([]Node{Str("return")})
	if d.NumStates() != len("return")+1 {
		t.Errorf("NumStates = %d, want %d", d.NumStates(), len("return")+1)
	}
}
