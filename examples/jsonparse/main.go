// jsonparse: lex and parse real JSON with the built-in benchmark grammar,
// then walk the parse tree to evaluate it into Go values — a miniature of
// what a downstream user of the library would do.
package main

import (
	"fmt"
	"strconv"
	"strings"

	"costar"
	"costar/internal/languages/jsonlang"
)

const doc = `{
  "service": "costar-demo",
  "replicas": 3,
  "ports": [8080, 8443],
  "tls": {"enabled": true, "cert": null},
  "tags": ["verified", "all(*)"]
}`

func main() {
	toks, err := jsonlang.Tokenize(doc)
	if err != nil {
		panic(err)
	}
	p := costar.MustNewParser(jsonlang.Grammar(), costar.Options{})
	res := p.Parse(toks)
	if res.Kind != costar.Unique {
		panic(res.String())
	}
	fmt.Printf("parsed %d tokens into a %d-node tree (depth %d)\n",
		len(toks), res.Tree.Size(), res.Tree.Depth())

	v := evalValue(findChild(res.Tree, "value"))
	fmt.Printf("evaluated: %#v\n", v)
	obj := v.(map[string]any)
	fmt.Printf("service=%v replicas=%v first-port=%v\n",
		obj["service"], obj["replicas"], obj["ports"].([]any)[0])

	// The tree is a faithful derivation: validate it against the grammar.
	if err := costar.ValidateTree(jsonlang.Grammar(), "json", res.Tree, toks); err != nil {
		panic(err)
	}
	fmt.Println("tree validated against the grammar (Figure 3 relation)")
}

// evalValue interprets a "value" node of the desugared JSON grammar.
func evalValue(v *costar.Tree) any {
	child := v.Child(0)
	if child.IsLeaf() {
		tok := child.Token()
		switch tok.Terminal {
		case "STRING":
			return unquote(tok.Literal)
		case "NUMBER":
			f, _ := strconv.ParseFloat(tok.Literal, 64)
			return f
		case "true":
			return true
		case "false":
			return false
		default:
			return nil
		}
	}
	switch child.NT() {
	case "obj":
		out := map[string]any{}
		child.Walk(func(n *costar.Tree) bool {
			if n.NT() == "pair" {
				key := unquote(n.Child(0).Token().Literal)
				out[key] = evalValue(n.Child(2))
				return false // pairs do not nest directly
			}
			return true
		})
		return out
	case "arr":
		var out []any
		for _, c := range collectValues(child) {
			out = append(out, evalValue(c))
		}
		return out
	}
	return nil
}

// collectValues gathers the direct "value" nodes of an arr subtree,
// flattening the desugared list helpers (arr_star etc.).
func collectValues(n *costar.Tree) []*costar.Tree {
	var out []*costar.Tree
	n.Walk(func(t *costar.Tree) bool {
		if t.NT() == "value" {
			out = append(out, t)
			return false
		}
		return true
	})
	return out
}

func findChild(n *costar.Tree, nt string) *costar.Tree {
	var found *costar.Tree
	n.Walk(func(t *costar.Tree) bool {
		if found != nil {
			return false
		}
		if t.NT() == nt {
			found = t
			return false
		}
		return true
	})
	return found
}

func unquote(s string) string {
	s = strings.TrimPrefix(s, `"`)
	s = strings.TrimSuffix(s, `"`)
	return s
}
