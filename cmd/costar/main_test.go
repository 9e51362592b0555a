package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"costar"
)

func write(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// drain opens an input and pulls every token — how the tests observe what
// the deferred-open inputs would feed the parser.
func drain(t *testing.T, in input) []costar.Token {
	t.Helper()
	src, cleanup, err := in.open()
	if err != nil {
		t.Fatal(err)
	}
	if cleanup != nil {
		defer cleanup()
	}
	var out []costar.Token
	for {
		tok, ok, err := src.Pull()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, tok)
	}
}

func TestLoadInputsLang(t *testing.T) {
	f := write(t, "t.json", `{"a": [1, true]}`)
	g, inputs, err := loadInputs("json", "", "", "", []string{f})
	if err != nil {
		t.Fatal(err)
	}
	if g.Start != "json" || len(inputs) != 1 {
		t.Fatalf("start=%q inputs=%d", g.Start, len(inputs))
	}
	if toks := drain(t, inputs[0]); len(toks) != 9 { // { STRING : [ NUM , true ] }
		t.Errorf("tokens = %v", toks)
	}
	if _, _, err := loadInputs("klingon", "", "", "", []string{f}); err == nil {
		t.Error("unknown language accepted")
	}
	// -tokens is input text, lexed like a file of the language.
	_, inputs, err = loadInputs("json", "", "", `{"a": 1}`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if toks := drain(t, inputs[0]); len(inputs) != 1 || len(toks) != 5 || toks[1].Terminal != "STRING" {
		t.Errorf("-tokens inputs=%d tokens=%v", len(inputs), toks)
	}
	if _, _, err := loadInputs("json", "", "", `{"a": 1}`, []string{f}); err == nil {
		t.Error("-tokens with file arguments accepted")
	}
}

func TestLoadInputsG4(t *testing.T) {
	gf := write(t, "calc.g4", `
		grammar Calc;
		e : NUM ('+' NUM)* ;
		NUM : [0-9]+ ;
		WS : [ ]+ -> skip ;
	`)
	inf := write(t, "in.txt", "1 + 2 + 3")
	g, inputs, err := loadInputs("", gf, "", "", []string{inf})
	if err != nil {
		t.Fatal(err)
	}
	if g.Start != "e" || len(inputs) != 1 {
		t.Fatalf("start=%q inputs=%v", g.Start, inputs)
	}
	if toks := drain(t, inputs[0]); len(toks) != 5 {
		t.Errorf("tokens = %v", toks)
	}
	_, inputs, err = loadInputs("", gf, "", "1 + 2", nil)
	if err != nil {
		t.Fatal(err)
	}
	if toks := drain(t, inputs[0]); len(toks) != 3 || toks[0].Literal != "1" {
		t.Errorf("-tokens tokens = %v", toks)
	}
}

func TestLoadInputsBNF(t *testing.T) {
	bf := write(t, "g.bnf", "S -> a S | b")
	g, inputs, err := loadInputs("", "", bf, "a a b", nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Start != "S" || len(inputs) != 1 {
		t.Fatalf("start=%q inputs=%v", g.Start, inputs)
	}
	if toks := drain(t, inputs[0]); len(toks) != 3 || toks[0].Terminal != "a" {
		t.Errorf("tokens = %v", toks)
	}
	if _, _, err := loadInputs("", "", "", "", nil); err == nil {
		t.Error("missing mode flag accepted")
	}
}

func TestLoadInputsMultipleFiles(t *testing.T) {
	a := write(t, "a.json", `{"k": 1}`)
	b := write(t, "b.json", `[1, 2, 3]`)
	_, inputs, err := loadInputs("json", "", "", "", []string{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(inputs) != 2 || inputs[0].name != a || inputs[1].name != b {
		t.Errorf("inputs = %v", inputs)
	}
}

// TestLoadInputsDeferredOpen: inputs must not touch the filesystem until
// opened, so a missing file fails at parse time, not at load time.
func TestLoadInputsDeferredOpen(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.json")
	_, inputs, err := loadInputs("json", "", "", "", []string{missing})
	if err != nil {
		t.Fatalf("load should defer the open: %v", err)
	}
	if _, _, err := inputs[0].open(); err == nil {
		t.Error("open of a missing file succeeded")
	}
	err = run("json", "", "", "", "", cliOptions{workers: 1}, []string{missing})
	if err == nil || !strings.Contains(err.Error(), "parse error") {
		t.Errorf("err = %v", err)
	}
}

func TestRunEndToEnd(t *testing.T) {
	f := write(t, "t.json", `{"k": null}`)
	all := cliOptions{workers: 1, showTree: true, pretty: true, stats: true, check: true, dot: true}
	if err := run("json", "", "", "", "", all, []string{f}); err != nil {
		t.Fatal(err)
	}
	// The same file through an artifact of the built-in language.
	art := filepath.Join(t.TempDir(), "json.csar")
	if err := compile("json", "", "", art, 0, 0, true, nil); err != nil {
		t.Fatal(err)
	}
	if err := run("", "", "", art, "", all, []string{f}); err != nil {
		t.Fatalf("-artifact: %v", err)
	}
	bad := write(t, "bad.json", `{"k": }`)
	err := run("json", "", "", "", "", cliOptions{workers: 1}, []string{bad})
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Errorf("err = %v", err)
	}
}

// TestRunParallelBatch drives the worker-pool path: several files parsed on
// a shared session via -j, including a rejecting file whose error must name
// the offending file and not suppress the other results.
func TestRunParallelBatch(t *testing.T) {
	files := []string{
		write(t, "a.json", `{"a": [1, true]}`),
		write(t, "b.json", `[null, {"b": "c"}]`),
		write(t, "c.json", `{"deep": {"deeper": [1, 2, {"deepest": false}]}}`),
		write(t, "d.json", `[[[1], [2]], []]`),
	}
	for _, j := range []int{0, 1, 2, 8} {
		if err := run("json", "", "", "", "", cliOptions{workers: j}, files); err != nil {
			t.Fatalf("j=%d: %v", j, err)
		}
	}
	bad := write(t, "bad.json", `{"k": }`)
	err := run("json", "", "", "", "", cliOptions{workers: 2}, append(files, bad))
	if err == nil || !strings.Contains(err.Error(), "rejected") || !strings.Contains(err.Error(), "bad.json") {
		t.Errorf("err = %v", err)
	}
}

// TestRunLexFailure: a file whose bytes do not lex must produce a parse
// error (the streaming pipeline surfaces lexing failures mid-parse), not a
// false accept or a crash.
func TestRunLexFailure(t *testing.T) {
	bad := write(t, "bad.json", "{\"k\": \x01}")
	err := run("json", "", "", "", "", cliOptions{workers: 1}, []string{bad})
	if err == nil || !strings.Contains(err.Error(), "parse error") {
		t.Errorf("err = %v", err)
	}
}

func TestRunLeftRecursionWarning(t *testing.T) {
	bf := write(t, "lr.bnf", "E -> E plus n | n")
	err := run("", "", bf, "", "n", cliOptions{workers: 1}, nil)
	if err == nil || !strings.Contains(err.Error(), "parse error") {
		t.Errorf("err = %v", err)
	}
}

// TestExitCodes pins the exit-code contract: 0 clean accept, 1 reject or
// recovered, 2 engine error, 3 usage — stable with and without -recover.
func TestExitCodes(t *testing.T) {
	good := write(t, "good.json", `{"k": 1}`)
	bad := write(t, "bad.json", `{"k": }`)
	lexbad := write(t, "lexbad.json", "{\"k\": \x01}")

	if err := run("json", "", "", "", "", cliOptions{workers: 1}, []string{good}); err != nil {
		t.Fatalf("clean accept: %v", err)
	}
	if err := run("json", "", "", "", "", cliOptions{workers: 1}, []string{bad}); exitCodeFor(err) != exitReject {
		t.Errorf("reject exit = %d (%v), want %d", exitCodeFor(err), err, exitReject)
	}
	err := run("json", "", "", "", "", cliOptions{workers: 1, recover: true}, []string{bad})
	if exitCodeFor(err) != exitReject || !strings.Contains(err.Error(), "recovered") {
		t.Errorf("recovered exit = %d (%v), want %d and a recovered message", exitCodeFor(err), err, exitReject)
	}
	// -recover does not change the clean-accept exit.
	if err := run("json", "", "", "", "", cliOptions{workers: 1, recover: true}, []string{good}); err != nil {
		t.Errorf("clean accept with -recover: %v", err)
	}
	if err := run("json", "", "", "", "", cliOptions{workers: 1}, []string{lexbad}); exitCodeFor(err) != exitError {
		t.Errorf("lex failure exit = %d (%v), want %d", exitCodeFor(err), err, exitError)
	}
	// A recovering run cannot repair a lexing failure: still an engine error.
	if err := run("json", "", "", "", "", cliOptions{workers: 1, recover: true}, []string{lexbad}); exitCodeFor(err) != exitError {
		t.Errorf("lex failure with -recover exit = %d (%v), want %d", exitCodeFor(err), err, exitError)
	}
	if err := run("klingon", "", "", "", "", cliOptions{workers: 1}, nil); exitCodeFor(err) != exitUsage {
		t.Errorf("unknown language exit = %d (%v), want %d", exitCodeFor(err), err, exitUsage)
	}
	if err := run("json", "", "", "", "", cliOptions{workers: 1, format: "yaml"}, []string{good}); exitCodeFor(err) != exitUsage {
		t.Errorf("bad format exit = %d (%v), want %d", exitCodeFor(err), err, exitUsage)
	}
	// -tokens is the input: parsed by the language's lexer, and exclusive
	// with file arguments.
	if err := run("json", "", "", "", `{"k": [1, 2]}`, cliOptions{workers: 1}, nil); err != nil {
		t.Errorf("-tokens accept: %v", err)
	}
	if err := run("json", "", "", "", `{"k": }`, cliOptions{workers: 1}, nil); exitCodeFor(err) != exitReject {
		t.Errorf("-tokens reject exit = %d (%v), want %d", exitCodeFor(err), err, exitReject)
	}
	if err := run("json", "", "", "", `{"k": 1}`, cliOptions{workers: 1}, []string{good}); exitCodeFor(err) != exitUsage {
		t.Errorf("-tokens with files exit = %d (%v), want %d", exitCodeFor(err), err, exitUsage)
	}
	// Mixed batch: an engine error outranks a reject.
	err = run("json", "", "", "", "", cliOptions{workers: 1}, []string{bad, lexbad})
	if exitCodeFor(err) != exitError {
		t.Errorf("mixed batch exit = %d (%v), want %d", exitCodeFor(err), err, exitError)
	}
}

// TestFormatJSON checks the machine-readable output: one JSON object per
// input with kind, diagnostics (positioned, with codes), and the tree when
// a tree flag is set.
func TestFormatJSON(t *testing.T) {
	bad := write(t, "bad.json", `{"k": }`)
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run("json", "", "", "", "", cliOptions{workers: 1, recover: true, format: "json", showTree: true}, []string{bad})
	w.Close()
	os.Stdout = old
	outBytes, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if exitCodeFor(runErr) != exitReject {
		t.Fatalf("exit = %d (%v)", exitCodeFor(runErr), runErr)
	}
	var out resultJSON
	if err := json.Unmarshal(outBytes, &out); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, outBytes)
	}
	if out.Kind != "Recovered" || len(out.Diagnostics) == 0 || out.Tree == "" {
		t.Fatalf("json output = %+v", out)
	}
	d := out.Diagnostics[0]
	if d.Pos.Token < 0 || !strings.HasPrefix(string(d.Code), "repair-") {
		t.Errorf("diagnostic = %+v", d)
	}
}
