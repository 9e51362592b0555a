package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"costar"
)

func TestRunConvert(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "calc.g4")
	src := `
		grammar Calc;
		e : t ('+' t)* ;
		t : NUM ;
		NUM : [0-9]+ ;
		WS : [ ]+ -> skip ;
	`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out, path, true, true, true, false, false, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "\n# grammar is LL(1)\n") {
		t.Errorf("-check on an LL(1) grammar:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "\n# no left recursion\n") {
		t.Errorf("-check on a non-left-recursive grammar:\n%s", out.String())
	}
	// Two left-recursive nonterminals: the list, then one witness cycle
	// line for each.
	leftRec := filepath.Join(dir, "lr.g4")
	if err := os.WriteFile(leftRec, []byte(`
		grammar LR;
		e : e '+' t | t ;
		t : t '*' NUM | NUM ;
		NUM : [0-9]+ ;
	`), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(&out, leftRec, false, false, true, false, false, ""); err != nil {
		t.Fatal(err)
	}
	want := "\n# LEFT-RECURSIVE nonterminals: [e t]\n#   cycle: [e e]\n#   cycle: [t t]\n"
	if !strings.Contains(out.String(), want) || strings.Contains(out.String(), "# no left recursion") {
		t.Errorf("-check on a left-recursive grammar: want %q in\n%s", want, out.String())
	}
	// Both alternatives of s start with A: one token of lookahead cannot
	// choose between them.
	conflicted := filepath.Join(dir, "conflicted.g4")
	if err := os.WriteFile(conflicted, []byte(`
		grammar Conflicted;
		s : A B | A C ;
		A : 'a' ;
		B : 'b' ;
		C : 'c' ;
	`), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(&out, conflicted, false, false, true, false, false, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "\n# not LL(1): 1 conflicting nonterminal(s)") ||
		!strings.Contains(out.String(), "alternatives of s overlap") {
		t.Errorf("-check on a conflicted grammar:\n%s", out.String())
	}
	if err := run(io.Discard, path, false, false, false, true, false, ""); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, filepath.Join(dir, "missing.g4"), false, false, false, false, false, ""); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.g4")
	os.WriteFile(bad, []byte("nonsense"), 0o644)
	if err := run(io.Discard, bad, false, false, false, false, false, ""); err == nil {
		t.Error("bad grammar accepted")
	}
}

func TestRunConvertFixesLeftRecursion(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lr.g4")
	src := `
		grammar LR;
		e : e '+' t | t ;
		t : NUM ;
		NUM : [0-9]+ ;
		WS : [ ]+ -> skip ;
	`
	os.WriteFile(path, []byte(src), 0o644)
	if err := run(io.Discard, path, false, false, true, true, false, ""); err != nil {
		t.Fatalf("fix failed: %v", err)
	}
}

// TestRunConvertEmitArtifact: -emit-artifact writes a loadable certified
// artifact whose embedded lexer source round-trips the conversion input.
func TestRunConvertEmitArtifact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "calc.g4")
	src := `
		grammar Calc;
		e : t ('+' t)* ;
		t : NUM ;
		NUM : [0-9]+ ;
		WS : [ ]+ -> skip ;
	`
	os.WriteFile(path, []byte(src), 0o644)
	out := filepath.Join(dir, "calc.csar")
	if err := run(io.Discard, path, false, false, false, false, false, out); err != nil {
		t.Fatalf("-emit-artifact: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	a, err := costar.DecodeArtifact(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if a.LexerG4 != src {
		t.Error("artifact does not embed the source grammar text")
	}
	p, err := costar.NewParserFromArtifact(a, costar.Options{})
	if err != nil {
		t.Fatalf("realize: %v", err)
	}
	if !p.Certified() {
		t.Error("emitted artifact lost its certificate")
	}
}

// TestRunConvertVet: -vet passes clean grammars through, errors on
// uncertifiable ones, and accepts a -fix'd formerly-left-recursive grammar.
func TestRunConvertVet(t *testing.T) {
	dir := t.TempDir()
	clean := filepath.Join(dir, "calc.g4")
	os.WriteFile(clean, []byte(`
		grammar Calc;
		e : t ('+' t)* ;
		t : NUM ;
		NUM : [0-9]+ ;
		WS : [ ]+ -> skip ;
	`), 0o644)
	if err := run(io.Discard, clean, false, false, false, false, true, ""); err != nil {
		t.Fatalf("-vet on clean grammar: %v", err)
	}
	lr := filepath.Join(dir, "lr.g4")
	os.WriteFile(lr, []byte(`
		grammar LR;
		e : e '+' t | t ;
		t : NUM ;
		NUM : [0-9]+ ;
		WS : [ ]+ -> skip ;
	`), 0o644)
	if err := run(io.Discard, lr, false, false, false, false, true, ""); err == nil {
		t.Error("-vet let a left-recursive grammar through")
	}
	if err := run(io.Discard, lr, false, false, false, true, true, ""); err != nil {
		t.Errorf("-fix -vet on rewritable grammar: %v", err)
	}
}
