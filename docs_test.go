package costar

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"costar/tools/analyzers/registry"
)

// citedTestName matches a Test…, Benchmark… or Fuzz… name in prose; a
// trailing * (as in BenchmarkFig9*) makes it a prefix.
var citedTestName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*\*?`)

// definedTestFunc matches a top-level test, benchmark or fuzz func.
var definedTestFunc = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]*)\(`)

// TestDocsCiteExistingTests: every test, benchmark and fuzz target that the
// reader-facing documents name is a func in some _test.go file of the
// repository, so a rename or deletion cannot leave a dangling citation.
// ROADMAP.md and CHANGES.md are history and may name what is gone.
func TestDocsCiteExistingTests(t *testing.T) {
	defined := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata", ".bench_build":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range definedTestFunc.FindAllStringSubmatch(string(src), -1) {
			defined[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(name string) bool {
		prefix, ok := strings.CutSuffix(name, "*")
		if !ok {
			return defined[name]
		}
		for d := range defined {
			if strings.HasPrefix(d, prefix) {
				return true
			}
		}
		return false
	}
	cited := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "perfbench/README.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, name := range citedTestName.FindAllString(line, -1) {
				cited++
				if !exists(name) {
					t.Errorf("%s:%d cites %s, which no _test.go file defines", doc, i+1, name)
				}
			}
		}
	}
	if cited == 0 {
		t.Fatal("the documents cite no test names: the pattern has drifted from their text")
	}
}

// An analyzer citation in prose: a backticked name followed by the word
// analyzer, or the name in an allow annotation. A backticked name alone in
// a table's Analyzer column is one too.
var (
	citedAnalyzerName = regexp.MustCompile("`([a-z]+)` analyzer|//costar:allow ([a-z]+)")
	analyzerCell      = regexp.MustCompile("^`([a-z]+)`$")
)

// TestDocsCiteRegisteredAnalyzers: every costar-lint analyzer DESIGN.md
// names is one costar-lint runs (tools/analyzers/registry), so a renamed
// or deleted analyzer cannot leave the contract table pointing at nothing.
func TestDocsCiteRegisteredAnalyzers(t *testing.T) {
	registered := map[string]bool{}
	for _, a := range registry.All() {
		registered[a.Name] = true
	}
	src, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	cited, inTables := 0, 0
	col := -1 // the Analyzer column of the table being read, -1 outside one
	for i, line := range strings.Split(string(src), "\n") {
		var names []string
		if cells := strings.Split(strings.Trim(strings.TrimSpace(line), "|"), "|"); strings.HasPrefix(line, "|") {
			for j, cell := range cells {
				cell = strings.TrimSpace(cell)
				if cell == "Analyzer" {
					col = j
				} else if j == col {
					if m := analyzerCell.FindStringSubmatch(cell); m != nil {
						names = append(names, m[1])
						inTables++
					}
				}
			}
		} else {
			col = -1
		}
		for _, m := range citedAnalyzerName.FindAllStringSubmatch(line, -1) {
			names = append(names, m[1]+m[2])
		}
		for _, name := range names {
			cited++
			if !registered[name] {
				t.Errorf("DESIGN.md:%d cites analyzer %s, which costar-lint does not run", i+1, name)
			}
		}
	}
	if inTables == 0 || cited <= inTables {
		t.Fatalf("found %d analyzer citations, %d of them in tables: the patterns have drifted from DESIGN.md's text", cited, inTables)
	}
}
