package costar

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
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
