package main

import (
	"testing"

	"costar/internal/bench"
)

func TestRunFigures(t *testing.T) {
	cfg := bench.Config{Files: 3, MinTokens: 80, MaxTokens: 400, Trials: 1}
	for _, fig := range []string{"8", "9", "10", "11", "all"} {
		if err := run(fig, cfg); err != nil {
			t.Fatalf("fig %s: %v", fig, err)
		}
	}
	for _, fig := range []string{"99", "par"} {
		if err := run(fig, cfg); err == nil {
			t.Errorf("unknown figure %q accepted", fig)
		}
	}
}
