package parser

// Ahead-of-time artifact integration: a session can be snapshotted into an
// artifact (grammar tables + certificate + warmed SLL DFA) and a new
// session can be constructed from one, skipping grammar compilation and —
// the expensive part — cache warm-up. Everything else the grammar
// determines is computed on load exactly as New computes it: the analysis
// fixpoints from the recompiled grammar, and each start symbol's return
// targets on its first parse. The load path verifies what it does not
// recompute (see internal/artifact for the trust model); a session built
// by NewFromArtifact is behaviorally identical to a source-compiled session
// warmed on the same corpus, which the differential artifact tests enforce
// tree-for-tree.

import (
	"costar/internal/analysis"
	"costar/internal/artifact"
)

// ExportArtifact snapshots the session — grammar tables, the certificate
// if the grammar carries one, and the current SLL DFA cache contents —
// into an artifact. Typically the session has just been warmed by parsing
// a corpus, so the snapshot captures a hot DFA. name labels the artifact;
// lexerG4 may carry the .g4 source the lexer can be recompiled from (empty
// for token-level grammars). Safe to call while other goroutines parse:
// the cache export reads one consistent generation.
func (p *Parser) ExportArtifact(name, lexerG4 string) (*artifact.Artifact, error) {
	return artifact.Build(name, p.g, p.cache, lexerG4)
}

// NewFromArtifact realizes a (running its load-time verification: table
// reconstruction, fingerprint match, certificate re-check, bounds-checked
// cache import) and builds a session over the result, computing the
// analysis from the grammar as New does. The session starts with the
// artifact's warmed DFA instead of an empty one; certified mode engages
// exactly as in New when the artifact carried a valid certificate.
func NewFromArtifact(a *artifact.Artifact, opts Options) (*Parser, error) {
	r, err := a.Realize()
	if err != nil {
		return nil, err
	}
	return newSession(r.Grammar, analysis.New(r.Grammar), r.Cache, opts), nil
}
