package parser

// Ahead-of-time artifact integration: a session can be snapshotted into an
// artifact (tables + analysis + targets + certificate + warmed SLL DFA) and
// a new session can be constructed from one, skipping grammar compilation,
// the analysis fixpoints, and — the expensive part — cache warm-up. The
// load path verifies everything it skips recomputing (see internal/artifact
// for the trust model); a session built by NewFromArtifact is behaviorally
// identical to a source-compiled session warmed on the same corpus, which
// the differential artifact tests enforce tree-for-tree.

import (
	"costar/internal/analysis"
	"costar/internal/artifact"
)

// ExportArtifact snapshots the session — grammar tables, analysis,
// every start symbol's targets table, the certificate if the grammar
// carries one, and the current SLL DFA cache contents — into an artifact.
// Typically the session has just been warmed by parsing a corpus, so the
// snapshot captures a hot DFA. name labels the artifact; lexerG4 may carry
// the .g4 source the lexer can be recompiled from (empty for token-level
// grammars). Safe to call while other goroutines parse: the cache export
// reads one consistent generation.
func (p *Parser) ExportArtifact(name, lexerG4 string) (*artifact.Artifact, error) {
	targets := make(map[string]*analysis.Targets)
	p.targets.Range(func(k, v any) bool {
		targets[k.(string)] = v.(*analysis.Targets)
		return true
	})
	// The grammar's own start symbol is always included, even if this
	// session never parsed (a cold artifact still skips the fixpoints).
	if _, ok := targets[p.g.Start]; !ok {
		targets[p.g.Start] = analysis.NewTargetsFor(p.g, p.g.Start)
	}
	return artifact.Build(name, p.g, p.an, targets, p.cache, lexerG4)
}

// NewFromArtifact realizes a (running its load-time verification: table
// reconstruction, fingerprint match, certificate re-check, bounds-checked
// cache import) and builds a session over the result. The session starts
// with the artifact's warmed DFA instead of an empty one; certified mode
// engages exactly as in New when the artifact carried a valid certificate.
func NewFromArtifact(a *artifact.Artifact, opts Options) (*Parser, error) {
	r, err := a.Realize()
	if err != nil {
		return nil, err
	}
	p := newSession(r.Grammar, r.Analysis, r.Cache, opts)
	for start, tg := range r.Targets {
		p.targets.Store(start, tg)
	}
	return p, nil
}
