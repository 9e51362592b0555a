// Package artifact defines CoStar's ahead-of-time grammar artifact: a
// versioned binary container holding everything a parser session needs —
// the compiled grammar tables, the analysis fixpoints, the stable
// return-target tables, the grammarlint certificate, an offline-warmed SLL
// DFA cache snapshot, and (optionally) the .g4 lexer source — so process
// start collapses from compile+warm to load+verify.
//
// Trust model. The container carries a CRC-32C checksum (accidental
// corruption and truncation are always detected) and the grammar's content
// fingerprint. Loading re-derives the expensive invariants instead of
// trusting them: the grammar is recompiled from the tables and must
// reproduce the snapshot's interning exactly; the recomputed fingerprint
// must match the recorded one; and a certificate, when present, is
// re-verified against the recomputed fingerprint by grammar.Certify — a
// tampered or mismatched artifact is rejected outright, never loaded
// silently uncertified. The analysis, targets, and cache sections are
// dimension- and bounds-checked against the compiled grammar on import
// (their packages own those checks); their semantic equality to a
// source-side computation is enforced by the differential round-trip tests
// rather than per-load recomputation, which would erase the cold-start win.
//
// Versioning. The format is a single little-endian byte stream:
//
//	magic "CSAR" | version u32 | payload | crc32c(all preceding bytes)
//
// The payload layout is fixed per version; any change to it bumps Version.
// Decoders reject other versions with ErrVersion — there is no partial or
// best-effort decoding across versions, because a half-understood artifact
// could desynchronize tables that must stay in lockstep.
package artifact

import (
	"errors"
	"fmt"
	"sort"

	"costar/internal/analysis"
	"costar/internal/grammar"
	"costar/internal/prediction"
)

// Version is the artifact format version this build reads and writes.
const Version = 2

// magic identifies a CoStar artifact stream.
var magic = [4]byte{'C', 'S', 'A', 'R'}

// Structured decode/load failures, matchable with errors.Is.
var (
	// ErrNotArtifact: the bytes do not begin with the artifact magic.
	ErrNotArtifact = errors.New("artifact: not a costar artifact")
	// ErrVersion: the artifact was written by an incompatible format version.
	ErrVersion = errors.New("artifact: unsupported format version")
	// ErrCorrupt: truncation, checksum mismatch, or a malformed section.
	ErrCorrupt = errors.New("artifact: corrupt")
	// ErrMismatch: sections are individually well-formed but inconsistent —
	// the recompiled grammar does not reproduce the recorded fingerprint, or
	// the certificate does not bind to this grammar.
	ErrMismatch = errors.New("artifact: content does not match recorded identity")
)

// Artifact is the decoded in-memory form of an ahead-of-time artifact.
type Artifact struct {
	// Name labels the artifact (typically the grammar/language name).
	Name string
	// Fingerprint is grammar.Compiled.Fingerprint() of the source grammar,
	// recorded at build time and re-derived at load time.
	Fingerprint uint64
	// Tables is the dense compiled-grammar snapshot.
	Tables grammar.Tables
	// Cert is the grammarlint certificate, nil for uncertified grammars.
	Cert *grammar.Certificate
	// Analysis is the NULLABLE/FIRST/FOLLOW fixpoint snapshot.
	Analysis analysis.Snapshot
	// Targets holds one stable-return-target table per start symbol the
	// builder warmed (the grammar's own start, at minimum).
	Targets []analysis.TargetsSnapshot
	// Cache is the offline-warmed SLL DFA snapshot.
	Cache prediction.CacheSnapshot
	// LexerG4 is the .g4 source the lexer can be recompiled from; empty
	// when the artifact serves token-level parsing only.
	LexerG4 string
}

// Realized is an artifact turned back into live session structures. All of
// it is verified: see the package comment's trust model.
type Realized struct {
	Grammar  *grammar.Grammar
	Analysis *analysis.Analysis
	// Targets is keyed by start symbol.
	Targets map[string]*analysis.Targets
	Cache   *prediction.Cache
}

// Realize reconstructs live session structures from the artifact,
// performing the load-time verification contract: table reconstruction
// must reproduce the recorded interning and fingerprint, the grammar must
// validate, and a present certificate must re-verify. Any failure rejects
// the whole artifact.
func (a *Artifact) Realize() (*Realized, error) {
	g, err := grammar.FromTables(a.Tables)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	c := g.Compiled()
	if got := c.Fingerprint(); got != a.Fingerprint {
		return nil, fmt.Errorf("%w: grammar fingerprint %016x, artifact recorded %016x", ErrMismatch, got, a.Fingerprint)
	}
	if a.Cert != nil {
		// Certify re-checks the certificate fingerprint against the freshly
		// recompiled grammar; a tampered certificate (or one copied from a
		// different grammar) fails the load rather than degrading it.
		if err := c.Certify(a.Cert); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrMismatch, err)
		}
	}
	an, err := analysis.FromSnapshot(g, a.Analysis)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	targets := make(map[string]*analysis.Targets, len(a.Targets))
	for _, ts := range a.Targets {
		if _, dup := targets[ts.Start]; dup {
			return nil, fmt.Errorf("%w: duplicate targets table for start symbol %q", ErrCorrupt, ts.Start)
		}
		tg, err := analysis.TargetsFromSnapshot(g, ts)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		targets[ts.Start] = tg
	}
	cache := prediction.NewCache()
	if err := cache.Import(c, a.Cache); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return &Realized{Grammar: g, Analysis: an, Targets: targets, Cache: cache}, nil
}

// Build assembles an artifact from live session structures. g must be
// validated; cert may be nil; targets maps start symbols to their tables;
// cache may be freshly created (a cold artifact) or corpus-warmed.
func Build(name string, g *grammar.Grammar, an *analysis.Analysis, targets map[string]*analysis.Targets, cache *prediction.Cache, lexerG4 string) (*Artifact, error) {
	c := g.Compiled()
	a := &Artifact{
		Name:        name,
		Fingerprint: c.Fingerprint(),
		Tables:      c.Tables(),
		Cert:        c.Certificate(),
		Analysis:    an.Snapshot(),
		LexerG4:     lexerG4,
	}
	starts := make([]string, 0, len(targets))
	for start := range targets {
		starts = append(starts, start)
	}
	// Deterministic artifact bytes: targets tables in sorted start order.
	sort.Strings(starts)
	for _, start := range starts {
		a.Targets = append(a.Targets, targets[start].Snapshot(start))
	}
	snap, err := cache.Export(c)
	if err != nil {
		return nil, err
	}
	a.Cache = snap
	return a, nil
}
