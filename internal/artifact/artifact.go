// Package artifact defines CoStar's ahead-of-time grammar artifact: a
// versioned binary container holding the compiled grammar tables, the
// grammarlint certificate, an offline-warmed SLL DFA cache snapshot, and
// (optionally) the .g4 lexer source — so process start collapses from
// compile+warm to load+verify.
//
// The warmed DFA is the one derived section: it takes a corpus to
// rebuild. Everything else the grammar determines is computed on load
// instead of shipped. The NULLABLE/FIRST/FOLLOW fixpoints take a fraction
// of a millisecond even on the Python grammar, less than importing
// serialized copies took, and the stable return targets are built on a
// session's first parse for each start symbol, as in a source-built
// session.
//
// Trust model. The container carries a CRC-32C checksum (accidental
// corruption and truncation are always detected) and the grammar's content
// fingerprint. Loading derives again what it can instead of trusting it:
// the grammar is recompiled from the tables and must reproduce the
// snapshot's interning exactly; the recomputed fingerprint must match the
// recorded one; a certificate, when present, is re-verified against the
// recomputed fingerprint by grammar.Certify — a tampered or mismatched
// artifact is rejected outright, never loaded silently uncertified (the
// certificate binds grammarlint's verdict, reached when the artifact was
// built, to exactly this grammar); and the analysis is computed from the
// recompiled grammar. Of the derived content, the DFA snapshot is the only
// section still trusted: on import it is bounds-checked against the
// compiled grammar, its frame table must link only to earlier frames, and
// the stacks its configs name must fit the stack budget (see
// prediction.Cache.Import). Its semantic equality to a source-side warm-up
// is enforced by the differential round-trip tests.
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

	"costar/internal/grammar"
	"costar/internal/prediction"
)

// Version is the artifact format version this build reads and writes.
const Version = 3

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
	// Cache is the offline-warmed SLL DFA snapshot.
	Cache prediction.CacheSnapshot
	// LexerG4 is the .g4 source the lexer can be recompiled from; empty
	// when the artifact serves token-level parsing only.
	LexerG4 string
}

// Realized is an artifact turned back into live session structures: the
// grammar re-derived from the tables and the imported DFA (see the package
// comment's trust model).
type Realized struct {
	Grammar *grammar.Grammar
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
	cache := prediction.NewCache(c)
	if err := cache.Import(c, a.Cache); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return &Realized{Grammar: g, Cache: cache}, nil
}

// Build assembles an artifact from a grammar and its SLL DFA. g must be
// validated and carries its certificate, if any; cache may be freshly
// created (a cold artifact) or corpus-warmed.
func Build(name string, g *grammar.Grammar, cache *prediction.Cache, lexerG4 string) (*Artifact, error) {
	c := g.Compiled()
	a := &Artifact{
		Name:        name,
		Fingerprint: c.Fingerprint(),
		Tables:      c.Tables(),
		Cert:        c.Certificate(),
		LexerG4:     lexerG4,
	}
	snap, err := cache.Export(c)
	if err != nil {
		return nil, err
	}
	a.Cache = snap
	return a, nil
}
