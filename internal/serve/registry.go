package serve

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"

	"costar/internal/artifact"
	"costar/internal/languages"
	"costar/internal/parser"
	"costar/internal/source"
)

// Session is one pre-warmed parser keyed by grammar name: the long-lived
// parser session (shared concurrent SLL DFA cache, pooled scratch) plus the
// pull constructor that turns a request body into its token stream. A
// Session serves concurrent requests; the parser's batch-safe internals do
// the sharing.
type Session struct {
	name        string
	fingerprint uint64
	origin      string // "builtin" or "artifact"
	p           *parser.Parser
	pull        func(io.Reader) source.Pull
}

// Name is the grammar key clients address in /parse/{name}.
func (s *Session) Name() string { return s.name }

// Fingerprint is the compiled grammar's structural fingerprint.
func (s *Session) Fingerprint() uint64 { return s.fingerprint }

// Origin reports where the session came from: "builtin" or "artifact".
func (s *Session) Origin() string { return s.origin }

// Certified reports whether the session runs with a verified
// well-formedness certificate (no dynamic left-recursion checks).
func (s *Session) Certified() bool { return s.p.Certified() }

// Parser exposes the underlying session for stats scraping.
func (s *Session) Parser() *parser.Parser { return s.p }

// Parse runs one request body through the session under ctx, on the
// session's pooled token cursor. Cancellation, deadlines, limits, and
// panics all come back as structured Results — the caller never sees a
// goroutine die or a verdict invented by failure.
func (s *Session) Parse(ctx context.Context, r io.Reader) parser.Result {
	return s.p.ParseInput(ctx, parser.Input{Pull: s.pull(r)})
}

// Registry is the set of sessions a server exposes, keyed by grammar name.
// Sessions are registered at boot and read-mostly afterwards; the lock is
// for the map only — sessions themselves are concurrency-safe.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]*Session
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Session)}
}

// Get looks a session up by grammar name.
func (reg *Registry) Get(name string) (*Session, bool) {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	s, ok := reg.byName[name]
	return s, ok
}

// Sessions returns every registered session, sorted by name.
func (reg *Registry) Sessions() []*Session {
	reg.mu.RLock()
	out := make([]*Session, 0, len(reg.byName))
	for _, s := range reg.byName {
		out = append(out, s)
	}
	reg.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// add registers p as the session for fe's grammar.
func (reg *Registry) add(fe *languages.Frontend, origin string, p *parser.Parser) (*Session, error) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if _, dup := reg.byName[fe.Name]; dup {
		return nil, fmt.Errorf("serve: duplicate grammar %q", fe.Name)
	}
	s := &Session{
		name:        fe.Name,
		fingerprint: p.Grammar().Compiled().Fingerprint(),
		origin:      origin,
		p:           p,
		pull:        fe.Pull,
	}
	reg.byName[s.name] = s
	return s, nil
}

// AddLanguage registers a built-in benchmark language and warms its SLL DFA
// on a small generated corpus, so the first real request pays steady-state
// cost rather than cold-cache prediction. opts.Recover is forced on: the
// server always parses in recovering mode and collapses the verdict at the
// HTTP layer when the caller did not opt in (see the handler).
func (reg *Registry) AddLanguage(name string, opts parser.Options) (*Session, error) {
	fe, err := languages.Builtin(name)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	opts.Recover = true
	p, err := parser.New(fe.Grammar, opts)
	if err != nil {
		return nil, fmt.Errorf("serve: building %s session: %w", name, err)
	}
	for seed := int64(1); seed <= 2; seed++ {
		in := parser.Input{Pull: fe.Pull(strings.NewReader(fe.Generate(seed, 400)))}
		if res := p.ParseInput(context.Background(), in); res.Kind == parser.Error {
			return nil, fmt.Errorf("serve: warming %s session: %w", name, res.Err)
		}
	}
	return reg.add(fe, "builtin", p)
}

// AddArtifact registers a session booted from an ahead-of-time artifact —
// the fleet-member warm start: tables, certificate, and the warmed DFA
// snapshot all come from the artifact, so the session answers its first
// request with a hot cache. Request bodies become tokens exactly as in the
// CLI (see languages.FromArtifact).
func (reg *Registry) AddArtifact(a *artifact.Artifact, opts parser.Options) (*Session, error) {
	opts.Recover = true
	p, err := parser.NewFromArtifact(a, opts)
	if err != nil {
		return nil, fmt.Errorf("serve: loading artifact %q: %w", a.Name, err)
	}
	fe, err := languages.FromArtifact(a, p.Grammar())
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return reg.add(fe, "artifact", p)
}

// AddArtifactFile reads, decodes, and registers an artifact file.
func (reg *Registry) AddArtifactFile(path string, opts parser.Options) (*Session, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a, err := artifact.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("serve: %s: %w", path, err)
	}
	return reg.AddArtifact(a, opts)
}
