package artifact_test

// Adversarial decoding and load-time verification: corrupted bytes must
// always be rejected with a structured error (never a panic, never a
// silently degraded session), and semantic tampering that survives the
// checksum must still fail the realize-time identity checks.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"costar/internal/artifact"
	"costar/internal/grammar"
	"costar/internal/grammarlint"
	"costar/internal/machine"
	"costar/internal/parser"
	"costar/internal/prediction"
)

var update = flag.Bool("update", false, "rewrite the golden artifact in testdata")

// calcGrammar is a small fixed grammar for codec tests and the golden
// artifact: stable productions, a certificate, and enough structure to warm
// a few DFA states.
func calcGrammar(t testing.TB) *grammar.Grammar {
	t.Helper()
	g, err := grammar.ParseBNF(`
		expr -> term expr_star
		expr_star -> plus term expr_star |
		term -> num | lparen expr rparen
	`)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// calcArtifact builds a deterministic warmed artifact over calcGrammar.
func calcArtifact(t testing.TB) *artifact.Artifact {
	t.Helper()
	g := calcGrammar(t)
	if _, _, err := grammarlint.Certify(g); err != nil {
		t.Fatal(err)
	}
	p := parser.MustNew(g, parser.Options{})
	words := [][]string{
		{"num"},
		{"num", "plus", "num"},
		{"lparen", "num", "plus", "num", "rparen", "plus", "num"},
	}
	for _, w := range words {
		toks := make([]grammar.Token, len(w))
		for i, n := range w {
			toks[i] = grammar.Tok(n, n)
		}
		if res := p.Parse(toks); res.Kind != machine.Unique {
			t.Fatalf("warm word %v: %v", w, res.Kind)
		}
	}
	a, err := p.ExportArtifact("calc", "")
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestDecodeHeaderErrors: the three header failures map to their sentinel
// errors.
func TestDecodeHeaderErrors(t *testing.T) {
	data := artifact.Encode(calcArtifact(t))

	if _, err := artifact.Decode(nil); !errors.Is(err, artifact.ErrCorrupt) {
		t.Errorf("nil input: %v", err)
	}
	notMagic := append([]byte("NOPE"), data[4:]...)
	if _, err := artifact.Decode(notMagic); !errors.Is(err, artifact.ErrNotArtifact) {
		t.Errorf("bad magic: %v", err)
	}

	// Future version: bump the version field and re-seal the checksum, so
	// only the version check can object.
	future := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(future[4:], artifact.Version+1)
	reseal(future)
	if _, err := artifact.Decode(future); !errors.Is(err, artifact.ErrVersion) {
		t.Errorf("future version: %v", err)
	}

	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := artifact.Decode(flipped); !errors.Is(err, artifact.ErrCorrupt) {
		t.Errorf("checksum flip: %v", err)
	}
}

// reseal recomputes the trailing checksum over data[:len-4] (test-only
// tampering helper; mirrors the encoder's seal).
func reseal(data []byte) {
	sum := crc32.Checksum(data[:len(data)-4], crc32.MakeTable(crc32.Castagnoli))
	binary.LittleEndian.PutUint32(data[len(data)-4:], sum)
}

// TestDecodeEveryTruncation: every proper prefix of a valid artifact must
// fail cleanly.
func TestDecodeEveryTruncation(t *testing.T) {
	data := artifact.Encode(calcArtifact(t))
	for n := 0; n < len(data); n++ {
		if _, err := artifact.Decode(data[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded successfully", n, len(data))
		}
	}
}

// TestDecodeEveryByteFlip: any single corrupted byte is caught (the
// checksum covers the whole stream, including the header).
func TestDecodeEveryByteFlip(t *testing.T) {
	data := artifact.Encode(calcArtifact(t))
	buf := make([]byte, len(data))
	for i := range data {
		copy(buf, data)
		buf[i] ^= 0x01
		if _, err := artifact.Decode(buf); err == nil {
			t.Fatalf("flip at byte %d/%d decoded successfully", i, len(data))
		}
	}
}

// TestRealizeRejectsTampering: struct-level tampering that a checksum
// cannot see (the attacker re-seals) must fail Realize's identity checks —
// and a certificate mismatch is a hard failure, never a silent downgrade
// to an uncertified session.
func TestRealizeRejectsTampering(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(a *artifact.Artifact)
		want   error
	}{
		{"fingerprint", func(a *artifact.Artifact) { a.Fingerprint ^= 1 }, artifact.ErrMismatch},
		{"certificate", func(a *artifact.Artifact) { a.Cert.Fingerprint ^= 1 }, artifact.ErrMismatch},
		{"start symbol", func(a *artifact.Artifact) { a.Tables.Start = 99 }, artifact.ErrCorrupt},
		{"production lhs", func(a *artifact.Artifact) { a.Tables.ProdLhs[0] = 87 }, artifact.ErrCorrupt},
		// Renaming a terminal desynchronizes the recorded interning (terminal
		// names are interned sorted), so the tables self-check catches it
		// before the fingerprint comparison would.
		{"renamed terminal", func(a *artifact.Artifact) { a.Tables.TermNames[0] = "zzz" }, artifact.ErrCorrupt},
		{"cache edge target", func(a *artifact.Artifact) {
			for i := range a.Cache.States {
				if len(a.Cache.States[i].EdgeStates) > 0 {
					a.Cache.States[i].EdgeStates[0] = 9999
					return
				}
			}
			panic("warmed artifact has no edges")
		}, artifact.ErrCorrupt},
		// Edges and starts fill slots by a compare-and-swap from nil: a
		// slot named twice, a terminal past the row, or an edge out of a
		// state SLL never leaves by an edge has nowhere to go.
		{"cache duplicate edge", func(a *artifact.Artifact) {
			ss := withEdges(a)
			ss.EdgeTerms = append(ss.EdgeTerms, ss.EdgeTerms[0])
			ss.EdgeStates = append(ss.EdgeStates, ss.EdgeStates[0])
		}, artifact.ErrCorrupt},
		{"cache edge terminal past the row", func(a *artifact.Artifact) {
			withEdges(a).EdgeTerms[0] = int32(len(a.Tables.TermNames))
		}, artifact.ErrCorrupt},
		{"cache edge on a resolved state", func(a *artifact.Artifact) {
			for i := range a.Cache.States {
				ss := &a.Cache.States[i]
				if resolved(ss) {
					ss.EdgeTerms = append(ss.EdgeTerms, 0)
					ss.EdgeStates = append(ss.EdgeStates, 0)
					return
				}
			}
			panic("warmed artifact has no resolved state")
		}, artifact.ErrCorrupt},
		{"cache duplicate start", func(a *artifact.Artifact) {
			a.Cache.Starts = append(a.Cache.Starts, a.Cache.Starts[0])
		}, artifact.ErrCorrupt},
		{"cache config alt", func(a *artifact.Artifact) {
			for i := range a.Cache.States {
				if len(a.Cache.States[i].Configs) > 0 {
					a.Cache.States[i].Configs[0].Alt = 9999
					return
				}
			}
			panic("warmed artifact has no configs")
		}, artifact.ErrCorrupt},
		// A config's top frame must lie inside the frame table.
		{"cache config top", func(a *artifact.Artifact) {
			for i := range a.Cache.States {
				if len(a.Cache.States[i].Configs) > 0 {
					a.Cache.States[i].Configs[0].Top = int32(len(a.Cache.Frames))
					return
				}
			}
			panic("warmed artifact has no configs")
		}, artifact.ErrCorrupt},
		// A frame may only sit on an earlier frame: a self-loop or a
		// forward link would let a stack walk cycle.
		{"cache frame self-loop", func(a *artifact.Artifact) {
			last := len(a.Cache.Frames) - 1
			a.Cache.Frames[last].Below = int32(last)
		}, artifact.ErrCorrupt},
		{"cache frame forward link", func(a *artifact.Artifact) {
			a.Cache.Frames[0].Below = int32(len(a.Cache.Frames) - 1)
		}, artifact.ErrCorrupt},
		{"cache frame production", func(a *artifact.Artifact) {
			a.Cache.Frames[0].Prod = 9999
		}, artifact.ErrCorrupt},
		// Shared frames let a small snapshot name long stacks, which every
		// state key serializes in full: a deep chain under many configs,
		// or configs spread along it (no duplicates, still quadratic),
		// must be refused before any key is built.
		{"cache deep chain, many configs on its top", func(a *artifact.Artifact) {
			deepChain(a, 1000, func(int) int { return 999 })
		}, artifact.ErrCorrupt},
		{"cache configs along a deep chain", func(a *artifact.Artifact) {
			deepChain(a, 1000, func(i int) int { return i })
		}, artifact.ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := calcArtifact(t)
			tc.mutate(a)
			// The byte layer accepts the re-sealed stream; the semantic layer
			// must not.
			back, err := artifact.Decode(artifact.Encode(a))
			if err != nil {
				t.Fatalf("decode of re-sealed tampering failed early: %v", err)
			}
			if _, err := back.Realize(); !errors.Is(err, tc.want) {
				t.Errorf("Realize = %v, want %v", err, tc.want)
			}
		})
	}
}

// withEdges returns the first state of a's DFA that has an edge.
func withEdges(a *artifact.Artifact) *prediction.StateSnapshot {
	for i := range a.Cache.States {
		if len(a.Cache.States[i].EdgeTerms) > 0 {
			return &a.Cache.States[i]
		}
	}
	panic("warmed artifact has no edges")
}

// resolved reports whether every config of ss predicts one alternative,
// so that SLL answers at the state without reading a token.
func resolved(ss *prediction.StateSnapshot) bool {
	if ss.Anomalous || len(ss.Configs) == 0 {
		return false
	}
	for _, c := range ss.Configs {
		if c.Alt != ss.Configs[0].Alt {
			return false
		}
	}
	return true
}

// deepChain appends a chain of n frames to a's frame table, each a copy of
// frame 0 sitting on the one before, and a state of n configs whose i-th
// config's top is the chain's frame at(i).
func deepChain(a *artifact.Artifact, n int, at func(i int) int) {
	base := len(a.Cache.Frames)
	for i := 0; i < n; i++ {
		f := a.Cache.Frames[0]
		f.Below = int32(base + i - 1)
		if i == 0 {
			f.Below = -1
		}
		a.Cache.Frames = append(a.Cache.Frames, f)
	}
	alt := int32(-1)
	for _, st := range a.Cache.States {
		if len(st.Configs) > 0 {
			alt = st.Configs[0].Alt
			break
		}
	}
	if alt < 0 {
		panic("warmed artifact has no configs")
	}
	st := prediction.StateSnapshot{Configs: make([]prediction.ConfigSnapshot, n)}
	for i := range st.Configs {
		st.Configs[i] = prediction.ConfigSnapshot{Alt: alt, Top: int32(base + at(i))}
	}
	a.Cache.States = append(a.Cache.States, st)
}

// TestGoldenArtifact pins the version-3 byte format: the checked-in golden
// artifact must keep decoding, realizing, re-encoding bit-identically, and
// parsing — so a payload-layout change without a Version bump fails here.
func TestGoldenArtifact(t *testing.T) {
	golden := filepath.Join("testdata", "calc_v3.csar")
	if *update {
		if err := os.WriteFile(golden, artifact.Encode(calcArtifact(t)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/artifact -run TestGoldenArtifact -update` after an intentional format change)", err)
	}
	a, err := artifact.Decode(data)
	if err != nil {
		t.Fatalf("golden artifact no longer decodes: %v", err)
	}
	if !bytes.Equal(artifact.Encode(a), data) {
		t.Fatal("golden artifact does not re-encode bit-identically")
	}
	if !reflect.DeepEqual(a, calcArtifact(t)) {
		t.Fatal("building the calc artifact from source no longer reproduces the golden artifact")
	}
	p, err := parser.NewFromArtifact(a, parser.Options{})
	if err != nil {
		t.Fatalf("golden artifact no longer realizes: %v", err)
	}
	if !p.Certified() {
		t.Fatal("golden artifact session is not certified")
	}
	word := []grammar.Token{grammar.Tok("num", "1"), grammar.Tok("plus", "+"), grammar.Tok("num", "2")}
	if res := p.Parse(word); res.Kind != machine.Unique {
		t.Fatalf("golden artifact session rejects num plus num: %v", res.Kind)
	}
}

// TestByteOrderArtifactStillLoads: calc_v3_byte_order.csar is the golden
// as Export wrote it while it ordered snapshots by their stacks' byte
// serialization. It has the current format and the golden's DFA in another
// order, so it must still decode, realize certified and parse, and its
// re-export must equal the golden byte for byte.
func TestByteOrderArtifactStillLoads(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "calc_v3_byte_order.csar"))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "calc_v3.csar"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(old, golden) {
		t.Fatal("the byte-order fixture equals the golden, so it checks no other order")
	}
	a, err := artifact.Decode(old)
	if err != nil {
		t.Fatalf("byte-order artifact no longer decodes: %v", err)
	}
	p, err := parser.NewFromArtifact(a, parser.Options{})
	if err != nil {
		t.Fatalf("byte-order artifact no longer realizes: %v", err)
	}
	if !p.Certified() {
		t.Fatal("byte-order artifact session is not certified")
	}
	again, err := p.ExportArtifact(a.Name, a.LexerG4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(artifact.Encode(again), golden) {
		t.Fatal("re-exporting the byte-order artifact does not reproduce the golden")
	}
	word := []grammar.Token{grammar.Tok("num", "1"), grammar.Tok("plus", "+"), grammar.Tok("num", "2")}
	if res := p.Parse(word); res.Kind != machine.Unique {
		t.Fatalf("byte-order artifact session rejects num plus num: %v", res.Kind)
	}
}

// TestVersion1ArtifactRejected: a decoder reads exactly one version, so
// the older goldens must fail with ErrVersion rather than be misread as
// current payload — version 1 (per-config frame chains and visited lists,
// before the shared frame table) and version 2 (which still shipped the
// analysis fixpoints and return-target tables).
func TestVersion1ArtifactRejected(t *testing.T) {
	for _, name := range []string{"calc_v1.csar", "calc_v2.csar"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := artifact.Decode(data); !errors.Is(err, artifact.ErrVersion) {
			t.Errorf("Decode(%s) = %v, want ErrVersion", name, err)
		}
	}
}
