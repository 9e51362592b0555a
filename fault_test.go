package costar

// The fault-injection differential suite: for every bundled language, a
// generated input is parsed clean, then re-parsed under injected faults —
// read failures at chosen byte offsets, deterministic short reads, torn
// UTF-8 at EOF, reader stalls under a deadline, hostile panicking token
// sources, and canceled batches. The contract under test is the robustness
// contract of DESIGN.md §5e: every fault surfaces as exactly one structured
// Error result (never a panic, never a false Unique/Ambig/Reject), the
// cause chain survives errors.Is, Usage is populated either way, and the
// streaming window stays bounded.

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"costar/internal/faultinject"
	"costar/internal/languages/dotlang"
	"costar/internal/languages/jsonlang"
	"costar/internal/languages/langkit"
	"costar/internal/languages/pylang"
	"costar/internal/languages/xmllang"
	"costar/internal/machine"
)

var faultLangs = []struct {
	name string
	lang *langkit.Language
	gen  func(seed int64, targetTokens int) string
}{
	{"json", jsonlang.Lang, jsonlang.Generate},
	{"xml", xmllang.Lang, xmllang.Generate},
	{"dot", dotlang.Lang, dotlang.Generate},
	{"python", pylang.Lang, pylang.Generate},
}

// mErr asserts res is an Error carrying the machine's structured form.
func mErr(t *testing.T, res Result) *machine.Error {
	t.Helper()
	if res.Kind != Error {
		t.Fatalf("want Error result, got %s", res)
	}
	me := &machine.Error{}
	if !errors.As(res.Err, &me) {
		t.Fatalf("want *machine.Error, got %T: %v", res.Err, res.Err)
	}
	return me
}

func TestFaultInjectionDifferential(t *testing.T) {
	for _, fl := range faultLangs {
		fl := fl
		t.Run(fl.name, func(t *testing.T) {
			src := fl.gen(1, 400)
			p := MustNewParser(fl.lang.Grammar(), Options{})

			clean := p.ParseSource(fl.lang.Cursor(strings.NewReader(src)))
			if clean.Kind != Unique {
				t.Fatalf("clean parse: %s", clean)
			}
			if u := clean.Usage; u.Steps == 0 || u.Tokens == 0 || u.PeakWindow == 0 {
				t.Fatalf("clean Usage incomplete: %s", u)
			}

			t.Run("short-reads", func(t *testing.T) {
				// Differential: tearing the byte stream into arbitrary
				// read sizes must not change the outcome at all.
				r := faultinject.NewReader(strings.NewReader(src),
					faultinject.Seed(99), faultinject.ShortReads())
				res := p.ParseSource(fl.lang.Cursor(r))
				if res.Kind != Unique || res.Consumed != clean.Consumed {
					t.Fatalf("short reads changed the outcome: %s (clean %s)", res, clean)
				}
			})

			t.Run("read-failure", func(t *testing.T) {
				for _, off := range []int64{0, int64(len(src) / 2), int64(len(src) - 1)} {
					r := faultinject.NewReader(strings.NewReader(src),
						faultinject.FailAt(off, nil))
					res := p.ParseSource(fl.lang.Cursor(r))
					me := mErr(t, res)
					if me.Kind != machine.ErrSource {
						t.Fatalf("offset %d: want ErrSource, got kind=%d (%v)", off, me.Kind, me)
					}
					if !errors.Is(res.Err, faultinject.ErrInjected) {
						t.Fatalf("offset %d: cause chain lost: %v", off, res.Err)
					}
					if res.Usage.PeakWindow > clean.Usage.PeakWindow {
						t.Errorf("offset %d: window grew under fault: %d > clean %d",
							off, res.Usage.PeakWindow, clean.Usage.PeakWindow)
					}
				}
			})

			t.Run("torn-rune-at-eof", func(t *testing.T) {
				// Truncate one byte into a trailing multi-byte rune: the
				// lexer must surface an error, never a silent accept of
				// the torn tail.
				torn := src + "é"
				r := faultinject.NewReader(strings.NewReader(torn),
					faultinject.TruncateAt(int64(len(src)+1)))
				res := p.ParseSource(fl.lang.Cursor(r))
				if res.Kind == Unique || res.Kind == Ambig {
					t.Fatalf("torn rune accepted: %s", res)
				}
			})

			t.Run("stall-under-deadline", func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
				defer cancel()
				r := faultinject.NewReader(strings.NewReader(src),
					faultinject.StallAt(int64(len(src)/2), ctx))
				res := p.ParseInput(ctx, Input{Pull: fl.lang.Pull(r)})
				if !res.Canceled() {
					t.Fatalf("want a canceled result, got %s", res)
				}
				if !errors.Is(res.Err, context.DeadlineExceeded) {
					t.Fatalf("cause chain lost: %v", res.Err)
				}
			})

			t.Run("cancel-mid-parse", func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				res := p.ParseInput(ctx, Input{Pull: fl.lang.Pull(strings.NewReader(src))})
				if !res.Canceled() {
					t.Fatalf("want a canceled result, got %s", res)
				}
				if me := mErr(t, res); me.Kind != machine.ErrCanceled {
					t.Fatalf("want ErrCanceled, got kind=%d (%v)", me.Kind, me)
				}
			})

			t.Run("panicking-source", func(t *testing.T) {
				g := fl.lang.Grammar()
				pull := faultinject.WrapPull(fl.lang.Pull(strings.NewReader(src)),
					faultinject.PanicAt(5, "hostile token source"))
				res := p.ParseSource(NewTokenSource(g, pull))
				me := mErr(t, res)
				if me.Kind != machine.ErrPanic {
					t.Fatalf("want ErrPanic, got kind=%d (%v)", me.Kind, me)
				}
				if me.Recovered != "hostile token source" {
					t.Errorf("Recovered = %v", me.Recovered)
				}
				// The session survives the contained panic.
				if res := p.ParseSource(fl.lang.Cursor(strings.NewReader(src))); res.Kind != Unique {
					t.Fatalf("session poisoned: %s", res)
				}
			})
		})
	}
}

// settleGoroutines polls until the goroutine count drops back to at most
// base, or the deadline passes — the goleak-style leak check.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d live, started with %d", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestParseAllContextCancelDrains(t *testing.T) {
	base := runtime.NumGoroutine()
	g := MustParseBNF(`S -> A c | A d ; A -> a A | b`)

	t.Run("pre-canceled", func(t *testing.T) {
		// A batch under an already-dead context must fill every slot with
		// a Canceled result, promptly, with no worker left behind.
		words := make([][]Token, 64)
		for i := range words {
			words[i] = Words("a", "b", "d")
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		start := time.Now()
		results := parseWords(ctx, MustNewParser(g, Options{}), words, 8)
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("canceled batch took %v", d)
		}
		if len(results) != len(words) {
			t.Fatalf("got %d results for %d words", len(results), len(words))
		}
		for i, res := range results {
			if !res.Canceled() {
				t.Fatalf("slot %d not canceled: %s", i, res)
			}
		}
	})

	t.Run("cancel-in-flight", func(t *testing.T) {
		// Workers are mid-parse on stalling sources when the deadline
		// fires: in-flight parses abort through their governors, queued
		// items drain as Canceled, and every goroutine joins.
		src := jsonlang.Generate(5, 200)
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		p := MustNewParser(jsonlang.Lang.Grammar(), Options{})
		const n = 32
		results := p.ParseInputs(ctx, n, func(i int) (Input, func(), error) {
			r := faultinject.NewReader(strings.NewReader(src),
				faultinject.StallAt(int64(len(src)/2), ctx))
			return Input{Pull: jsonlang.Lang.Pull(r)}, nil, nil
		}, 4)
		if len(results) != n {
			t.Fatalf("got %d results for %d inputs", len(results), n)
		}
		for i, res := range results {
			if !res.Canceled() {
				t.Fatalf("slot %d: want canceled, got %s", i, res)
			}
		}
	})

	settleGoroutines(t, base)
}

func TestParseAllContextItemIsolation(t *testing.T) {
	// One item's hostile source panics; the rest of the batch parses fine.
	g := MustParseBNF(`S -> A c | A d ; A -> a A | b`)
	p := MustNewParser(g, Options{})
	const n = 8
	results := p.ParseInputs(context.Background(), n,
		func(i int) (Input, func(), error) {
			if i == 3 {
				return Input{Pull: func() (Token, bool, error) {
					panic("poisoned item")
				}}, nil, nil
			}
			return Input{Tokens: Words("a", "b", "d")}, nil, nil
		}, 4)
	for i, res := range results {
		if i == 3 {
			me := mErr(t, res)
			if me.Kind != machine.ErrPanic {
				t.Fatalf("poisoned item: want ErrPanic, got %v", me)
			}
			continue
		}
		if res.Kind != Unique {
			t.Fatalf("healthy item %d ruined by neighbor: %s", i, res)
		}
	}
}

// FuzzFaultInjection drives the whole pipeline with fuzzer-chosen fault
// schedules over fuzzer-chosen languages: any combination of short reads,
// injected failures, and truncations must produce a well-formed result —
// no panics, Error results always carry an error, injected read failures
// are never absorbed into an accept.
func FuzzFaultInjection(f *testing.F) {
	f.Add(uint8(0), int64(42), int64(10), int64(-1), true)
	f.Add(uint8(1), int64(7), int64(-1), int64(33), false)
	f.Add(uint8(2), int64(1), int64(0), int64(0), true)
	f.Add(uint8(3), int64(9), int64(250), int64(-1), false)
	parsers := make([]*Parser, len(faultLangs))
	for i, fl := range faultLangs {
		parsers[i] = MustNewParser(fl.lang.Grammar(), Options{})
	}
	f.Fuzz(func(t *testing.T, langIdx uint8, seed, failAt, truncAt int64, short bool) {
		fl := faultLangs[int(langIdx)%len(faultLangs)]
		p := parsers[int(langIdx)%len(faultLangs)]
		src := fl.gen(seed%16, 120)
		if failAt >= 0 {
			failAt %= int64(len(src) + 1)
		}
		if truncAt >= 0 {
			truncAt %= int64(len(src) + 1)
		}
		opts := []faultinject.Option{faultinject.Seed(uint64(seed))}
		if short {
			opts = append(opts, faultinject.ShortReads())
		}
		if failAt >= 0 {
			opts = append(opts, faultinject.FailAt(failAt, nil))
		}
		if truncAt >= 0 {
			opts = append(opts, faultinject.TruncateAt(truncAt))
		}
		r := faultinject.NewReader(strings.NewReader(src), opts...)
		res := p.ParseSource(fl.lang.Cursor(r))
		switch res.Kind {
		case Unique, Ambig:
			// An accept is only legitimate when the injected failure could
			// not have fired: the parse must have ended inside the
			// fault-free prefix.
			if failAt >= 0 && (truncAt < 0 || failAt < truncAt) && r.Offset() >= failAt {
				t.Fatalf("accepted past an injected failure at %d (read %d bytes): %s",
					failAt, r.Offset(), res)
			}
		case Reject:
			if res.Reason == "" {
				t.Fatal("Reject without a reason")
			}
		case Error:
			if res.Err == nil {
				t.Fatal("Error without an error")
			}
		default:
			t.Fatalf("impossible result kind %v", res.Kind)
		}
	})
}
