package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"costar/internal/stats"
)

// ---------------------------------------------------------------------------
// Figure 8: grammar and data-set sizes
// ---------------------------------------------------------------------------

// Fig8Row is one table row.
type Fig8Row struct {
	Benchmark string
	T, N, P   int // |T|, |N|, |P| of the desugared BNF grammar
	Files     int
	MB        float64
}

// Fig8 computes the table for the given corpus configuration.
func Fig8(cfg Config) ([]Fig8Row, error) {
	var rows []Fig8Row
	for _, l := range Languages() {
		files, err := Corpus(l, cfg)
		if err != nil {
			return nil, err
		}
		bytes := 0
		for _, f := range files {
			bytes += len(f.Source)
		}
		nT, nN, nP := l.Grammar.Stats()
		rows = append(rows, Fig8Row{
			Benchmark: l.Name, T: nT, N: nN, P: nP,
			Files: len(files), MB: float64(bytes) / (1 << 20),
		})
	}
	return rows, nil
}

// PrintFig8 renders the table like the paper's Figure 8.
func PrintFig8(w io.Writer, rows []Fig8Row) {
	fmt.Fprintf(w, "Figure 8: grammar size and data set size per benchmark\n")
	fmt.Fprintf(w, "%-10s %6s %6s %6s   %7s %8s\n", "Benchmark", "|T|", "|N|", "|P|", "# files", "MB")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %6d %6d %6d   %7d %8.2f\n", r.Benchmark, r.T, r.N, r.P, r.Files, r.MB)
	}
}

// ---------------------------------------------------------------------------
// Figure 9: input size vs. CoStar parse time, regression + LOWESS
// ---------------------------------------------------------------------------

// Fig9Point is one scatter point: file size in tokens, best-of-trials parse
// seconds. The minimum is the robust estimator of the true cost when the
// host is contended (scheduler noise only ever adds time); the per-trial
// spread is kept in StdDev for the error bars.
type Fig9Point struct {
	Tokens  int
	Seconds float64
	StdDev  float64
}

// Fig9Series is one language's plot.
type Fig9Series struct {
	Benchmark string
	Points    []Fig9Point
	Fit       stats.Linear
	Lowess    []stats.Point
	// LowessDeviation is the mean relative gap between the LOWESS smooth
	// and the regression line; near zero ⇒ linear (the Figure 9 claim).
	LowessDeviation float64
}

// Fig9 measures CoStar parse time (paper configuration: fresh prediction
// cache per trial, pre-tokenized input) over each language's corpus.
func Fig9(cfg Config) ([]Fig9Series, error) {
	var out []Fig9Series
	for _, l := range Languages() {
		files, err := Corpus(l, cfg)
		if err != nil {
			return nil, err
		}
		p := newCoStar(l.Grammar, true)
		s := Fig9Series{Benchmark: l.Name}
		var xs []int
		var ys []float64
		for _, f := range files {
			f := f
			// One untimed warm-up parse: first-touch allocator growth
			// otherwise lands on whichever file is measured first and bends
			// the small-corpus series. The prediction cache is fresh per
			// parse either way, so this warms the heap, not the DFA.
			mustUnique(p.Parse(f.Tokens).Kind, l.Name, f.Seed, "warm-up")
			_, samples := timeIt(cfg.Trials, func() {
				res := p.Parse(f.Tokens)
				mustUnique(res.Kind, l.Name, f.Seed, res.Reason)
			})
			best := samples[0]
			for _, s := range samples[1:] {
				if s < best {
					best = s
				}
			}
			pt := Fig9Point{
				Tokens:  len(f.Tokens),
				Seconds: best / float64(time.Second),
				StdDev:  stats.StdDev(samples) / float64(time.Second),
			}
			s.Points = append(s.Points, pt)
			xs = append(xs, pt.Tokens)
			ys = append(ys, pt.Seconds)
		}
		pts := seriesOf(xs, ys)
		s.Fit = stats.Regress(pts)
		s.Lowess = stats.Lowess(pts, lowessF(len(pts)))
		s.LowessDeviation = stats.LowessDeviation(pts, lowessF(len(pts)))
		out = append(out, s)
	}
	return out, nil
}

// lowessF picks the LOWESS fraction: the paper uses f = 0.1, which needs
// enough points; small corpora widen the window.
func lowessF(n int) float64 {
	if n >= 30 {
		return 0.1
	}
	return 0.5
}

// PrintFig9 renders the series and the linearity diagnostics.
func PrintFig9(w io.Writer, series []Fig9Series) {
	fmt.Fprintf(w, "Figure 9: input size vs CoStar parse time (fresh cache per trial)\n")
	for _, s := range series {
		fmt.Fprintf(w, "\n[%s]  fit: %s   lowess-deviation: %.4f\n", s.Benchmark, s.Fit, s.LowessDeviation)
		fmt.Fprintf(w, "%10s %14s %14s %14s\n", "tokens", "parse (s)", "stddev (s)", "lowess (s)")
		for i, p := range s.Points {
			low := ""
			if i < len(s.Lowess) {
				low = fmt.Sprintf("%14.6f", s.Lowess[i].Y)
			}
			fmt.Fprintf(w, "%10d %14.6f %14.6f %s\n", p.Tokens, p.Seconds, p.StdDev, low)
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 10: CoStar slowdown relative to the imperative baseline
// ---------------------------------------------------------------------------

// Fig10Row is one benchmark's bars. The paper's CoStar is the persistent
// engine (Persistent); the in-place session takes the same transitions
// without building a state per step, and is reported beside it.
type Fig10Row struct {
	Benchmark string
	// ParserSlowdown: persistent CoStar parse time / baseline parse time
	// (lexing excluded) — the striped blue bar.
	ParserSlowdown    float64
	ParserSlowdownStd float64
	// PipelineSlowdown: (lex + persistent CoStar) / (lex + baseline) — the
	// dotted orange bar, "the cost of replacing an unverified parser with
	// CoStar in a lexing/parsing pipeline".
	PipelineSlowdown    float64
	PipelineSlowdownStd float64
	// InPlaceSlowdown: in-place session parse time / baseline parse time.
	InPlaceSlowdown    float64
	InPlaceSlowdownStd float64
}

// Fig10 measures per-file slowdowns and averages them, like the paper.
// All three engines run in the paper's configuration: fresh caches per
// trial (ANTLR "instantiated a new parser with an empty cache per trial").
func Fig10(cfg Config) ([]Fig10Row, error) {
	var out []Fig10Row
	for _, l := range Languages() {
		files, err := Corpus(l, cfg)
		if err != nil {
			return nil, err
		}
		costar := NewPersistent(l.Grammar, true)
		inPlace := newCoStar(l.Grammar, true)
		base := newBaseline(l.Grammar, true)
		var parserRatios, pipelineRatios, inPlaceRatios []float64
		for _, f := range files {
			f := f
			// A GC barrier before each arm, so no engine is charged the
			// garbage of the one timed before it: the persistent engine
			// builds a state per step.
			arm := func(parse func()) time.Duration {
				runtime.GC()
				mean, _ := timeIt(cfg.Trials, parse)
				return mean
			}
			costarT := arm(func() {
				res := costar.Parse(f.Tokens)
				mustUnique(res.Kind, l.Name, f.Seed, res.Reason)
			})
			inPlaceT := arm(func() {
				res := inPlace.Parse(f.Tokens)
				mustUnique(res.Kind, l.Name, f.Seed, res.Reason)
			})
			baseT := arm(func() {
				res := base.Parse(f.Tokens)
				mustUnique(res.Kind, l.Name, f.Seed, res.Reason)
			})
			lexT := lexTime(l, f, cfg.Trials)
			parserRatios = append(parserRatios, costarT.Seconds()/baseT.Seconds())
			pipelineRatios = append(pipelineRatios,
				(lexT.Seconds()+costarT.Seconds())/(lexT.Seconds()+baseT.Seconds()))
			inPlaceRatios = append(inPlaceRatios, inPlaceT.Seconds()/baseT.Seconds())
		}
		out = append(out, Fig10Row{
			Benchmark:           l.Name,
			ParserSlowdown:      stats.Mean(parserRatios),
			ParserSlowdownStd:   stats.StdDev(parserRatios),
			PipelineSlowdown:    stats.Mean(pipelineRatios),
			PipelineSlowdownStd: stats.StdDev(pipelineRatios),
			InPlaceSlowdown:     stats.Mean(inPlaceRatios),
			InPlaceSlowdownStd:  stats.StdDev(inPlaceRatios),
		})
	}
	return out, nil
}

// PrintFig10 renders the paper's two bars per benchmark and the in-place
// session's parser-only bar.
func PrintFig10(w io.Writer, rows []Fig10Row) {
	fmt.Fprintf(w, "Figure 10: average slowdown relative to the imperative ALL(*) baseline\n")
	fmt.Fprintf(w, "(CoStar = the persistent machine; in-place = the parser session)\n")
	fmt.Fprintf(w, "%-10s %22s %26s %22s\n", "Benchmark", "parser-only slowdown", "lexer+parser slowdown", "in-place slowdown")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %15.1fx ±%4.1f %19.1fx ±%4.1f %15.1fx ±%4.1f\n",
			r.Benchmark, r.ParserSlowdown, r.ParserSlowdownStd,
			r.PipelineSlowdown, r.PipelineSlowdownStd,
			r.InPlaceSlowdown, r.InPlaceSlowdownStd)
	}
}

// ---------------------------------------------------------------------------
// Figure 11: baseline cache warm-up on Python
// ---------------------------------------------------------------------------

// Fig11Point is one file measured in both configurations.
type Fig11Point struct {
	Tokens      int
	ColdSeconds float64 // fresh DFA per trial (left plot)
	WarmSeconds float64 // pre-warmed shared DFA (right plot)
}

// Fig11Result carries the series plus the per-token trend fits that
// quantify the "slight nonlinearity disappears" observation: with a cold
// cache, per-token time falls as files grow (warm-up amortizes); with a
// warm cache it is flat.
type Fig11Result struct {
	Points []Fig11Point
	// Trend slopes of per-token time (µs/token) against file size; the
	// cold slope is clearly negative, the warm slope is near zero.
	ColdPerTokenSlope float64
	WarmPerTokenSlope float64
	ColdPerTokenFirst float64 // µs/token, smallest file
	ColdPerTokenLast  float64 // µs/token, largest file
	WarmPerTokenFirst float64
	WarmPerTokenLast  float64
}

// Fig11 reproduces the cache warm-up experiment on the Python benchmark.
func Fig11(cfg Config) (Fig11Result, error) {
	var l Lang
	for _, cand := range Languages() {
		if cand.Name == "python" {
			l = cand
		}
	}
	files, err := Corpus(l, cfg)
	if err != nil {
		return Fig11Result{}, err
	}
	cold := newBaseline(l.Grammar, true)
	warm := newBaseline(l.Grammar, false)
	// Warm-up pass: parse the whole corpus once (the paper warms the cache
	// "by parsing many files, and then ran the standard benchmark").
	for _, f := range files {
		res := warm.Parse(f.Tokens)
		mustUnique(res.Kind, l.Name, f.Seed, res.Reason)
	}
	var res Fig11Result
	var coldPts, warmPts []stats.Point
	for _, f := range files {
		f := f
		coldT, _ := timeIt(cfg.Trials, func() {
			r := cold.Parse(f.Tokens)
			mustUnique(r.Kind, l.Name, f.Seed, r.Reason)
		})
		warmT, _ := timeIt(cfg.Trials, func() {
			r := warm.Parse(f.Tokens)
			mustUnique(r.Kind, l.Name, f.Seed, r.Reason)
		})
		n := len(f.Tokens)
		res.Points = append(res.Points, Fig11Point{
			Tokens: n, ColdSeconds: coldT.Seconds(), WarmSeconds: warmT.Seconds(),
		})
		coldPts = append(coldPts, stats.Point{X: float64(n), Y: coldT.Seconds() / float64(n) * 1e6})
		warmPts = append(warmPts, stats.Point{X: float64(n), Y: warmT.Seconds() / float64(n) * 1e6})
	}
	res.ColdPerTokenSlope = stats.Regress(coldPts).Slope
	res.WarmPerTokenSlope = stats.Regress(warmPts).Slope
	res.ColdPerTokenFirst, res.ColdPerTokenLast = coldPts[0].Y, coldPts[len(coldPts)-1].Y
	res.WarmPerTokenFirst, res.WarmPerTokenLast = warmPts[0].Y, warmPts[len(warmPts)-1].Y
	return res, nil
}

// PrintFig11 renders both plots' data and the trend summary.
func PrintFig11(w io.Writer, r Fig11Result) {
	fmt.Fprintf(w, "Figure 11: baseline Python parser, cold cache vs pre-warmed cache\n")
	fmt.Fprintf(w, "%10s %16s %16s %14s %14s\n",
		"tokens", "cold (s)", "warm (s)", "cold µs/tok", "warm µs/tok")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%10d %16.6f %16.6f %14.2f %14.2f\n",
			p.Tokens, p.ColdSeconds, p.WarmSeconds,
			p.ColdSeconds/float64(p.Tokens)*1e6, p.WarmSeconds/float64(p.Tokens)*1e6)
	}
	fmt.Fprintf(w, "\ncold per-token: %.2f → %.2f µs (warm-up amortizes on larger files)\n",
		r.ColdPerTokenFirst, r.ColdPerTokenLast)
	fmt.Fprintf(w, "warm per-token: %.2f → %.2f µs (flat: nonlinearity disappears)\n",
		r.WarmPerTokenFirst, r.WarmPerTokenLast)
}
