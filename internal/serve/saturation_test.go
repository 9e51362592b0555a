package serve

// The saturation gate: overload must stay typed. A server with a
// deliberately small admission gate is driven at 1x, 4x and 16x its
// concurrency with a clean json corpus, and the gate requires (1) zero
// Reject responses — an overloaded server says 429/503, never "your input
// is wrong" — and (2) the server's shed ledger to equal the clients': every
// refusal a client saw is in costar_shed_total, and none is invented.

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"costar/internal/bench"
)

// trickleBody delivers a request body in two installments with a pause
// between them, the way a real network interleaves delivery with parsing.
// The pause matters beyond realism: it makes the parse block on a body read
// while holding its admission grant, so on a single-CPU host — where a
// CPU-bound parse would otherwise monopolize the scheduler and feed the
// gate one request at a time — competing requests genuinely pile up at the
// gate and saturation is observable.
type trickleBody struct {
	data  string
	pos   int
	pause time.Duration
	sent  bool // the pause fires once, before the second installment
}

func (b *trickleBody) Read(p []byte) (int, error) {
	if b.pos >= len(b.data) {
		return 0, io.EOF
	}
	limit := len(b.data)
	if !b.sent {
		if b.pos >= len(b.data)/4 {
			b.sent = true
			time.Sleep(b.pause)
		} else {
			limit = len(b.data) / 4
		}
	}
	n := copy(p, b.data[b.pos:limit])
	b.pos += n
	return n, nil
}

// loadRow counts one load level's responses by class.
type loadRow struct {
	load, workers, requests   int
	ok, shed, rejects, errors int
}

// driveLoad has workers clients each send perWorker trickled bodies.
func driveLoad(s *Server, bodies []string, load, workers, perWorker int) loadRow {
	type outcome struct {
		status int
		kind   string
	}
	outcomes := make([]outcome, workers*perWorker)
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: workers, // keep-alive across the burst
	}}
	url := fmt.Sprintf("http://%s/parse/json", s.Addr())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				body := bodies[(w*perWorker+i)%len(bodies)]
				o := outcome{status: -1}
				req, err := http.NewRequest("POST", url, &trickleBody{data: body, pause: 2 * time.Millisecond})
				if err == nil {
					req.Header.Set("Content-Type", "text/plain")
					req.ContentLength = int64(len(body)) // declared size drives the admission weight
					var resp *http.Response
					if resp, err = client.Do(req); err == nil {
						o.status = resp.StatusCode
						raw, _ := io.ReadAll(resp.Body)
						resp.Body.Close()
						if i := strings.Index(string(raw), `"kind":"`); i >= 0 {
							rest := string(raw[i+len(`"kind":"`):])
							o.kind = rest[:strings.Index(rest, `"`)]
						}
					}
				}
				outcomes[w*perWorker+i] = o
			}
		}(w)
	}
	wg.Wait()

	row := loadRow{load: load, workers: workers, requests: len(outcomes)}
	for _, o := range outcomes {
		switch {
		case o.status == http.StatusOK:
			row.ok++
		case o.status == http.StatusTooManyRequests || o.status == http.StatusServiceUnavailable ||
			o.status == http.StatusRequestEntityTooLarge:
			row.shed++
		case o.status == http.StatusUnprocessableEntity || o.kind == "Reject":
			row.rejects++
		default:
			row.errors++
		}
	}
	return row
}

func TestServeSaturationGate(t *testing.T) {
	if testing.Short() {
		t.Skip("serve saturation gate fires thousands of HTTP requests; skipped in -short")
	}
	// A clean corpus of mid-size documents: every parse verdict on these
	// must be Unique, so any Reject under load is the server's lie.
	cfg := bench.Quick()
	cfg.Trials = 1
	files, err := bench.Corpus(bench.Languages()[0], cfg) // Figure 8 order: json first
	if err != nil {
		t.Fatal(err)
	}
	bodies := make([]string, len(files))
	avgBytes := 0
	for i, f := range files {
		bodies[i] = f.Source
		avgBytes += len(f.Source)
	}
	avgBytes /= len(bodies)

	// Size the gate from the corpus: two average requests fit at once, two
	// more may queue. The baseline (1x) load matches that concurrency, so
	// 4x and 16x are genuine saturation and must shed — anything the gate
	// absorbs silently at 16x would mean it is not actually bounding work.
	const baseline = 2
	s := newTestServer(t, Config{
		MaxCost:       int64(baseline) * int64(avgBytes/4+1),
		MaxQueue:      baseline,
		DefaultBudget: 10 * time.Second, // saturation must shed, not time out
	})
	perLoad := 60 * cfg.Trials // requests per worker

	clientShed := 0
	sawShed := false
	for _, load := range []int{1, 4, 16} {
		r := driveLoad(s, bodies, load, baseline*load, perLoad)
		// Reconcile the ledgers cumulatively: every typed refusal any client
		// has seen so far must appear in the server's shed counters.
		clientShed += r.shed
		serverShed := 0
		for _, reason := range shedNames {
			serverShed += int(scrapeMetric(t, s, fmt.Sprintf("costar_shed_total{reason=%q}", reason)))
		}
		t.Logf("load %2dx: %d workers, %d requests, %d ok, %d shed (%.1f%%), %d rejects, %d errors",
			r.load, r.workers, r.requests, r.ok, r.shed, 100*float64(r.shed)/float64(r.requests), r.rejects, r.errors)
		if r.rejects != 0 {
			t.Errorf("load %dx: %d clean-corpus requests came back Reject — overload must never masquerade as a verdict", r.load, r.rejects)
		}
		if r.errors != 0 {
			t.Errorf("load %dx: %d responses were neither verdicts nor typed sheds", r.load, r.errors)
		}
		if serverShed != clientShed {
			t.Errorf("load %dx: shed accounting mismatch: server ledger %d, clients observed %d",
				r.load, serverShed, clientShed)
		}
		if r.ok == 0 {
			t.Errorf("load %dx: no request succeeded — shedding everything is not admission control", r.load)
		}
		if r.shed > 0 {
			sawShed = true
		}
	}
	if !sawShed {
		t.Error("no load level shed anything: the experiment never saturated its gate")
	}
}
