package serve

// Functional tests for the parse service: verdict mapping, typed overload
// responses, budget enforcement, and the metrics contract. The network
// fault suite is in fault_test.go and the drain state machine in
// drain_test.go.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"costar/internal/languages/jsonlang"
	"costar/internal/parser"
)

// newTestServer boots a server with a warmed json session on a free port
// and tears it down (asserting a clean drain) when the test ends.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	reg := NewRegistry()
	if _, err := reg.AddLanguage("json", parser.Options{}); err != nil {
		t.Fatal(err)
	}
	cfg.Addr = "127.0.0.1:0"
	s := New(cfg, reg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Drain(); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s
}

// postParse sends body to /parse/{grammar} and decodes the envelope.
func postParse(t *testing.T, s *Server, grammar, query, body string) (int, response) {
	t.Helper()
	url := fmt.Sprintf("http://%s/parse/%s%s", s.Addr(), grammar, query)
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env response
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decoding response envelope: %v", err)
	}
	return resp.StatusCode, env
}

// scrapeMetric fetches /metrics and returns the value of the first sample
// whose name (including labels) matches the given literal prefix.
func scrapeMetric(t *testing.T, s *Server, sample string) int64 {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", s.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, sample+" ") {
			v, err := strconv.ParseInt(strings.TrimPrefix(line, sample+" "), 10, 64)
			if err != nil {
				t.Fatalf("parsing metric %s: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %q not found in scrape", sample)
	return 0
}

// waitGoroutineBaseline retries until the goroutine count falls back to at
// most base (plus slack for runtime housekeeping) — the leak check behind
// the drain and fault guarantees.
func waitGoroutineBaseline(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: %d running, baseline %d\n%s", n, base, buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestServeCleanParse(t *testing.T) {
	s := newTestServer(t, Config{})
	status, env := postParse(t, s, "json", "", jsonlang.Generate(7, 300))
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200 (%+v)", status, env)
	}
	if env.Kind != "Unique" {
		t.Fatalf("kind = %q, want Unique", env.Kind)
	}
	if env.Tokens == 0 || env.Steps == 0 {
		t.Fatalf("missing usage in envelope: %+v", env)
	}
	if scrapeMetric(t, s, `costar_requests_total{verdict="unique"}`) != 1 {
		t.Fatal("unique verdict not counted")
	}
}

func TestServeBrokenInputIsRejectOnTheWire(t *testing.T) {
	s := newTestServer(t, Config{})
	// A lexically valid but syntactically broken document: the session
	// parses in recovering mode, but without ?recover=1 the wire verdict
	// collapses to the classic Reject, diagnostics included.
	status, env := postParse(t, s, "json", "", `{"a": 1, ]`)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 (%+v)", status, env)
	}
	if env.Kind != "Reject" {
		t.Fatalf("kind = %q, want Reject", env.Kind)
	}
	if len(env.Diagnostics) == 0 {
		t.Fatal("Reject response carries no diagnostics")
	}

	// The same input with ?recover=1 is a 200 with the partial tree's
	// diagnostics — the recovered parse the quickstart shows off.
	status, env = postParse(t, s, "json", "?recover=1", `{"a": 1, ]`)
	if status != http.StatusOK {
		t.Fatalf("recover=1 status = %d, want 200 (%+v)", status, env)
	}
	if env.Kind != "Recovered" {
		t.Fatalf("recover=1 kind = %q, want Recovered", env.Kind)
	}
	if len(env.Diagnostics) == 0 {
		t.Fatal("Recovered response carries no diagnostics")
	}
}

func TestServeUnknownGrammar(t *testing.T) {
	s := newTestServer(t, Config{})
	status, env := postParse(t, s, "cobol", "", "IDENTIFICATION DIVISION.")
	if status != http.StatusNotFound || env.Kind != "NotFound" {
		t.Fatalf("got %d %q, want 404 NotFound", status, env.Kind)
	}
}

func TestServeOversizedBodySheds(t *testing.T) {
	s := newTestServer(t, Config{MaxBodyBytes: 1 << 10})
	big := jsonlang.Generate(3, 2000) // well-formed, just too large
	status, env := postParse(t, s, "json", "", big)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (%+v)", status, env)
	}
	if env.Kind != "Shed" {
		t.Fatalf("kind = %q, want Shed — an oversized body must never become a Reject", env.Kind)
	}
	if got := scrapeMetric(t, s, `costar_shed_total{reason="body"}`); got != 1 {
		t.Fatalf("shed{body} = %d, want 1", got)
	}
	if got := scrapeMetric(t, s, `costar_requests_total{verdict="reject"}`); got != 0 {
		t.Fatalf("oversized body counted as a Reject (%d)", got)
	}
}

func TestServeBudgetExhaustion(t *testing.T) {
	s := newTestServer(t, Config{})
	// A 1ms budget cannot chew a six-figure-token document; the parse must
	// die with the structured deadline error, charged to this request.
	big := jsonlang.Generate(11, 400000)
	status, env := postParse(t, s, "json", "?budget_ms=1", big)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%+v)", status, env)
	}
	if env.Kind != "Error" || env.Reason != "deadline budget exhausted" {
		t.Fatalf("unexpected envelope: %+v", env)
	}
	if got := scrapeMetric(t, s, "costar_deadline_exhaustions_total"); got != 1 {
		t.Fatalf("deadline_exhaustions = %d, want 1", got)
	}
	// A burned budget is this caller's problem only: the next request
	// parses fine on the same session.
	status, env = postParse(t, s, "json", "", jsonlang.Generate(7, 200))
	if status != http.StatusOK || env.Kind != "Unique" {
		t.Fatalf("request after a deadline got %d %q, want 200 Unique", status, env.Kind)
	}
}

// TestServeBudgetExpiresDuringBodyRead covers the other way a budget runs
// out: the parse is blocked waiting for body bytes that never come. The
// unblock hook cuts the read when the budget expires, and that cut read is
// the spent budget — a 504 counted as a deadline exhaustion — not a
// malformed request.
func TestServeBudgetExpiresDuringBodyRead(t *testing.T) {
	s := newTestServer(t, Config{})
	pr, pw := io.Pipe()
	defer pw.Close()
	doc := jsonlang.Generate(5, 100)
	go pw.Write([]byte(doc[:len(doc)/2])) // then stall: the rest never comes
	req, err := http.NewRequest("POST", fmt.Sprintf("http://%s/parse/json?budget_ms=250", s.Addr()), pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env response
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decoding response envelope: %v", err)
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%+v)", resp.StatusCode, env)
	}
	if env.Kind != "Error" || env.Reason != "deadline budget exhausted" {
		t.Fatalf("unexpected envelope: %+v", env)
	}
	if got := scrapeMetric(t, s, "costar_deadline_exhaustions_total"); got != 1 {
		t.Fatalf("deadline_exhaustions = %d, want 1", got)
	}
}

func TestServeAdmissionShed(t *testing.T) {
	// Gate sized to hold exactly one opaque-length request (UnknownCost 8
	// of 10 units) with no queue: while a pipelined body holds the gate, a
	// second request must shed 429 immediately — never queue, never Reject.
	s := newTestServer(t, Config{MaxCost: 10, MaxQueue: -1, UnknownCost: 8})
	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		req, _ := http.NewRequest("POST", fmt.Sprintf("http://%s/parse/json", s.Addr()), pr)
		resp, err := http.DefaultClient.Do(req) // chunked: ContentLength unknown
		if err != nil {
			t.Errorf("in-flight request: %v", err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("in-flight request status = %d, want 200", resp.StatusCode)
		}
	}()
	doc := jsonlang.Generate(5, 100)
	if _, err := pw.Write([]byte(doc[:len(doc)/2])); err != nil {
		t.Fatal(err)
	}
	// The gate is now held. Wait until the server reports the occupancy so
	// the shed below cannot race the acquire.
	deadline := time.Now().Add(5 * time.Second)
	for scrapeMetric(t, s, "costar_admission_inuse") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight request never reached the admission gate")
		}
		time.Sleep(10 * time.Millisecond)
	}
	status, env := postParse(t, s, "json", "", jsonlang.Generate(6, 100))
	if status != http.StatusTooManyRequests || env.Kind != "Shed" {
		t.Fatalf("got %d %q, want 429 Shed", status, env.Kind)
	}
	if env.RetryAfterMS == 0 {
		t.Fatal("429 without a Retry-After hint")
	}
	if got := scrapeMetric(t, s, `costar_shed_total{reason="admission"}`); got != 1 {
		t.Fatalf("shed{admission} = %d, want 1", got)
	}
	// Release the gate: the held request completes cleanly.
	if _, err := pw.Write([]byte(doc[len(doc)/2:])); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	<-done
	if got := scrapeMetric(t, s, `costar_requests_total{verdict="reject"}`); got != 0 {
		t.Fatalf("admission pressure produced a false Reject (%d)", got)
	}
}

func TestServeHealthAndGrammars(t *testing.T) {
	s := newTestServer(t, Config{})
	for path, want := range map[string]int{"/healthz": 200, "/readyz": 200} {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", s.Addr(), path))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/grammars", s.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var grammars []struct {
		Name        string `json:"name"`
		Fingerprint string `json:"fingerprint"`
		Origin      string `json:"origin"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&grammars); err != nil {
		t.Fatal(err)
	}
	if len(grammars) != 1 || grammars[0].Name != "json" || grammars[0].Origin != "builtin" {
		t.Fatalf("unexpected grammar listing: %+v", grammars)
	}
}

func TestServeMetricsExposition(t *testing.T) {
	s := newTestServer(t, Config{})
	postParse(t, s, "json", "", jsonlang.Generate(7, 200))
	postParse(t, s, "json", "", `{"broken": ]`)
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", s.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	// Spot-check the exposition: each family has a TYPE line and every
	// sample line is name{labels} value.
	for _, family := range []string{
		"costar_requests_total", "costar_shed_total", "costar_parse_ns_total",
		"costar_parse_tokens_total", "costar_usage_max", "costar_admission_capacity",
		"costar_session_cache_hits_total", "costar_session_cache_states",
	} {
		if !strings.Contains(text, "# TYPE "+family+" ") {
			t.Errorf("scrape missing family %s", family)
		}
	}
	sample := regexp.MustCompile(`^[a-z_]+(\{[^}]*\})? -?\d+$`)
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sample.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
	if scrapeMetric(t, s, `costar_requests_total{verdict="unique"}`) != 1 ||
		scrapeMetric(t, s, `costar_requests_total{verdict="reject"}`) != 1 {
		t.Error("verdict counters do not match the traffic")
	}
	if scrapeMetric(t, s, "costar_parse_tokens_total") == 0 {
		t.Error("token counter never moved")
	}
	if scrapeMetric(t, s, `costar_usage_max{resource="steps"}`) == 0 {
		t.Error("usage high-water mark never moved")
	}
}
