// Package serve is the hardened parse service behind `costar serve`: an
// HTTP daemon exposing a registry of pre-warmed parser sessions with the
// fleet-level extension of the paper's per-parse guarantee — a request is
// never told "Reject" because the server was overloaded. Overload has its
// own typed vocabulary (429 admission shed, 413 oversized body, 503 drain,
// 504 budget exhausted), and "Reject" is reserved for the parser's actual
// verdict on the actual input.
//
// The robustness spine, in request order:
//
//  1. Admission: a weighted-semaphore gate sized in cost units derived
//     from Limits, with a bounded FIFO queue. Beyond the queue, requests
//     shed immediately with Retry-After — no unbounded queuing.
//  2. Budget: every request carries a deadline budget (default or
//     ?budget_ms, capped by MaxBudget) that starts at arrival. Queue wait
//     and parse time are both charged to the caller's budget, never to a
//     worker's; a slow parse dies with a structured deadline error.
//  3. Backpressure: bodies are bounded by MaxBytesReader and pulled
//     through the demand-driven token cursor — the parser reads only as it
//     consumes, so a flooding client is slowed to parse speed. Slow-loris
//     clients are bounded by the http.Server read/write/idle deadlines.
//  4. Containment: a panic inside a parse is caught at the session
//     boundary (PR 5) and served as a typed 500; the process and the
//     session both survive.
//  5. Drain: on SIGTERM the server stops accepting (readyz flips false
//     first), lets in-flight parses finish under DrainTimeout, then
//     hard-cancels stragglers through the same context plumbing a caller's
//     deadline uses. A drained server has zero goroutines left.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"costar/internal/diag"
	"costar/internal/lexer"
	"costar/internal/machine"
	"costar/internal/parser"
)

// Config tunes the server. The zero value is usable: withDefaults fills
// every field with conservative production settings.
type Config struct {
	// Addr is the listen address (host:port; port 0 picks a free port).
	Addr string
	// MaxBodyBytes bounds request bodies; beyond it the request sheds with
	// 413. Default 8 MiB.
	MaxBodyBytes int64
	// DefaultBudget is the per-request deadline when the caller sends no
	// ?budget_ms. Default 2s.
	DefaultBudget time.Duration
	// MaxBudget caps ?budget_ms — the largest deadline a caller may buy.
	// Default 30s.
	MaxBudget time.Duration
	// DrainTimeout bounds how long Drain waits for in-flight requests
	// before hard-canceling them. Default 10s.
	DrainTimeout time.Duration
	// DrainGrace holds the listener open after readiness flips false so
	// load balancers polling /readyz observe the drain before new
	// connections start being refused; parse requests arriving in the
	// grace window get the typed 503 shed. Default 0 (close immediately).
	DrainGrace time.Duration
	// ReadHeaderTimeout / ReadTimeout / WriteTimeout / IdleTimeout are the
	// http.Server slow-loris bounds. Defaults 5s / 30s / 30s / 60s.
	ReadHeaderTimeout time.Duration
	ReadTimeout       time.Duration
	WriteTimeout      time.Duration
	IdleTimeout       time.Duration
	// MaxCost is the admission gate's capacity in cost units (~tokens of
	// estimated work). Zero derives it from Limits.MaxTokens × 2×GOMAXPROCS
	// — "enough for every worker to chew a maximal input with one queued
	// behind it" — or 1<<18 when no token limit is set.
	MaxCost int64
	// BytesPerCost converts Content-Length to cost units (≈ bytes/token
	// for the bundled corpora). Default 4.
	BytesPerCost int64
	// UnknownCost is the weight charged to chunked bodies with no declared
	// length. Default MaxBodyBytes/BytesPerCost/8 — pessimistic enough to
	// stop a flood of opaque bodies from swamping the gate.
	UnknownCost int64
	// MaxQueue bounds waiters parked at the admission gate; beyond it
	// requests shed immediately. Default 64.
	MaxQueue int
	// Limits is the per-request resource governor handed to sessions
	// registered through this config's server (informational here — the
	// registry applies Limits via parser.Options at registration).
	Limits parser.Limits
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:8143"
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.DefaultBudget <= 0 {
		c.DefaultBudget = 2 * time.Second
	}
	if c.MaxBudget <= 0 {
		c.MaxBudget = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.ReadHeaderTimeout <= 0 {
		c.ReadHeaderTimeout = 5 * time.Second
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 60 * time.Second
	}
	if c.BytesPerCost <= 0 {
		c.BytesPerCost = 4
	}
	if c.MaxCost <= 0 {
		if c.Limits.MaxTokens > 0 {
			c.MaxCost = int64(c.Limits.MaxTokens) * int64(2*runtime.GOMAXPROCS(0))
		} else {
			c.MaxCost = 1 << 18
		}
	}
	if c.UnknownCost <= 0 {
		c.UnknownCost = c.MaxBodyBytes / c.BytesPerCost / 8
		if c.UnknownCost < 1 {
			c.UnknownCost = 1
		}
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0 // explicit "no queue": shed the moment the gate is full
	}
	return c
}

// Server is the daemon: an http.Server wired to a session registry through
// the admission gate and metrics. Create with New, boot with Start (or
// Run), stop with Drain.
type Server struct {
	cfg Config
	reg *Registry
	adm *admission
	met *metrics
	hs  *http.Server
	ln  net.Listener

	ready    atomic.Bool
	draining atomic.Bool

	// hardCtx is canceled only when the drain deadline passes with parses
	// still in flight: every in-flight request's parse context is tied to
	// it via context.AfterFunc, so one cancel reaches every machine loop.
	hardCtx    context.Context
	hardCancel context.CancelFunc

	started  chan struct{} // closed once the listener is bound (Addr is safe after)
	serveErr chan error
}

// New builds a server over reg. The registry may gain sessions after New;
// the handler reads it per request.
func New(cfg Config, reg *Registry) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		adm:     newAdmission(cfg.MaxCost, cfg.MaxQueue),
		met:     &metrics{},
		started: make(chan struct{}),
	}
	s.hardCtx, s.hardCancel = context.WithCancel(context.Background())
	s.hs = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: cfg.ReadHeaderTimeout,
		ReadTimeout:       cfg.ReadTimeout,
		WriteTimeout:      cfg.WriteTimeout,
		IdleTimeout:       cfg.IdleTimeout,
	}
	return s
}

// Handler returns the server's routing handler (exposed for in-process
// tests; production traffic goes through Start's listener so the
// http.Server deadlines apply).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /grammars", s.handleGrammars)
	mux.HandleFunc("POST /parse/{grammar}", s.handleParse)
	return mux
}

// Start binds the listener and begins serving in the background. The
// server reports ready as soon as Start returns.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.serveErr = make(chan error, 1)
	s.ready.Store(true)
	close(s.started)
	go func() { s.serveErr <- s.hs.Serve(ln) }()
	return nil
}

// Started is closed once the listener is bound; Addr is safe to call after
// it (tests boot through Run and need the picked port without racing Start).
func (s *Server) Started() <-chan struct{} { return s.started }

// Addr reports the bound listen address (useful with port 0).
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// ServeFailed yields the background Serve error if the listener dies
// underneath a started server (never the ErrServerClosed a Drain causes —
// Drain consumes that itself). Callers select on it alongside their signal
// channel; on a signal they must call Drain instead of reading this.
func (s *Server) ServeFailed() <-chan error {
	return s.serveErr
}

// Drain is the graceful-shutdown state machine: readiness flips false
// first (load balancers stop routing), new parse requests get typed 503s,
// in-flight requests finish under DrainTimeout, stragglers past the
// deadline are hard-canceled through the parse-context plumbing (they
// respond with structured deadline/cancel errors, not connection resets),
// and the accept goroutine is reaped before Drain returns — a drained
// server holds zero goroutines.
func (s *Server) Drain() error {
	s.ready.Store(false)
	s.draining.Store(true)
	if s.cfg.DrainGrace > 0 {
		// Readiness is already false and parse requests already shed; keep
		// accepting for the grace window so health pollers see the flip.
		time.Sleep(s.cfg.DrainGrace)
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if err != nil {
		// Drain deadline passed with requests still in flight: cancel their
		// parse contexts and give the handlers a short grace to write their
		// structured error responses before closing the listener hard.
		s.hardCancel()
		gctx, gcancel := context.WithTimeout(context.Background(), 2*time.Second)
		err = s.hs.Shutdown(gctx)
		gcancel()
		if err != nil {
			err = s.hs.Close()
		}
	}
	s.hardCancel() // release the AfterFunc timers even on a clean drain
	if s.serveErr != nil {
		if serr := <-s.serveErr; serr != nil && serr != http.ErrServerClosed && err == nil {
			err = serr
		}
	}
	return err
}

// Run is the daemon main loop: Start, wait for a signal (or ctx), Drain.
// It returns nil on a clean drain — the process should exit 0 on SIGTERM.
// The signal channel is a parameter so tests inject SIGTERM without
// touching process state.
func (s *Server) Run(ctx context.Context, sig <-chan os.Signal) error {
	if err := s.Start(); err != nil {
		return err
	}
	select {
	case <-ctx.Done():
	case <-sig:
	case err := <-s.serveErr:
		// The listener died underneath us; nothing left to drain.
		s.serveErr = nil
		s.hardCancel()
		return err
	}
	return s.Drain()
}

// response is the single JSON envelope every endpoint speaks. Kind is the
// wire verdict: the parser's own kinds plus "Shed" (admission/body/drain
// refusals), "NotFound", and "Unavailable".
type response struct {
	Grammar      string            `json:"grammar,omitempty"`
	Kind         string            `json:"kind"`
	Tokens       int               `json:"tokens,omitempty"`
	Steps        int               `json:"steps,omitempty"`
	Reason       string            `json:"reason,omitempty"`
	Error        string            `json:"error,omitempty"`
	Diagnostics  []diag.Diagnostic `json:"diagnostics,omitempty"`
	Usage        *machine.Usage    `json:"usage,omitempty"`
	Tree         string            `json:"tree,omitempty"`
	ElapsedNS    int64             `json:"elapsed_ns,omitempty"`
	RetryAfterMS int64             `json:"retry_after_ms,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, resp response) {
	w.Header().Set("Content-Type", "application/json")
	if resp.RetryAfterMS > 0 {
		secs := (resp.RetryAfterMS + 999) / 1000
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(resp)
}

// shed refuses a request without a parse verdict: a typed response with
// Retry-After, counted under costar_shed_total{reason}.
func (s *Server) shed(w http.ResponseWriter, grammarName string, reason int, status int, msg string) {
	s.met.shed[reason].Add(1)
	writeJSON(w, status, response{
		Grammar:      grammarName,
		Kind:         "Shed",
		Reason:       msg,
		RetryAfterMS: 1000,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.ready.Load() && !s.draining.Load() {
		w.Write([]byte("ready\n"))
		return
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	w.Write([]byte("draining\n"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeProm(w)
}

func (s *Server) handleGrammars(w http.ResponseWriter, r *http.Request) {
	type grammarInfo struct {
		Name        string `json:"name"`
		Fingerprint string `json:"fingerprint"`
		Origin      string `json:"origin"`
		Certified   bool   `json:"certified"`
	}
	sessions := s.reg.Sessions()
	out := make([]grammarInfo, 0, len(sessions))
	for _, sess := range sessions {
		out = append(out, grammarInfo{
			Name:        sess.Name(),
			Fingerprint: strconv.FormatUint(sess.Fingerprint(), 16),
			Origin:      sess.Origin(),
			Certified:   sess.Certified(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// budgetFor resolves the request's deadline budget: ?budget_ms clamped to
// [1ms, MaxBudget], DefaultBudget otherwise.
func (s *Server) budgetFor(r *http.Request) time.Duration {
	raw := r.URL.Query().Get("budget_ms")
	if raw == "" {
		return s.cfg.DefaultBudget
	}
	ms, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || ms < 1 {
		return s.cfg.DefaultBudget
	}
	d := time.Duration(ms) * time.Millisecond
	if d > s.cfg.MaxBudget {
		d = s.cfg.MaxBudget
	}
	return d
}

// costOf estimates a request's admission weight from its declared body
// size: Content-Length over BytesPerCost approximates the token count the
// parse will chew. Chunked bodies with no declared length are charged the
// pessimistic UnknownCost.
func (s *Server) costOf(contentLength int64) int64 {
	if contentLength < 0 {
		return s.cfg.UnknownCost
	}
	c := contentLength/s.cfg.BytesPerCost + 1
	if c > s.cfg.MaxCost {
		c = s.cfg.MaxCost
	}
	return c
}

func (s *Server) handleParse(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("grammar")
	if s.draining.Load() {
		s.shed(w, name, shedDrain, http.StatusServiceUnavailable, "server is draining")
		return
	}
	sess, ok := s.reg.Get(name)
	if !ok {
		writeJSON(w, http.StatusNotFound, response{
			Grammar: name, Kind: "NotFound",
			Reason: "unknown grammar (GET /grammars lists what this server parses)",
		})
		return
	}

	// The budget clock starts here: queue wait at the admission gate and
	// parse time both spend the caller's deadline.
	ctx, cancel := context.WithTimeout(r.Context(), s.budgetFor(r))
	defer cancel()
	// Tie this request's parse context to the drain hard-cancel: when the
	// drain deadline passes, every in-flight machine loop sees one cancel.
	stop := context.AfterFunc(s.hardCtx, cancel)
	defer stop()

	weight := s.costOf(r.ContentLength)
	if err := s.adm.acquire(ctx, weight); err != nil {
		s.met.shed[shedAdmission].Add(1)
		msg := "admission queue full"
		if !errors.Is(err, errSaturated) {
			msg = "deadline budget exhausted while queued for admission"
		}
		writeJSON(w, http.StatusTooManyRequests, response{
			Grammar: name, Kind: "Shed", Reason: msg, RetryAfterMS: 1000,
		})
		return
	}
	defer s.adm.release(weight)

	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)

	// Context cancellation reaches the machine loop between steps, but a
	// parse blocked *inside* a body read (a stalled client) needs the read
	// itself unblocked: when the request context dies — budget expiry,
	// client disconnect, or drain hard-cancel — slam the connection's read
	// deadline shut so the pending read returns and the parse surfaces a
	// structured error instead of pinning a drain.
	rc := http.NewResponseController(w)
	unblock := context.AfterFunc(ctx, func() { rc.SetReadDeadline(time.Now()) })
	defer unblock()

	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	start := time.Now()
	res := sess.Parse(ctx, body)
	elapsed := time.Since(start)

	s.writeResult(ctx, w, r, name, res, elapsed)
}

// writeResult maps a parse Result onto the wire: verdicts to statuses,
// structured machine errors to their typed overload/abuse responses. The
// invariant the fault suite checks lives here: "Reject" is written only
// when the parser decided Reject (or Recovered without caller opt-in) —
// every overload, fault, and abuse path has its own kind and status.
func (s *Server) writeResult(ctx context.Context, w http.ResponseWriter, r *http.Request, name string, res parser.Result, elapsed time.Duration) {
	wantRecover := r.URL.Query().Get("recover") == "1"
	wantTree := r.URL.Query().Get("tree") == "1"
	resp := response{
		Grammar:     name,
		Kind:        res.Kind.String(),
		Tokens:      res.Consumed,
		Steps:       res.Steps,
		Reason:      res.Reason,
		Diagnostics: res.Diags,
		ElapsedNS:   elapsed.Nanoseconds(),
	}
	u := res.Usage
	resp.Usage = &u
	ns := elapsed.Nanoseconds()

	switch res.Kind {
	case parser.Unique:
		if wantTree && res.Tree != nil {
			resp.Tree = res.Tree.String()
		}
		s.met.observe(vUnique, res.Usage, ns)
		writeJSON(w, http.StatusOK, resp)
	case parser.Ambig:
		if wantTree && res.Tree != nil {
			resp.Tree = res.Tree.String()
		}
		s.met.observe(vAmbig, res.Usage, ns)
		writeJSON(w, http.StatusOK, resp)
	case parser.Recovered:
		if wantRecover {
			if wantTree && res.Tree != nil {
				resp.Tree = res.Tree.String()
			}
			s.met.observe(vRecovered, res.Usage, ns)
			writeJSON(w, http.StatusOK, resp)
			return
		}
		// The session always parses in recovering mode; a caller that did
		// not opt in gets the classic verdict, diagnostics included.
		resp.Kind = "Reject"
		resp.Tree = ""
		if resp.Reason == "" && len(res.Diags) > 0 {
			resp.Reason = res.Diags[0].String()
		}
		s.met.observe(vReject, res.Usage, ns)
		writeJSON(w, http.StatusUnprocessableEntity, resp)
	case parser.Reject:
		s.met.observe(vReject, res.Usage, ns)
		writeJSON(w, http.StatusUnprocessableEntity, resp)
	default: // parser.Error
		s.writeError(ctx, w, resp, res, ns)
	}
}

// writeError maps structured machine errors to statuses. Every branch is
// an explicit contract with the fault suite; the fallthrough is 500. ctx is
// the request's budget context.
func (s *Server) writeError(ctx context.Context, w http.ResponseWriter, resp response, res parser.Result, ns int64) {
	if res.Err != nil {
		resp.Error = res.Err.Error()
	}
	status := http.StatusInternalServerError
	var me *machine.Error
	if errors.As(res.Err, &me) {
		switch me.Kind {
		case machine.ErrDeadline:
			// The caller's budget expired mid-parse: the slow parse was
			// charged to the caller, and the worker is already free.
			status = s.budgetExhausted(&resp)
		case machine.ErrCanceled:
			s.met.canceled.Add(1)
			if s.draining.Load() {
				// Drain hard-cancel beat the caller's own deadline.
				status = http.StatusServiceUnavailable
				resp.Reason = "canceled by server drain"
				resp.RetryAfterMS = 1000
			} else {
				// The caller went away; the response is a courtesy.
				status = 499 // client closed request (nginx convention)
				resp.Reason = "canceled by client"
			}
		case machine.ErrLimit:
			// The per-request governor refused the input — a property of
			// the request, not of server load, so no Retry-After.
			s.met.limits.Add(1)
			status = http.StatusUnprocessableEntity
			resp.Reason = me.Msg
		case machine.ErrPanic:
			s.met.panics.Add(1)
			status = http.StatusInternalServerError
			resp.Reason = "internal panic contained"
		case machine.ErrSource:
			var tooBig *http.MaxBytesError
			var lexErr *lexer.Error
			switch {
			case errors.As(me, &tooBig):
				// Body over MaxBodyBytes: a shed, not a verdict — the
				// parser never saw the whole input.
				s.met.shed[shedBody].Add(1)
				writeJSON(w, http.StatusRequestEntityTooLarge, response{
					Grammar: resp.Grammar, Kind: "Shed",
					Reason:       "request body exceeds the server's size bound",
					RetryAfterMS: 1000,
				})
				return
			case errors.As(me, &lexErr):
				// The bytes do not lex: malformed input, the client's
				// problem, with the positioned diagnostic attached.
				status = http.StatusUnprocessableEntity
			default:
				if s.draining.Load() && s.hardCtx.Err() != nil {
					// The hard-cancel unblocked a stalled body read: the
					// server is shutting down, not the request malformed.
					status = http.StatusServiceUnavailable
					resp.Reason = "canceled by server drain"
					resp.RetryAfterMS = 1000
					break
				}
				if errors.Is(ctx.Err(), context.DeadlineExceeded) {
					// The budget expired while the parse was blocked in a
					// body read, and the unblock hook cut that read short.
					status = s.budgetExhausted(&resp)
					break
				}
				// The body stream itself failed (disconnect mid-body,
				// read timeout): a bad request, never a Reject.
				status = http.StatusBadRequest
			}
		}
	}
	s.met.observe(vError, res.Usage, ns)
	writeJSON(w, status, resp)
}

// budgetExhausted marks resp as a spent deadline budget and returns its
// status.
func (s *Server) budgetExhausted(resp *response) int {
	s.met.deadlines.Add(1)
	resp.Reason = "deadline budget exhausted"
	resp.RetryAfterMS = 1000
	return http.StatusGatewayTimeout
}
