// Package server exposes the wall-clock transaction service (shard.Service
// over N ≥ 1 engine shards) over HTTP/JSON, engineered to degrade
// gracefully under real overload:
//
//   - submissions carry the client's deadline and are load-shed by the
//     engine's admission controller (a shed request gets a fast 503 with
//     Retry-After instead of queueing into certain lateness);
//   - concurrency is bounded by an accept semaphore: past the bound the
//     server answers 503 immediately rather than accumulating goroutines;
//   - a departed client's transaction is wounded (context propagation all
//     the way into the engine), so abandoned work stops consuming the CPU;
//   - handler panics are isolated to the request that caused them;
//   - shutdown drains: new work is refused, in-flight transactions finish
//     or are wounded at the drain deadline, and the metrics snapshot stays
//     servable until the very end;
//   - observability is built in: /metrics (engine counters + server-side
//     response percentiles), /healthz (engine/oracle failure surfaces
//     here), /debug/pprof and /debug/vars.
//
// Two front-ends share one serving path: this HTTP/JSON listener and the
// binary wire protocol (internal/wire, enabled via ServeListeners). Both
// decode into core.ServiceRequest and hand it straight to its home shard's
// inbox (shard.Service.Enqueue), whose driver injects every submission that
// arrived while it was busy in one pass — so the per-request handoff cost
// is paid per driver wakeup, not per transaction. There is no second
// service type behind it: one shard is the same code as many. Overload and
// drain behavior is identical on both front-ends: fast shed with an
// admission-derived Retry-After.
//
// The way back is as single as the way in. wire.Classify turns an answer
// into a status once; the batcher's done closure counts it (its answers
// are indexed by that status) and hands it to the waiting front-end, which
// only renders it: the HTTP handler blocks on the core.Waiter every
// Service.Submit uses and looks its status code up from the same table the
// wire response is built from. The handler itself counts only what never
// reached the service: undecodable JSON and the at-capacity shed.
package server

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Options configure the server.
type Options struct {
	// Core is the engine configuration (policy, workload structure,
	// admission control). Admission is the server's load-shedding rule:
	// core.RejectInfeasible turns arrivals that cannot meet their deadline
	// into fast 503s.
	Core core.Config
	// Service tunes the wall-clock service (speed for tests, live
	// oracle).
	Service core.ServiceOptions
	// Shards partitions the item space across N engine shards (item i →
	// shard i % N): single-shard submissions route directly to their
	// shard, cross-shard ones batch at epoch boundaries (see
	// internal/shard). Below 1 means 1.
	Shards int
	// Epoch is the cross-shard batching interval in simulated time
	// (0 = shard.defaultEpoch). Without effect on one shard.
	Epoch time.Duration
	// Supervise contains shard-driver failures: a panicking shard becomes
	// failed-with-error outcomes for its inflight transactions and a
	// degraded /healthz instead of a dead process.
	Supervise shard.SuperviseOptions
	// WireIdleTimeout closes a wire connection that sits idle between
	// frames (slow-loris guard). 0 = wire.DefaultIdleTimeout; negative
	// disables.
	WireIdleTimeout time.Duration
	// MaxInflight bounds concurrently admitted HTTP submissions, each wire
	// connection's pipeline and each shard's inbox of not yet injected
	// submissions; past a bound the server sheds with a fast 503 or a wire
	// StatusShed (default 256).
	MaxInflight int
	// DrainTimeout bounds graceful shutdown: in-flight transactions get
	// this long to finish before being wounded (default 5s).
	DrainTimeout time.Duration
	// ReadTimeout and WriteTimeout guard against slow clients holding
	// connections (and their inflight slots) forever (default 15s each).
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// WALDir enables the durable submission log: accepted submissions
	// and their outcomes are appended to segment files in this
	// directory, and answers wait for the outcome record's group-commit
	// fsync. Empty (and WALFS nil) disables durability entirely — the
	// submit path is then a proven zero-overhead passthrough.
	WALDir string
	// WALSync is the group-commit coalescing interval (0 = fsync every
	// observed batch; see wal.Options.SyncEvery).
	WALSync time.Duration
	// WALSegmentBytes and WALRetain tune segment rotation and retention
	// (0 = wal defaults).
	WALSegmentBytes int64
	WALRetain       int
	// Recover replays unresolved submissions found in the WAL at
	// startup through the engine (outcomes stamped FlagReplayed).
	// Without it, unresolved records are resolved as aborted — the log
	// converges, nothing re-executes.
	Recover bool
	// WALFS overrides the log's filesystem (tests, crash harness);
	// when set, WALDir is ignored.
	WALFS wal.FS
	// walFileFaults injects seeded file-level faults (torn writes,
	// short writes, fsync errors, checksum corruption) into every
	// segment file — the crash harness's knob. The zero plan is an
	// identity passthrough.
	walFileFaults fault.FilePlan
	walFaultSeed  int64
}

func (o *Options) fillDefaults() {
	if o.Shards < 1 {
		o.Shards = 1
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 256
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 5 * time.Second
	}
	if o.ReadTimeout <= 0 {
		o.ReadTimeout = 15 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 15 * time.Second
	}
}

// Server is the front-end over the sharded transaction service: the
// HTTP/JSON listener, and optionally the binary wire listener
// (ServeListeners), both feeding the sharded service's inboxes.
type Server struct {
	opts Options
	svc  *shard.Service
	mux  *http.ServeMux

	inflight chan struct{}

	// statsMu caches the service stats snapshot for retry-after
	// derivation: under overload every shed consults the load estimate,
	// and hammering the driver goroutine with Stats calls would make the
	// overload worse.
	statsMu sync.Mutex
	statsAt time.Time
	stats   core.ServiceStats
	statsOK bool

	// Request counters (also rendered by /metrics). batch counts every
	// answer that came back from the service (batcher.done, the one place
	// it moves), either protocol, by its wire.Status*; shed and badReqs
	// count what the HTTP handler refused before the service (inflight
	// bound or full inbox; undecodable JSON).
	batch   batcher
	shed    atomic.Int64
	badReqs atomic.Int64
	panics  atomic.Int64

	// wireSrv holds the wire front-end once ServeListeners starts it, so
	// /metrics can render its connection counters.
	wireSrv atomic.Pointer[wire.Server]

	// respHist accumulates wall-clock response times of completed
	// submissions in a fixed-bucket log-scale histogram: constant
	// memory, bounded quantile error, no sample eviction.
	respMu   sync.Mutex
	respHist metrics.Histogram

	finalMu sync.Mutex
	final   core.ServiceStats
	finalOK bool

	// Durability state (nil wal = disabled). recovering is true from
	// construction until the startup replay of unresolved WAL records
	// has finished; replayDone closes at that point so shutdown can
	// order the logger's Close after the replay.
	wal        *wal.Logger
	recovery   *wal.Recovery
	recovering atomic.Bool
	replayDone chan struct{}
	replay     replayState
}

// New builds the server and its Options.Shards engine shards.
func New(opts Options) (*Server, error) {
	opts.fillDefaults()
	log, recovery, err := openWAL(&opts)
	if err != nil {
		return nil, err
	}
	svc, err := shard.NewService(opts.Core, shard.ServiceOptions{
		Shards:    opts.Shards,
		Epoch:     opts.Epoch,
		Core:      opts.Service,
		Supervise: opts.Supervise,
		WAL:       log,
	})
	if err != nil {
		if log != nil {
			_ = log.Close()
		}
		return nil, err
	}
	s := &Server{
		opts:       opts,
		svc:        svc,
		mux:        http.NewServeMux(),
		inflight:   make(chan struct{}, opts.MaxInflight),
		wal:        log,
		recovery:   recovery,
		replayDone: make(chan struct{}),
	}
	if log != nil {
		s.replay.unresolved = len(recovery.Unresolved)
		s.recovering.Store(true)
	} else {
		close(s.replayDone)
	}
	s.mux.HandleFunc("/submit", s.handleSubmit)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux.Handle("/debug/vars", expvar.Handler())
	return s, nil
}

// Final returns the metrics snapshot flushed during shutdown, once
// ServeListeners has returned. It reports false if it never drained (engine
// died before the snapshot could be taken).
func (s *Server) Final() (core.ServiceStats, bool) {
	s.finalMu.Lock()
	defer s.finalMu.Unlock()
	return s.final, s.finalOK
}

// handler returns the full HTTP handler with per-request panic isolation.
func (s *Server) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				// The panic stays confined to this request; the engine
				// and every other connection keep running. If the
				// response was already partly written this is a no-op
				// and the connection just closes.
				s.panics.Add(1)
				http.Error(w, fmt.Sprintf("internal error: %v", p), http.StatusInternalServerError)
			}
		}()
		s.mux.ServeHTTP(w, r)
	})
}

// ServeListeners runs the engine, the HTTP server on httpLn and — when
// wireLn is not nil — the binary wire protocol (internal/wire) on wireLn,
// until ctx is cancelled or the engine fails, then shuts down gracefully:
// refuse new work, drain or wound in-flight transactions, stop the
// listeners, stop the engine. Both front-ends share the way in, the
// admission machinery and the drain sequence. A cancellation-initiated
// shutdown returns nil; an engine failure returns its error.
func (s *Server) ServeListeners(ctx context.Context, httpLn, wireLn net.Listener) error {
	runCtx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	svcDone := make(chan error, 1)
	go func() { svcDone <- s.svc.Run(runCtx) }()
	if s.wal != nil {
		// Resolve the crash backlog in the background while the
		// listeners serve; /healthz reports recovering=true until done.
		go s.replayWAL(runCtx)
	}

	hs := &http.Server{
		Handler:      s.handler(),
		ReadTimeout:  s.opts.ReadTimeout,
		WriteTimeout: s.opts.WriteTimeout,
	}
	httpDone := make(chan error, 1)
	go func() { httpDone <- hs.Serve(httpLn) }()

	var ws *wire.Server
	var wireDone chan error
	if wireLn != nil {
		ws = wire.NewServer(wireBackend{s}, wire.ServerOptions{
			MaxInflightPerConn: s.opts.MaxInflight,
			IdleTimeout:        s.opts.WireIdleTimeout,
		})
		s.wireSrv.Store(ws)
		wireDone = make(chan error, 1)
		go func() { wireDone <- ws.Serve(wireLn) }()
	}

	var failure error
	select {
	case <-ctx.Done():
	case err := <-svcDone:
		svcDone = nil
		failure = fmt.Errorf("server: engine stopped: %w", err)
	case err := <-httpDone:
		httpDone = nil
		failure = fmt.Errorf("server: listener failed: %w", err)
	case err := <-wireDone:
		wireDone = nil
		failure = fmt.Errorf("server: wire listener failed: %w", err)
	}

	// Graceful drain. Order matters: Drain first flips the service to
	// refusing submissions (503s/sheds for anyone still connected) and
	// then finishes or wounds the in-flight transactions, which unblocks
	// their handlers and flushes their wire responses; the listener
	// shutdowns then wait out the (now fast) active requests; only then do
	// the engine drivers stop, each answering what its inbox still holds.
	dctx, dcancel := context.WithTimeout(context.Background(), s.opts.DrainTimeout)
	defer dcancel()
	_ = s.svc.Drain(dctx)
	// Flush a last metrics snapshot while the driver can still answer, so
	// the operator sees the final counters even after the engine stops.
	if st, ok := s.svc.Stats(); ok {
		s.finalMu.Lock()
		s.final, s.finalOK = st, true
		s.finalMu.Unlock()
	}
	_ = hs.Shutdown(dctx)
	if ws != nil {
		_ = ws.Shutdown(dctx)
	}
	cancelRun()
	if svcDone != nil {
		<-svcDone
	}
	if httpDone != nil {
		<-httpDone
	}
	if wireDone != nil {
		<-wireDone
	}
	// The WAL closes last: the drain above answered every in-flight
	// submission, which required their outcome records to sync, and the
	// replay goroutine (if any) has observed the cancelled runCtx.
	<-s.replayDone
	if s.wal != nil {
		_ = s.wal.Close()
	}
	return failure
}

// wireBackend adapts the server to the wire front-end's Backend
// interface without widening Server's public API.
type wireBackend struct{ s *Server }

func (b wireBackend) Enqueue(id uint64, req core.ServiceRequest, c wire.Completer) bool {
	return b.s.submit(id, req, c)
}

// submit hands one decoded request to its home shard's inbox, bounded by
// MaxInflight. False is an overload shed the caller answers itself;
// otherwise c.OnHandle and then c.Complete fire once each.
func (s *Server) submit(id uint64, req core.ServiceRequest, c wire.Completer) bool {
	sub := core.Submission{Req: req, Done: s.batch.done(id, c), Handle: c, ID: id}
	return s.svc.Enqueue(sub, s.opts.MaxInflight)
}

func (b wireBackend) RetryAfterSecs() int { return b.s.retryAfterSecs() }
func (b wireBackend) Draining() bool      { return b.s.svc.Draining() }
func (b wireBackend) HealthErr() error    { return b.s.svc.Err() }

func (b wireBackend) MetricsBody() ([]byte, error) {
	return json.Marshal(b.s.metricsResponse())
}

// --- request/response codec ---------------------------------------------

// jsonDuration accepts a Go duration string ("40ms") or a bare number of
// milliseconds, and marshals to the string form so round-trips are exact.
type jsonDuration time.Duration

func (d jsonDuration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

func (d *jsonDuration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return err
		}
		if v < 0 {
			return fmt.Errorf("duration %q is negative", s)
		}
		*d = jsonDuration(v)
		return nil
	}
	var ms float64
	if err := json.Unmarshal(b, &ms); err != nil {
		return err
	}
	// encoding/json already refuses bare NaN/Inf literals, but a value
	// like 1e309 parses as +Inf and a huge-but-finite one can overflow
	// the int64 duration; reject anything that is not a sane,
	// non-negative millisecond count. The binary codec applies the same
	// rule in wire.DecodeSubmit.
	ns := ms * float64(time.Millisecond)
	if math.IsNaN(ns) || math.IsInf(ns, 0) || ms < 0 || ns > float64(math.MaxInt64) {
		return fmt.Errorf("duration %s ms is not a usable non-negative duration", b)
	}
	*d = jsonDuration(ns)
	return nil
}

// submitRequest is the POST /submit body.
type submitRequest struct {
	// Items is the ordered data-item access list.
	Items []int `json:"items"`
	// Reads optionally flags shared-lock accesses, per item.
	Reads []bool `json:"reads,omitempty"`
	// NeedsIO optionally flags disk accesses, per item.
	NeedsIO []bool `json:"needs_io,omitempty"`
	// Compute is the CPU time per item ("1ms" or bare milliseconds).
	Compute jsonDuration `json:"compute"`
	// Deadline is the client's deadline relative to arrival.
	Deadline jsonDuration `json:"deadline"`
	// Criticality and Class carry the workload extensions.
	Criticality int `json:"criticality,omitempty"`
	Class       int `json:"class,omitempty"`
}

// submitResponse is the POST /submit reply.
type submitResponse struct {
	// State is the terminal state: "committed", "dropped" or "rejected".
	State string `json:"state"`
	// Missed reports a deadline miss (late commit, drop or rejection).
	Missed bool `json:"missed"`
	// Engine-clock timings, milliseconds.
	ArrivalMs  float64 `json:"arrival_ms"`
	FinishMs   float64 `json:"finish_ms,omitempty"`
	DeadlineMs float64 `json:"deadline_ms"`
	ResponseMs float64 `json:"response_ms,omitempty"`
	// Restarts is how many times the transaction was wounded and re-run.
	Restarts int `json:"restarts"`
	// WALSeq is the submission's durable sequence number (WAL enabled
	// only): the answer was written to the log before it was sent, and
	// a reconnecting client can match it against recovered outcomes.
	WALSeq uint64 `json:"wal_seq,omitempty"`
	// Error carries a human-readable refusal reason (shed, draining).
	Error string `json:"error,omitempty"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// --- handlers ------------------------------------------------------------

// statsCacheTTL bounds how stale the retry-after load estimate may be.
const statsCacheTTL = 250 * time.Millisecond

// cachedStats returns a recent service stats snapshot, refreshing it at
// most once per statsCacheTTL.
func (s *Server) cachedStats() (core.ServiceStats, bool) {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	if time.Since(s.statsAt) < statsCacheTTL {
		return s.stats, s.statsOK
	}
	s.stats, s.statsOK = s.svc.Stats()
	s.statsAt = time.Now()
	return s.stats, s.statsOK
}

// retryAfterSecs derives the Retry-After value for a 503 (or a wire
// shed) from the admission state instead of a hardcoded 1: the
// estimated wall-clock time to drain the current live set at the
// service's capacity, clamped to [1, 30] seconds. An idle or unreadable
// service answers 1 — retry immediately — while a deep backlog tells
// clients to stay away long enough for the estimate to actually change.
func (s *Server) retryAfterSecs() int {
	st, ok := s.cachedStats()
	if !ok || st.Live == 0 {
		return 1
	}
	p := s.opts.Core.Workload
	// Mean per-transaction resource demand (sim time): updates × (compute
	// + expected disk time per update).
	compute := p.ComputePerUpdate
	if len(p.Classes) > 0 {
		var mean float64
		for _, c := range p.Classes {
			mean += c.Fraction * float64(c.ComputePerUpdate)
		}
		compute = time.Duration(mean)
	}
	perTxn := time.Duration(p.UpdatesMean * (float64(compute) + p.DiskAccessProb*float64(p.DiskAccessTime)))
	cpus := s.opts.Core.NumCPUs
	if cpus <= 0 {
		cpus = 1
	}
	speed := s.opts.Service.Speed
	if speed <= 0 {
		speed = 1
	}
	drainSim := time.Duration(float64(st.Live) * float64(perTxn) / float64(cpus*s.opts.Shards))
	drainWall := time.Duration(float64(drainSim) / speed)
	secs := int((drainWall + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// respond renders one /submit answer; it counts nothing.
func (s *Server) respond(w http.ResponseWriter, code int, retry bool, resp submitResponse) {
	if retry {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(resp)
}

// atCapacity sheds a request the service never took — the one answer the
// handler counts itself.
func (s *Server) atCapacity(w http.ResponseWriter) {
	s.shed.Add(1)
	s.respond(w, http.StatusServiceUnavailable, true,
		submitResponse{State: "shed", Missed: true, Error: "server at capacity"})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	// Bounded accept queue: past MaxInflight concurrent submissions the
	// server sheds immediately instead of stacking goroutines behind an
	// overloaded engine.
	select {
	case s.inflight <- struct{}{}:
		defer func() { <-s.inflight }()
	default:
		s.atCapacity(w)
		return
	}

	var req submitRequest
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.badReqs.Add(1)
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	items := make([]txn.Item, len(req.Items))
	for i, it := range req.Items {
		items[i] = txn.Item(it)
	}
	creq := core.ServiceRequest{
		Items:       items,
		Reads:       req.Reads,
		NeedsIO:     req.NeedsIO,
		Compute:     time.Duration(req.Compute),
		Deadline:    time.Duration(req.Deadline),
		Criticality: req.Criticality,
		Class:       req.Class,
	}

	start := time.Now()
	// The submission takes the same way in as every other front-end, and
	// the handler blocks the way Service.Submit does: if the client
	// disconnects, Wait wounds the submission (so abandoned work stops
	// consuming CPU) and still takes its terminal answer, so the engine is
	// done with it before we return.
	wt := httpWaiter{core.NewWaiter()}
	if !s.submit(0, creq, wt) {
		s.atCapacity(w)
		return
	}
	o, err := wt.Wait(r.Context())
	if r.Context().Err() != nil {
		// Nobody is reading the response, but write a coherent one for
		// proxies that still are.
		w.WriteHeader(http.StatusServiceUnavailable)
		return
	}
	status, code, retry := wire.Classify(o, err)
	switch status {
	case wire.StatusShed:
		s.respond(w, code, retry, submitResponse{State: "shed", Missed: true, Error: err.Error()})
		return
	case wire.StatusFailed, wire.StatusInvalid:
		// Failed is a 500, not a retriable 503: the engine died with this
		// submission in flight (or its outcome could not be made durable),
		// so blind resubmission could double-execute.
		http.Error(w, err.Error(), code)
		return
	}
	resp := submitResponse{
		State:      o.State.String(),
		Missed:     o.Missed,
		ArrivalMs:  ms(o.Arrival),
		DeadlineMs: ms(o.Deadline),
		Restarts:   o.Restarts,
		WALSeq:     o.Seq,
	}
	if status == wire.StatusCommitted {
		resp.FinishMs = ms(o.Finish)
		resp.ResponseMs = ms(o.Response)
		s.observeResponse(time.Since(start))
	}
	s.respond(w, code, retry, resp)
}

// httpWaiter is the HTTP handler's wire.Completer: a core.Waiter behind the
// serving path's completion interface.
type httpWaiter struct{ *core.Waiter }

func (wt httpWaiter) Complete(_ uint64, o core.ServiceOutcome, err error) { wt.Done(o, err) }
func (wt httpWaiter) OnHandle(_ uint64, h core.SubmitHandle)              { wt.Arm(h) }

// metricsResponse is the GET /metrics body.
type metricsResponse struct {
	// Engine is the service's run counters, or null once stopped.
	Engine any `json:"engine"`
	// Live is the number of admitted, unfinished transactions.
	Live int `json:"live"`
	// NowMs is the engine clock, milliseconds.
	NowMs float64 `json:"now_ms"`
	// Draining reports graceful drain in progress.
	Draining bool `json:"draining"`
	// Degraded reports the service survived an internal failure (a
	// supervised shard driver died and was contained or restarted).
	Degraded bool `json:"degraded"`
	// Supervision is the shard-supervisor snapshot (supervision enabled
	// only; null otherwise).
	Supervision *shard.SupervisionStats `json:"supervision,omitempty"`
	// Wire holds the binary front-end's connection counters (null when
	// the wire listener is not running).
	Wire *wire.Counters `json:"wire,omitempty"`
	// HTTP-level counters.
	Accepted int64 `json:"http_accepted"`
	Shed     int64 `json:"http_shed"`
	Rejected int64 `json:"http_rejected"`
	BadReqs  int64 `json:"http_bad_requests"`
	Panics   int64 `json:"http_panics"`
	Failed   int64 `json:"http_failed"`
	Inflight int   `json:"http_inflight"`
	// Wall-clock response-time percentiles over the recent window, ms.
	P50ResponseMs float64 `json:"p50_response_ms"`
	P95ResponseMs float64 `json:"p95_response_ms"`
	P99ResponseMs float64 `json:"p99_response_ms"`
	// Predict is the conflict-prediction snapshot (cca-p/cca-t policies
	// only; null otherwise): current penalty weight, tuner step count,
	// and the highest observed per-pair conflict rates.
	Predict *core.PredictSnapshot `json:"predict,omitempty"`
	// WAL holds the write-ahead-log counters (null when durability is
	// disabled) and Replay the startup crash-recovery progress.
	WAL        *wal.Stats   `json:"wal,omitempty"`
	Replay     *ReplayStats `json:"wal_replay,omitempty"`
	Recovering bool         `json:"recovering,omitempty"`
}

// metricsResponse builds the snapshot served by HTTP /metrics and the
// wire protocol's metrics frame. The engine-side fields ride the same
// 250ms stats cache as Retry-After derivation, so a metrics-polling
// dashboard cannot add driver pressure during an overload.
func (s *Server) metricsResponse() metricsResponse {
	resp := metricsResponse{
		Draining: s.svc.Draining(),
		Degraded: s.svc.Degraded(),
		Accepted: s.batch.answers.engineAnswered(),
		Shed:     s.shed.Load() + s.batch.answers[wire.StatusShed].Load(),
		Rejected: s.batch.answers[wire.StatusRejected].Load(),
		BadReqs:  s.badReqs.Load() + s.batch.answers[wire.StatusInvalid].Load(),
		Panics:   s.panics.Load(),
		Failed:   s.batch.answers[wire.StatusFailed].Load(),
		Inflight: len(s.inflight),
	}
	if st := s.svc.SupervisionStats(); st.Enabled {
		resp.Supervision = &st
	}
	if ws := s.wireSrv.Load(); ws != nil {
		wc := ws.Counters()
		resp.Wire = &wc
	}
	if st, ok := s.cachedStats(); ok {
		resp.Engine = st.Result
		resp.Live = st.Live
		resp.NowMs = ms(st.Now)
		resp.Predict = st.Predict
	}
	if s.wal != nil {
		ws := s.wal.Stats()
		rs := s.ReplayStats()
		resp.WAL = &ws
		resp.Replay = &rs
		resp.Recovering = s.recovering.Load()
	}
	resp.P50ResponseMs, resp.P95ResponseMs, resp.P99ResponseMs = s.responsePercentiles()
	return resp
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	resp := s.metricsResponse()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if err := s.svc.Err(); err != nil {
		// An engine failure or a violated paper invariant (live oracle):
		// the server is no longer trustworthy and says so.
		http.Error(w, "unhealthy: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	// A degraded service is still healthy (HTTP 200, "ok" prefix — probes
	// grep for it) but advertises that it survived an internal failure.
	// recovering=true means the startup replay of unresolved WAL records
	// is still running (new traffic is served normally meanwhile).
	fmt.Fprintf(w, "ok draining=%v degraded=%v recovering=%v\n",
		s.svc.Draining(), s.svc.Degraded(), s.recovering.Load())
}

// observeResponse records one completed submission's wall response time.
func (s *Server) observeResponse(d time.Duration) {
	v := ms(d)
	s.respMu.Lock()
	s.respHist.Observe(v)
	s.respMu.Unlock()
}

func (s *Server) responsePercentiles() (p50, p95, p99 float64) {
	s.respMu.Lock()
	defer s.respMu.Unlock()
	if s.respHist.Count() == 0 {
		return 0, 0, 0
	}
	return s.respHist.Quantile(0.50), s.respHist.Quantile(0.95), s.respHist.Quantile(0.99)
}
