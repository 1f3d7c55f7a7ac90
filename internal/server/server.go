// Package server runs the wall-clock transaction service (shard.Service
// over N ≥ 1 engine shards) behind the binary wire protocol
// (internal/wire), engineered to degrade gracefully under real overload:
//
//   - submissions carry the client's deadline and are load-shed by the
//     engine's admission controller (a shed request gets a fast answer with
//     a Retry-After hint instead of queueing into certain lateness);
//   - concurrency is bounded per connection and per shard inbox: past a
//     bound the server sheds at once rather than accumulating work;
//   - a departed client's transaction is wounded (its connection's close
//     reaches the engine), so abandoned work stops consuming the CPU;
//   - shutdown drains: new work is refused, in-flight transactions finish
//     or are wounded at the drain deadline, and the metrics snapshot stays
//     servable until the very end;
//   - observability is built in: the wire protocol's health and metrics
//     frames, and a GET-only status port (status.go) serving /healthz,
//     /metrics and the runtime's profiles under /debug/pprof/.
//
// There is one way in: a wire connection decodes each submit frame into a
// core.ServiceRequest and hands it straight to its home shard's inbox
// (shard.Service.Enqueue), whose driver injects every submission that
// arrived while it was busy in one pass — so the per-request handoff cost
// is paid per driver wakeup, not per transaction. There is no second
// service type behind it: one shard is the same code as many.
//
// The way back is as single as the way in. wire.Classify turns an answer
// into a status once; the connection's counted target counts it (its
// answers are indexed by that status), records a commit's engine residence
// and hands the answer to the connection, which only renders it.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/shard"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Options configure the server.
type Options struct {
	// Core is the engine configuration (policy, workload structure,
	// admission control). Admission is the server's load-shedding rule:
	// core.RejectInfeasible turns arrivals that cannot meet their deadline
	// into fast rejections.
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
	// MaxInflight bounds each wire connection's pipeline of unanswered
	// submissions and each shard's inbox of not yet injected ones; past a
	// bound the server sheds with a fast StatusShed (default 256).
	MaxInflight int
	// DrainTimeout bounds graceful shutdown: in-flight transactions get
	// this long to finish before being wounded (default 5s).
	DrainTimeout time.Duration
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
}

// Server is the front-end over the sharded transaction service: the wire
// listener feeding the shards' inboxes, and the status port beside it
// (ServeListeners).
type Server struct {
	opts Options
	svc  *shard.Service

	// statsMu caches the service stats snapshot for retry-after
	// derivation: under overload every shed consults the load estimate,
	// and hammering the driver goroutine with Stats calls would make the
	// overload worse.
	statsMu sync.Mutex
	statsAt time.Time
	stats   core.ServiceStats
	statsOK bool

	// batch counts every answer that came back from the service
	// (counted.Complete, the one place it moves) by its wire.Status*, and
	// holds the committed answers' residence histogram.
	batch batcher

	// wireSrv holds the wire front-end once ServeListeners starts it, so
	// /metrics can render its connection counters.
	wireSrv atomic.Pointer[wire.Server]

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
		wal:        log,
		recovery:   recovery,
		replayDone: make(chan struct{}),
	}
	s.batch.speed = opts.Service.Speed
	if s.batch.speed <= 0 {
		s.batch.speed = 1
	}
	if log != nil {
		s.replay.unresolved = len(recovery.Unresolved)
		s.recovering.Store(true)
	} else {
		close(s.replayDone)
	}
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

// ServeListeners runs the engine, the status port on statusLn and the
// binary wire protocol (internal/wire) on wireLn — either listener may be
// nil — until ctx is cancelled or the engine fails, then shuts down
// gracefully: refuse new work, drain or wound in-flight transactions, stop
// the listeners, stop the engine. A cancellation-initiated shutdown returns
// nil; an engine failure returns its error.
func (s *Server) ServeListeners(ctx context.Context, statusLn, wireLn net.Listener) error {
	runCtx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	svcDone := make(chan error, 1)
	go func() { svcDone <- s.svc.Run(runCtx) }()
	if s.wal != nil {
		// Resolve the crash backlog in the background while the
		// listeners serve; /healthz reports recovering=true until done.
		go s.replayWAL(runCtx)
	}

	var sp *statusPort
	var statusDone chan error
	if statusLn != nil {
		sp = newStatusPort(statusLn, s.status)
		statusDone = make(chan error, 1)
		go func() { statusDone <- sp.serve() }()
	}

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
	case err := <-statusDone:
		statusDone = nil
		failure = fmt.Errorf("server: status listener failed: %w", err)
	case err := <-wireDone:
		wireDone = nil
		failure = fmt.Errorf("server: wire listener failed: %w", err)
	}

	// Graceful drain. Order matters: Drain first flips the service to
	// refusing submissions (sheds for anyone still connected) and then
	// finishes or wounds the in-flight transactions, which flushes their
	// wire responses; the listener shutdowns then wait out the (now fast)
	// active connections; only then do the engine drivers stop, each
	// answering what its inbox still holds. The status port serves
	// draining=true throughout the drain.
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
	if sp != nil {
		sp.shutdown()
	}
	if ws != nil {
		_ = ws.Shutdown(dctx)
	}
	cancelRun()
	if svcDone != nil {
		<-svcDone
	}
	if statusDone != nil {
		<-statusDone
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

func (b wireBackend) Answers(r wire.Renderer) wire.Completer {
	return &counted{b: &b.s.batch, r: r}
}

// Enqueue hands one decoded request to its home shard's inbox, bounded by
// MaxInflight; c is the connection's counted target. False is an overload
// shed the connection answers itself; otherwise c.OnHandle and then
// c.Complete fire once each.
func (b wireBackend) Enqueue(id uint64, req core.ServiceRequest, c wire.Completer) bool {
	return b.s.svc.Enqueue(core.Submission{Req: req, Answer: c, Handle: c, ID: id}, b.s.opts.MaxInflight)
}

func (b wireBackend) RetryAfterSecs() int { return b.s.retryAfterSecs() }
func (b wireBackend) Draining() bool      { return b.s.svc.Draining() }
func (b wireBackend) HealthErr() error    { return b.s.svc.Err() }

func (b wireBackend) MetricsBody() ([]byte, error) {
	return json.Marshal(b.s.metricsResponse())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

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

// retryAfterSecs derives the retry hint of a shed or rejected answer from
// the admission state instead of a hardcoded 1: the estimated wall-clock
// time to drain the current live set at the service's capacity, clamped to
// [1, 30] seconds. An idle or unreadable service answers 1 — retry
// immediately — while a deep backlog tells clients to stay away long enough
// for the estimate to actually change.
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

// metricsResponse is the /metrics body and the wire metrics frame's.
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
	// the wire listener is not running); its shed counts what the
	// front-end refused before the service (a full pipeline or inbox).
	Wire *wire.Counters `json:"wire,omitempty"`
	// Answers counts every answer the service gave a client, by status.
	Answers answerTotals `json:"answers"`
	// Engine residence of committed answers, ms of wall time: from the
	// engine's arrival stamp to its commit, at the service's speed. The
	// stages above the engine (socket, decode, inbox wait, response write)
	// are not in it.
	P50ResponseMs float64 `json:"p50_response_ms"`
	P95ResponseMs float64 `json:"p95_response_ms"`
	P99ResponseMs float64 `json:"p99_response_ms"`
	// WAL holds the write-ahead-log counters (null when durability is
	// disabled) and Replay the startup crash-recovery progress.
	WAL        *wal.Stats   `json:"wal,omitempty"`
	Replay     *ReplayStats `json:"wal_replay,omitempty"`
	Recovering bool         `json:"recovering,omitempty"`
}

// metricsResponse builds the snapshot served by the status port's /metrics
// and the wire protocol's metrics frame. The engine-side fields ride the
// same 250ms stats cache as Retry-After derivation, so a metrics-polling
// dashboard cannot add driver pressure during an overload.
func (s *Server) metricsResponse() metricsResponse {
	resp := metricsResponse{
		Draining: s.svc.Draining(),
		Degraded: s.svc.Degraded(),
		Answers:  s.batch.answers.totals(),
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
	}
	if s.wal != nil {
		ws := s.wal.Stats()
		rs := s.ReplayStats()
		resp.WAL = &ws
		resp.Replay = &rs
		resp.Recovering = s.recovering.Load()
	}
	resp.P50ResponseMs, resp.P95ResponseMs, resp.P99ResponseMs = s.batch.percentiles()
	return resp
}
