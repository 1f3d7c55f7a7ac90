package shard

// Wall-clock sharded service: N independent core.Services (one engine
// shard each, each driven by its own Run goroutine) behind one Enqueue
// front — the only service the server runs, N = 1 included. Requests
// whose access list lies on a single shard go straight to that shard's
// inbox — the scaling path: submissions to different shards never contend
// on a driver goroutine. Cross-shard requests are queued and, at
// wall-clock epoch ticks, flushed through the same Enqueue: each queued
// request's parts go to their shards' inboxes, request by request in queue
// order — the wall analogue of the virtual runner's boundary exchange.
// What that guarantees: every shard sees the cross requests of an epoch,
// and of successive epochs, in the same relative arrival order.
//
// What it does not: unlike the virtual Runner, the wall-clock service is not
// deterministic — arrival instants come from the wall — and it has no
// cross-shard atomic commit or cross-shard serializability: sub-transactions
// commit or fail per shard (a rejection on one shard does not undo the
// siblings) and interleave with each shard's single-shard traffic. The
// merged outcome reports the logical fate (foldParts: committed iff every
// part committed); workloads where partial application is unacceptable
// should run with AdmitAll admission and soft deadlines, where parts only
// fail if the service itself stops.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/workload"
)

// SuperviseOptions control shard-failure containment.
type SuperviseOptions struct {
	// Enabled turns on supervision: a shard driver that fails (panic,
	// stall, oracle violation) is contained instead of fatal — its
	// inflight transactions are answered with core.ErrEngineFailed by
	// the core failure sweep, the service reports Degraded, and the
	// surviving shards keep serving their part of the item space.
	// Disabled (the default), any shard failure stops the whole service.
	Enabled bool
	// Restart (only with Enabled) additionally replaces a failed shard
	// with a fresh engine. The fresh engine starts empty: the failed
	// shard's admitted work has already been failed, and its statistics
	// are gone — restart trades state for capacity.
	Restart bool
	// MaxRestarts (only with Restart) bounds restarts per shard (default
	// 3); past it the shard stays dead.
	MaxRestarts int
}

func (o SuperviseOptions) maxRestarts() int {
	if o.MaxRestarts > 0 {
		return o.MaxRestarts
	}
	return 3
}

// SupervisionStats is a point-in-time view of shard-failure containment.
type SupervisionStats struct {
	Enabled bool `json:"enabled"`
	Shards  int  `json:"shards"`
	// Dead counts shards that are permanently down (no restart left).
	Dead int `json:"dead"`
	// Failures counts shard-driver failures since start (restarted or
	// not).
	Failures int `json:"failures"`
	// Restarts counts fresh engines swapped in for failed shards.
	Restarts int `json:"restarts"`
	// LastFailure is the most recent shard failure, for /metrics.
	LastFailure string `json:"last_failure,omitempty"`
}

// ServiceOptions configure the sharded wall-clock service.
type ServiceOptions struct {
	// Shards is the number of engine shards (1..64).
	Shards int
	// Epoch is the simulated-time cross-shard batching interval
	// (0 = defaultEpoch). The wall flush period is Epoch divided by the
	// core speed factor.
	Epoch time.Duration
	// Core tunes each shard's wall-clock service (speed, oracle).
	Core core.ServiceOptions
	// Supervise contains shard-driver failures instead of letting one
	// panicking shard kill the whole service.
	Supervise SuperviseOptions
	// WAL, when non-nil, makes submissions durable: records are appended
	// after validation and before injection, so one log orders the whole
	// sharded system and replay re-routes through the same footprint logic
	// (see core.WALHook).
	WAL *wal.Logger
}

// partReq is one shard's slice of a cross-shard request.
type partReq struct {
	shard int
	req   core.ServiceRequest
}

// pendingCross is one logical cross-shard submission: queued until the next
// epoch flush, then in flight as one part per touched shard. It is every
// part's HandleSink and answer target, with the part's index as its ID. Its
// handle is cancel.Cancel: each part arms its handle as its shard injects it,
// and a client that cancelled before that wounds each as it is armed. The
// logical request is then answered like any other — dropped (or whatever its
// parts had already reached), nil error. It holds no list of the caller's:
// splitRequest copies each part's.
type pendingCross struct {
	parts  []partReq
	to     core.AnswerSink // the logical request's answer, with id
	id     uint64
	cancel core.LateCancel

	// left counts the parts not yet answered. Each part writes only its own
	// slot of outcomes/errs; the atomic countdown orders those writes before
	// the last part's fold.
	left     atomic.Int32
	outcomes []core.ServiceOutcome
	errs     []error
}

func newPendingCross(sub *core.Submission, n int) *pendingCross {
	c := &pendingCross{parts: splitRequest(sub.Req, n), to: sub.Target(), id: sub.ID}
	c.left.Store(int32(len(c.parts)))
	c.outcomes = make([]core.ServiceOutcome, len(c.parts))
	c.errs = make([]error, len(c.parts))
	return c
}

// OnHandle arms one injected part's handle (core.HandleSink).
func (c *pendingCross) OnHandle(_ uint64, h core.SubmitHandle) { c.cancel.Arm(h) }

// Complete records part pi's fate (core.AnswerSink), and the last part to
// finish answers the logical request — the folded outcome (logical arrival =
// earliest part, deadline = latest; the shards' clocks are independent) and
// the first per-part error by shard order.
func (c *pendingCross) Complete(pi uint64, o core.ServiceOutcome, err error) {
	c.outcomes[pi], c.errs[pi] = o, err
	if c.left.Add(-1) > 0 {
		return
	}
	var arrival, deadline time.Duration
	var first error
	for i, po := range c.outcomes {
		if first == nil {
			first = c.errs[i]
		}
		if po.Arrival > 0 && (arrival == 0 || po.Arrival < arrival) {
			arrival = po.Arrival
		}
		if po.Deadline > deadline {
			deadline = po.Deadline
		}
	}
	c.answer(foldParts(arrival, deadline, c.outcomes), first)
}

// answer delivers the logical request's answer.
func (c *pendingCross) answer(o core.ServiceOutcome, err error) { c.to.Complete(c.id, o, err) }

// Service is the sharded wall-clock transaction service.
type Service struct {
	cfg       core.Config
	n         int
	coreOpt   core.ServiceOptions
	sup       SuperviseOptions
	wal       core.WALHook
	wallEpoch time.Duration

	// svcMu guards the shard table and its supervision bookkeeping; the
	// table entries are swapped when a supervised shard restarts, so
	// every access goes through shard()/allShards().
	svcMu     sync.RWMutex
	svcs      []*core.Service
	dead      []bool  // failed and not restarted
	failures  []error // last failure per shard, sticky across restarts
	restarts  []int
	failTotal int
	lastFail  error

	mu sync.Mutex
	// refuse is nil while the service accepts work: Drain sets it to
	// core.ErrDraining, the end of Run to core.ErrServiceStopped.
	refuse error
	queue  []*pendingCross
}

// NewService builds an N-shard wall-clock service. Every shard runs the
// same configuration (policy, admission rule, database size — items keep
// their global numbering).
func NewService(cfg core.Config, opt ServiceOptions) (*Service, error) {
	if opt.Shards < 1 || opt.Shards > 64 {
		return nil, fmt.Errorf("shard: %d shards (want 1..64)", opt.Shards)
	}
	if opt.Supervise.Restart && !opt.Supervise.Enabled {
		return nil, errors.New("shard: restarting failed shards needs supervision")
	}
	if opt.Supervise.MaxRestarts != 0 && !opt.Supervise.Restart {
		return nil, errors.New("shard: a restart budget needs restarting failed shards")
	}
	epoch := opt.Epoch
	if epoch <= 0 {
		epoch = defaultEpoch
	}
	speed := opt.Core.Speed
	if speed <= 0 {
		speed = 1
	}
	wall := time.Duration(float64(epoch) / speed)
	if wall < time.Millisecond {
		wall = time.Millisecond // don't busy-tick at extreme test speeds
	}
	s := &Service{
		cfg:       cfg,
		n:         opt.Shards,
		coreOpt:   opt.Core,
		sup:       opt.Supervise,
		wal:       core.WALHook{Log: opt.WAL},
		wallEpoch: wall,
		dead:      make([]bool, opt.Shards),
		failures:  make([]error, opt.Shards),
		restarts:  make([]int, opt.Shards),
	}
	for i := 0; i < opt.Shards; i++ {
		sv, err := core.NewService(cfg, opt.Core)
		if err != nil {
			return nil, err
		}
		s.svcs = append(s.svcs, sv)
	}
	return s, nil
}

// Shards returns the shard count.
func (s *Service) Shards() int { return s.n }

// shard returns shard i's current service (supervised restarts swap the
// table entries, so callers must not cache the pointer across requests).
func (s *Service) shard(i int) *core.Service {
	s.svcMu.RLock()
	defer s.svcMu.RUnlock()
	return s.svcs[i]
}

// allShards snapshots the shard table.
func (s *Service) allShards() []*core.Service {
	s.svcMu.RLock()
	defer s.svcMu.RUnlock()
	return append([]*core.Service(nil), s.svcs...)
}

// Run drives every shard service and the cross-shard batcher until ctx
// is cancelled or the shards stop. Unsupervised (the default), any
// shard failure stops all shards and Run returns it. Supervised, shard
// failures are contained per SuperviseOptions and Run keeps serving
// until cancellation or until every shard is dead — the moment the last
// supervisor returns; it then returns the first shard failure, so a
// degraded-then-drained service still reports what went wrong. Must be
// called exactly once.
func (s *Service) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errCh := make(chan error, s.n)
	for i := 0; i < s.n; i++ {
		i := i
		go func() { errCh <- s.supervise(ctx, i) }()
	}
	// The epoch tick exists only where there can be something to flush: a
	// single shard never sees a cross-shard footprint.
	var tick <-chan time.Time
	if s.n > 1 {
		t := time.NewTicker(s.wallEpoch)
		defer t.Stop()
		tick = t.C
	}
	var first error
	for running := s.n; running > 0; {
		select {
		case <-tick:
			s.flush()
		case err := <-errCh:
			running--
			if first == nil {
				first = err
			}
			// Unsupervised, any shard exit stops the service; supervised,
			// shards die independently and the loop ends with the last.
			if !s.sup.Enabled {
				cancel()
			}
		}
	}
	s.failQueued(core.ErrServiceStopped)
	return first
}

// supervise runs shard i until ctx cancellation or death. An unexpected
// exit is recorded (Degraded, SupervisionStats, Err) and, in the same
// locked block, either a fresh engine is swapped into the shard table —
// when Restart allows — and driven in place of the failed one, or the
// shard is marked dead. The failed engine's inflight work was already
// answered by the core failure sweep before its Run returned, so
// containment never strands a waiter.
func (s *Service) supervise(ctx context.Context, i int) error {
	for {
		err := s.shard(i).Run(ctx)
		if ctx.Err() != nil || err == nil || errors.Is(err, context.Canceled) {
			return err
		}
		err = fmt.Errorf("shard %d: %w", i, err)
		// Only this goroutine writes restarts[i], so it reads it unlocked.
		var fresh *core.Service
		if s.sup.Restart && s.restarts[i] < s.sup.maxRestarts() && !s.Draining() {
			fresh, _ = core.NewService(s.cfg, s.coreOpt) // nil on error: the shard dies
		}
		s.svcMu.Lock()
		s.failures[i], s.lastFail = err, err
		s.failTotal++
		if fresh != nil {
			s.svcs[i] = fresh
			s.restarts[i]++
		} else {
			s.dead[i] = true
		}
		s.svcMu.Unlock()
		if fresh == nil {
			return err
		}
	}
}

// Degraded reports partial capacity loss: some shard driver has failed
// since the service started. Deliberately sticky across restarts — a
// restarted shard lost its admitted work and statistics, so /healthz
// keeps surfacing the event until the process is replaced.
func (s *Service) Degraded() bool {
	s.svcMu.RLock()
	defer s.svcMu.RUnlock()
	return s.failTotal > 0
}

// SupervisionStats snapshots shard-failure containment for /metrics.
func (s *Service) SupervisionStats() SupervisionStats {
	s.svcMu.RLock()
	defer s.svcMu.RUnlock()
	st := SupervisionStats{
		Enabled:  s.sup.Enabled,
		Shards:   s.n,
		Failures: s.failTotal,
	}
	for i := range s.dead {
		if s.dead[i] {
			st.Dead++
		}
		st.Restarts += s.restarts[i]
	}
	if s.lastFail != nil {
		st.LastFailure = s.lastFail.Error()
	}
	return st
}

// InjectShardPanic crashes shard i's engine driver (fault tooling; see
// core.Service.InjectPanic) — the supervision story's test hook.
func (s *Service) InjectShardPanic(i int, msg string) error {
	if i < 0 || i >= s.n {
		return fmt.Errorf("shard: no shard %d", i)
	}
	return s.shard(i).InjectPanic(msg)
}

// Submit routes one request and blocks until its terminal outcome (see
// core.Waiter). A cross-shard request waits for the next epoch flush, so
// it loses up to one epoch of deadline budget — size Epoch accordingly.
func (s *Service) Submit(ctx context.Context, req core.ServiceRequest) (core.ServiceOutcome, error) {
	w := core.NewWaiter()
	w.Arm(s.SubmitBatch([]core.Submission{{Req: req, Done: w.Done}})[0])
	return w.Wait(ctx)
}

// Enqueue is the one way in, and it does not wait: the entry is checked
// against the service's refusal, then routed. A single-home entry goes
// straight to its shard's inbox (core.Service.Enqueue), which validates it
// and appends its submit record (WAL on) under the inbox lock, so each
// shard injects in log order; limit bounds that inbox (0: no bound), and
// false means it was full — nothing was logged or will be called back, the
// caller sheds. An access list that touches no shard (empty, or only
// negative items) goes to shard 0, whose validation refuses it. A
// cross-shard entry is validated and logged here and joins the epoch
// queue, and its handle, handed over at once, wounds every part. Otherwise
// the contract is core.Submission's: the answer comes exactly once, after
// the handle, and the request's lists are borrowed for the call (a cross
// entry's parts are copies).
func (s *Service) Enqueue(sub core.Submission, limit int) bool {
	if err := s.refusing(); err != nil {
		sub.Fail(err)
		return true
	}
	// A replayed entry's submit record already exists: wrap first, so
	// even a validation refusal resolves it in the log.
	if sub.WALSeq != 0 {
		s.wal.WrapDone(&sub, sub.WALSeq, true)
	}
	if home, cross := (&workload.Spec{Items: sub.Req.Items}).HomeShard(s.n); !cross {
		return s.shard(home).Enqueue(sub, &s.wal, limit)
	}
	if err := sub.Req.Validate(&s.cfg); err != nil {
		sub.Fail(err)
		return true
	}
	if sub.WALSeq == 0 {
		seq, err := s.wal.LogSubmit(&sub.Req)
		if err != nil {
			sub.Fail(err)
			return true
		}
		s.wal.WrapDone(&sub, seq, false)
	}
	c := newPendingCross(&sub, s.n)
	if sub.Handle != nil {
		sub.Handle.OnHandle(sub.ID, core.CancelHandle(c.cancel.Cancel))
	}
	if err := s.enqueue(c); err != nil {
		c.answer(core.ServiceOutcome{}, err)
	}
	return true
}

// SubmitBatch is Enqueue, with no limit, for every entry, returning once
// each has its handle (see core.Service.SubmitBatch; the contract is
// identical — every entry is answered exactly once).
func (s *Service) SubmitBatch(subs []core.Submission) []core.SubmitHandle {
	return core.AwaitHandles(subs, func(sub core.Submission) { s.Enqueue(sub, 0) })
}

// refusing reports why the service accepts no work (nil while it does).
func (s *Service) refusing() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refuse
}

// enqueue queues c for the next flush, unless the service refuses work.
func (s *Service) enqueue(c *pendingCross) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.refuse == nil {
		s.queue = append(s.queue, c)
	}
	return s.refuse
}

// flush drains the cross-shard queue: every queued part goes straight to
// its shard's inbox, request by request in queue order, and arms its handle
// on its request as the shard injects it. flush only ever runs on Run's
// goroutine and each inbox is FIFO, so each shard's driver sees the cross
// requests of this and every other epoch in the same relative order.
func (s *Service) flush() {
	s.mu.Lock()
	batch := s.queue
	s.queue = nil
	s.mu.Unlock()
	for _, c := range batch {
		for pi, p := range c.parts {
			s.shard(p.shard).Enqueue(core.Submission{Req: p.req, Answer: c, Handle: c, ID: uint64(pi)}, nil, 0)
		}
	}
}

// splitRequest cuts a cross-shard request into per-shard parts, ascending
// by shard, with workload.Spec.SplitShards: each part keeps its shard's
// items in request order with the per-update flags realigned, and the
// request's other fields.
func splitRequest(req core.ServiceRequest, n int) []partReq {
	spec := workload.Spec{Items: req.Items, Reads: req.Reads, NeedsIO: req.NeedsIO}
	parts := make([]partReq, 0, 2)
	for _, p := range spec.SplitShards(n) {
		part := req
		part.Items, part.Reads, part.NeedsIO = p.Spec.Items, p.Spec.Reads, p.Spec.NeedsIO
		parts = append(parts, partReq{shard: p.Shard, req: part})
	}
	return parts
}

// Drain flips the service to refusing new work, fails the queued (not yet
// started) cross-shard submissions with ErrDraining, and drains every
// shard concurrently. Returns nil when all shards drained naturally, the
// first context error when stragglers were wounded.
func (s *Service) Drain(ctx context.Context) error {
	s.failQueued(core.ErrDraining)
	errs := make([]error, s.n)
	var wg sync.WaitGroup
	wg.Add(s.n)
	for i, sv := range s.allShards() {
		i, sv := i, sv
		go func() {
			defer wg.Done()
			errs[i] = sv.Drain(ctx)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// failQueued makes the service refuse work and answers the queued cross
// entries, both with err. A drain that began stays reported as one: the
// stop at the end of Run does not overwrite ErrDraining.
func (s *Service) failQueued(err error) {
	s.mu.Lock()
	batch := s.queue
	s.queue = nil
	if s.refuse != core.ErrDraining {
		s.refuse = err
	}
	s.mu.Unlock()
	for _, c := range batch {
		c.answer(core.ServiceOutcome{}, err)
	}
}

// InjectEvent feeds a forged trace event through shard 0's engine (fault
// tooling; see core.Service.InjectEvent). Shard 0 is arbitrary but fixed —
// the oracle under test is per-shard and identical on all of them.
func (s *Service) InjectEvent(ev trace.Event) error {
	return s.shard(0).InjectEvent(ev)
}

// Draining reports whether graceful drain has begun.
func (s *Service) Draining() bool { return s.refusing() == core.ErrDraining }

// Err reports the failure that stops (or stopped) the whole service: the
// first dead shard's failure, by shard index, once the service stops for
// it. Unsupervised, that is at the first shard failure. Supervised,
// individual shard failures are contained — surfaced via Degraded and
// SupervisionStats — and Err stays nil until every shard is dead.
func (s *Service) Err() error {
	s.svcMu.RLock()
	defer s.svcMu.RUnlock()
	var first error
	dead := 0
	for i, d := range s.dead {
		if d {
			dead++
			if first == nil {
				first = s.failures[i]
			}
		}
	}
	if s.sup.Enabled && dead < s.n {
		return nil
	}
	return first
}

// Stats returns the system-wide snapshot: the shards' run counters merged
// with metrics.MergeRuns (exact counter sums, one percentile window over
// the union of recent commits — never a biased average of per-shard
// Results), live summed, clock = the furthest shard. A stopped shard drops
// out of the merged view, so the survivors' numbers stay observable;
// ok=false only once no shard answers.
func (s *Service) Stats() (core.ServiceStats, bool) {
	runs := make([]*metrics.Run, 0, s.n)
	st := core.ServiceStats{}
	for _, sv := range s.allShards() {
		run, live, now, ok := sv.RunSnapshot()
		if !ok {
			continue
		}
		rc := run
		runs = append(runs, &rc)
		st.Live += live
		if now > st.Now {
			st.Now = now
		}
	}
	if len(runs) == 0 {
		return core.ServiceStats{}, false
	}
	merged := metrics.MergeRuns(runs...)
	st.Result = merged.Result()
	return st, true
}
