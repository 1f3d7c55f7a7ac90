package shard

// Wall-clock sharded service: N independent core.Services (one engine
// shard each, each driven by its own Run goroutine) behind one Enqueue
// front — the only service the server runs, N = 1 included. Requests
// whose access list lies on a single shard go straight to that shard's
// inbox — the scaling path: submissions to different shards never contend
// on a driver goroutine. Cross-shard requests are queued and, at
// wall-clock epoch ticks, flushed through the same SubmitBatch primitive:
// the queued parts are grouped by shard in queue order and each touched
// shard receives one batch, ascending by shard — the wall analogue of the
// virtual runner's boundary exchange. What that guarantees: every shard
// sees the cross requests of an epoch, and of successive epochs, in the
// same relative arrival order.
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
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/predict"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/wal"
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
	// Restart additionally replaces a permanently-failed shard with a
	// fresh engine. The fresh engine starts empty: the failed shard's
	// admitted work has already been failed, and its statistics are
	// gone — restart trades state for capacity.
	Restart bool
	// MaxRestarts bounds restarts per shard (default 3); past it the
	// shard stays dead.
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
// epoch flush, then in flight as one part per touched shard. Its handle is
// cancel.Cancel: the flush arms one handle per injected part, and a client
// that cancelled before the flush wounds each as it is armed. The logical
// request is then answered like any other — dropped (or whatever its parts
// had already reached), nil error.
type pendingCross struct {
	parts  []partReq
	done   func(core.ServiceOutcome, error)
	cancel core.LateCancel

	// left counts the parts not yet answered. Each part writes only its own
	// slot of outcomes/errs; the atomic countdown orders those writes before
	// the last part's fold.
	left     atomic.Int32
	outcomes []core.ServiceOutcome
	errs     []error
}

func newPendingCross(req core.ServiceRequest, n int, done func(core.ServiceOutcome, error)) *pendingCross {
	c := &pendingCross{parts: splitRequest(req, n), done: done}
	c.left.Store(int32(len(c.parts)))
	c.outcomes = make([]core.ServiceOutcome, len(c.parts))
	c.errs = make([]error, len(c.parts))
	return c
}

// partDone is part pi's completion: it records the part's fate, and the
// last part to finish answers the logical request — the folded outcome
// (logical arrival = earliest part, deadline = latest; the shards' clocks
// are independent) and the first per-part error by shard order.
func (c *pendingCross) partDone(pi int) func(core.ServiceOutcome, error) {
	return func(o core.ServiceOutcome, err error) {
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
		c.done(foldParts(arrival, deadline, c.outcomes), first)
	}
}

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
	dead      []bool  // permanently down (supervised, out of restarts — or unsupervised failure)
	failures  []error // last failure per shard, sticky across restarts
	restarts  []int
	failTotal int
	lastFail  error
	// predict is true for conflict-prediction policies (CCA-P/CCA-T) with
	// more than one shard: at every epoch tick the per-shard statistics
	// tables are merged (ascending shard order) and the same frozen view is
	// installed on every shard — the wall-clock analogue of the virtual
	// runner's boundary merge.
	predict bool

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
	s.predict = opt.Shards > 1 && (cfg.Policy == core.CCAP || cfg.Policy == core.CCAT)
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

func (s *Service) markDead(i int) {
	s.svcMu.Lock()
	s.dead[i] = true
	s.svcMu.Unlock()
}

func (s *Service) deadShards() int {
	s.svcMu.RLock()
	defer s.svcMu.RUnlock()
	n := 0
	for _, d := range s.dead {
		if d {
			n++
		}
	}
	return n
}

// noteFailure records a shard-driver failure and reports the restart
// count consumed so far.
func (s *Service) noteFailure(i int, err error) int {
	s.svcMu.Lock()
	defer s.svcMu.Unlock()
	s.failures[i] = err
	s.lastFail = err
	s.failTotal++
	return s.restarts[i]
}

// Run drives every shard service and the cross-shard batcher until ctx
// is cancelled or the shards stop. Unsupervised (the default), any
// shard failure stops all shards and Run returns it. Supervised, shard
// failures are contained per SuperviseOptions and Run keeps serving
// until cancellation or until every shard is permanently dead; it then
// returns the first shard failure (if any), so a degraded-then-drained
// service still reports what went wrong. Must be called exactly once.
func (s *Service) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errCh := make(chan error, s.n)
	for i := 0; i < s.n; i++ {
		i := i
		go func() { errCh <- s.supervise(ctx, i) }()
	}
	// The epoch tick exists only where there can be something to flush or
	// merge: a single shard never sees a cross-shard footprint and has no
	// one to merge statistics with.
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
			s.mergePredict()
		case err := <-errCh:
			running--
			if first == nil {
				first = err
			}
			// Unsupervised: any shard exit stops the service. Supervised:
			// shards die independently; stop only when none are left.
			if !s.sup.Enabled || s.deadShards() == s.n {
				cancel()
			}
		}
	}
	s.failQueued(core.ErrServiceStopped)
	return first
}

// supervise runs shard i until ctx cancellation or permanent death. An
// unexpected exit is recorded (Degraded, SupervisionStats); when
// Restart allows, a fresh engine is swapped into the shard table and
// driven in place of the dead one. The failed engine's inflight work
// was already answered by the core failure sweep before its Run
// returned, so containment never strands a waiter.
func (s *Service) supervise(ctx context.Context, i int) error {
	for {
		sv := s.shard(i)
		err := sv.Run(ctx)
		if ctx.Err() != nil || err == nil || errors.Is(err, context.Canceled) {
			return err
		}
		used := s.noteFailure(i, err)
		if !s.sup.Enabled || !s.sup.Restart || used >= s.sup.maxRestarts() || s.Draining() {
			s.markDead(i)
			return err
		}
		fresh, nerr := core.NewService(s.cfg, s.coreOpt)
		if nerr != nil {
			s.markDead(i)
			return err
		}
		s.svcMu.Lock()
		s.svcs[i] = fresh
		s.restarts[i]++
		s.svcMu.Unlock()
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

// homeOf returns the shard holding every item of the access list, or -1
// when the (validated, so non-empty) list crosses shards.
func (s *Service) homeOf(items []txn.Item) int {
	mask := txn.ShardsTouched(items, s.n)
	if mask&(mask-1) != 0 {
		return -1
	}
	return bits.TrailingZeros64(mask)
}

// Enqueue is the one way in, and it does not wait: the entry is checked
// against the service's refusal, validated, then routed. A single-home
// entry goes straight to its shard's inbox (core.Service.Enqueue), which
// appends its submit record (WAL on) under the inbox lock, so each shard
// injects in log order; limit bounds that inbox (0: no bound), and false
// means it was full — nothing was logged or will be called back, the caller
// sheds. A cross-shard entry is logged here and joins the epoch queue, and
// its handle, handed over at once, wounds every part. Otherwise the
// contract is core.Submission's: Done fires exactly once, after the handle.
func (s *Service) Enqueue(sub core.Submission, limit int) bool {
	if err := s.refusing(); err != nil {
		sub.Fail(err)
		return true
	}
	// A replayed entry's submit record already exists: wrap first, so
	// even a validation refusal resolves it in the log.
	if sub.WALSeq != 0 {
		sub.Done = s.wal.WrapDone(sub.WALSeq, true, sub.Done)
	}
	if err := sub.Req.Validate(&s.cfg); err != nil {
		sub.Fail(err)
		return true
	}
	if h := s.homeOf(sub.Req.Items); h >= 0 {
		return s.shard(h).Enqueue(sub, &s.wal, limit)
	}
	if sub.WALSeq == 0 {
		seq, err := s.wal.LogSubmit(&sub.Req)
		if err != nil {
			sub.Fail(err)
			return true
		}
		sub.Done = s.wal.WrapDone(seq, false, sub.Done)
	}
	c := newPendingCross(sub.Req, s.n, sub.Done)
	if sub.Handle != nil {
		sub.Handle.OnHandle(sub.ID, core.CancelHandle(c.cancel.Cancel))
	}
	if err := s.enqueue(c); err != nil {
		c.done(core.ServiceOutcome{}, err)
	}
	return true
}

// SubmitBatch is Enqueue, with no limit, for every entry, returning once
// each has its handle (see core.Service.SubmitBatch; the contract is
// identical — every Submission.Done fires exactly once).
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

// flush drains the cross-shard queue through the batch primitive: the
// queued parts are grouped by shard in queue order and every touched shard
// gets one SubmitBatch, ascending by shard (the virtual Runner's canonical
// order). flush only ever runs on Run's goroutine, so each shard's driver
// sees the cross requests of this and every other epoch in the same
// relative order.
func (s *Service) flush() {
	s.mu.Lock()
	batch := s.queue
	s.queue = nil
	s.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	groups := make([][]core.Submission, s.n)
	owners := make([][]*pendingCross, s.n)
	for _, c := range batch {
		for pi, p := range c.parts {
			groups[p.shard] = append(groups[p.shard], core.Submission{Req: p.req, Done: c.partDone(pi)})
			owners[p.shard] = append(owners[p.shard], c)
		}
	}
	for shard, group := range groups {
		if len(group) == 0 {
			continue
		}
		for k, h := range s.shard(shard).SubmitBatch(group) {
			owners[shard][k].cancel.Arm(h)
		}
	}
}

// mergePredict folds every shard's conflict-statistics table into one
// merged table (ascending shard order) and installs it as the read view on
// every shard. Per-shard recording continues into the shards' own tables;
// only the priced rates are globalised. Decayed reads on a Table are pure,
// so the shared view is safe for the shards' concurrent driver goroutines.
func (s *Service) mergePredict() {
	if !s.predict {
		return
	}
	var merged *predict.Table
	shards := s.allShards()
	for _, sv := range shards {
		snap, ok := sv.PredictSnapshot()
		if !ok || snap.Table == nil {
			if s.sup.Enabled {
				continue // dead or restarting shard: merge the survivors
			}
			return // a shard is stopping; skip this tick
		}
		if merged == nil {
			merged = snap.Table // PredictSnapshot clones — ours to own
		} else {
			merged.Merge(snap.Table)
		}
	}
	if merged == nil {
		return
	}
	for _, sv := range shards {
		if err := sv.SetPredictView(merged); err != nil && !s.sup.Enabled {
			return
		}
	}
}

// splitRequest cuts a cross-shard request into per-shard parts, ascending
// by shard, preserving per-shard item order and realigning the per-update
// flags (the wall-clock analogue of workload.Spec.SplitShards).
func splitRequest(req core.ServiceRequest, n int) []partReq {
	parts := make([]partReq, 0, 2)
	for shard := 0; shard < n; shard++ {
		var items []txn.Item
		var reads, io []bool
		for u, it := range req.Items {
			if txn.ShardOf(it, n) != shard {
				continue
			}
			items = append(items, it)
			if len(req.Reads) > 0 {
				reads = append(reads, req.Reads[u])
			}
			if len(req.NeedsIO) > 0 {
				io = append(io, req.NeedsIO[u])
			}
		}
		if len(items) == 0 {
			continue
		}
		parts = append(parts, partReq{shard: shard, req: core.ServiceRequest{
			Items:       items,
			Reads:       reads,
			NeedsIO:     io,
			Compute:     req.Compute,
			Deadline:    req.Deadline,
			Criticality: req.Criticality,
			Class:       req.Class,
		}})
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
		c.done(core.ServiceOutcome{}, err)
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

// Err reports the failure that stops (or stopped) the whole service.
// Unsupervised, that is the first shard failure (by shard index).
// Supervised, individual shard failures are contained — surfaced via
// Degraded and SupervisionStats, not Err — and Err stays nil until
// every shard is permanently dead.
func (s *Service) Err() error {
	if !s.sup.Enabled {
		for _, sv := range s.allShards() {
			if err := sv.Err(); err != nil {
				return err
			}
		}
		return nil
	}
	s.svcMu.RLock()
	defer s.svcMu.RUnlock()
	dead := 0
	var first error
	for i := range s.dead {
		if s.dead[i] {
			dead++
			if first == nil {
				first = s.failures[i]
			}
		}
	}
	if dead < s.n {
		return nil
	}
	if first != nil {
		return fmt.Errorf("shard: all %d shards failed: %w", s.n, first)
	}
	return fmt.Errorf("shard: all %d shards failed", s.n)
}

// Stats returns the system-wide snapshot: the shards' run counters merged
// with metrics.MergeRuns (exact counter sums, one percentile window over
// the union of recent commits — never a biased average of per-shard
// Results), live summed, clock = the furthest shard. ok=false once any
// shard has stopped.
func (s *Service) Stats() (core.ServiceStats, bool) {
	runs := make([]*metrics.Run, 0, s.n)
	st := core.ServiceStats{}
	for _, sv := range s.allShards() {
		run, live, now, ok := sv.RunSnapshot()
		if !ok {
			// Supervised, a dead or mid-restart shard just drops out of
			// the merged view — the survivors' numbers stay observable.
			if s.sup.Enabled {
				continue
			}
			return core.ServiceStats{}, false
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
	st.Predict = s.predictStats(st.Now)
	return st, true
}

// predictStats builds the system-wide prediction snapshot: the per-shard
// tables merged (exact — integer sums are order-free), pair statistics
// recomputed from the merged table at the merged clock, tuner steps summed
// across shards, and W from shard 0 (each shard tunes independently; shard
// 0 is the fixed representative). Nil for non-predictive policies.
func (s *Service) predictStats(now time.Duration) *core.PredictSnapshot {
	if s.cfg.Policy != core.CCAP && s.cfg.Policy != core.CCAT {
		return nil
	}
	var tab *predict.Table
	ps := core.PredictSnapshot{Policy: s.cfg.Policy}
	for _, sv := range s.allShards() {
		snap, ok := sv.PredictSnapshot()
		if !ok || snap.Table == nil {
			if s.sup.Enabled {
				continue // dead or restarting shard: report the survivors
			}
			return nil
		}
		if tab == nil {
			// First live shard is the representative for the tuned weight
			// (each shard tunes independently).
			ps.W = snap.W
			ps.WTrajectory = snap.WTrajectory
			tab = snap.Table
		} else {
			tab.Merge(snap.Table)
		}
		ps.TunerSteps += snap.TunerSteps
	}
	if tab == nil {
		return nil
	}
	ps.ActivePairs = tab.ActivePairs(now)
	ps.TopPairs = tab.TopPairs(now, 8)
	ps.Table = tab
	return &ps
}
