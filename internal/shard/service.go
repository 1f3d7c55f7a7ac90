package shard

// Wall-clock sharded service: N independent core.Services (one engine
// shard each, its own Realtime driver goroutine) behind one Submit front.
// Requests whose access list lies on a single shard go straight to that
// shard's service — the scaling path: submissions to different shards
// never contend on a driver goroutine. Cross-shard requests are queued and
// flushed to their shards in canonical FIFO order at wall-clock epoch
// ticks, the wall analogue of the virtual runner's boundary exchange.
//
// Unlike the virtual Runner, the wall-clock service is not deterministic —
// arrival instants come from the wall — and it has no cross-shard atomic
// commit: sub-transactions commit or fail per shard (a rejection on one
// shard does not undo the siblings). The merged outcome reports the
// logical fate (committed iff every part committed); workloads where
// partial application is unacceptable should run with AdmitAll admission
// and soft deadlines, where parts only fail if the service itself stops.

import (
	"context"
	"errors"
	"fmt"
	"sync"
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
	// (0 = DefaultEpoch). The wall flush period is Epoch divided by the
	// core speed factor.
	Epoch time.Duration
	// Core tunes each shard's wall-clock service (speed, sample window,
	// oracle).
	Core core.ServiceOptions
	// Supervise contains shard-driver failures instead of letting one
	// panicking shard kill the whole service.
	Supervise SuperviseOptions
	// WAL, when non-nil, makes submissions durable at the service level:
	// records are appended before routing, so one log orders the whole
	// sharded system and replay re-routes through the same footprint
	// logic. The per-shard cores always run without a WAL of their own
	// (Core.WAL is ignored).
	WAL *wal.Logger
}

// partReq is one shard's slice of a cross-shard request.
type partReq struct {
	shard int
	req   core.ServiceRequest
}

// pendingCross is a queued cross-shard submission waiting for the next
// epoch flush.
type pendingCross struct {
	ctx   context.Context
	parts []partReq
	out   chan crossResult
}

type crossResult struct {
	outcome core.ServiceOutcome
	err     error
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

	stopCh chan struct{}

	mu       sync.Mutex
	draining bool
	queue    []*pendingCross
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
		epoch = DefaultEpoch
	}
	speed := opt.Core.Speed
	if speed <= 0 {
		speed = 1
	}
	// Durability is a service-level concern: the shard cores must not
	// double-log, so the logger lives on this service and the per-shard
	// option is forced off (restarted shards inherit the same coreOpt).
	opt.Core.WAL = nil
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
		stopCh:    make(chan struct{}),
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
	defer close(s.stopCh)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errCh := make(chan error, s.n)
	for i := 0; i < s.n; i++ {
		i := i
		go func() { errCh <- s.supervise(ctx, i) }()
	}
	tick := time.NewTicker(s.wallEpoch)
	defer tick.Stop()
	var first error
	for running := s.n; running > 0; {
		select {
		case <-tick.C:
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

// Submit routes one request: single-shard requests go straight to their
// shard's engine; cross-shard requests wait for the next epoch flush (so
// they lose up to one epoch of deadline budget — size Epoch accordingly)
// and then fan out to every touched shard.
func (s *Service) Submit(ctx context.Context, req core.ServiceRequest) (core.ServiceOutcome, error) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		return core.ServiceOutcome{}, core.ErrDraining
	}
	if !s.wal.Enabled() {
		return s.submit(ctx, req)
	}
	// Durable path: submit record before routing, answer released only
	// once the outcome record is fsynced (see core.WALHook).
	seq, err := s.wal.LogSubmit(&req)
	if err != nil {
		return core.ServiceOutcome{}, err
	}
	type res struct {
		o   core.ServiceOutcome
		err error
	}
	ch := make(chan res, 1)
	deliver := s.wal.WrapDone(seq, false, func(o core.ServiceOutcome, err error) { ch <- res{o, err} })
	o, err := s.submit(ctx, req)
	deliver(o, err)
	r := <-ch
	return r.o, r.err
}

// submit is Submit's routing body, shared by the durable and direct
// paths.
func (s *Service) submit(ctx context.Context, req core.ServiceRequest) (core.ServiceOutcome, error) {
	mask := txn.ShardsTouched(req.Items, s.n)
	if mask&(mask-1) == 0 {
		home := 0
		for mask > 1 {
			mask >>= 1
			home++
		}
		return s.shard(home).Submit(ctx, req)
	}
	pc := &pendingCross{
		ctx:   ctx,
		parts: splitRequest(req, s.n),
		out:   make(chan crossResult, 1),
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return core.ServiceOutcome{}, core.ErrDraining
	}
	s.queue = append(s.queue, pc)
	s.mu.Unlock()
	select {
	case r := <-pc.out:
		return r.outcome, r.err
	case <-s.stopCh:
		return core.ServiceOutcome{}, core.ErrServiceStopped
	case <-ctx.Done():
		// The flush may already hold the request; the parts themselves
		// carry ctx and are wounded by their shards. Wait for the merged
		// outcome rather than abandoning the channel.
		select {
		case r := <-pc.out:
			if r.err == nil {
				r.err = ctx.Err()
			}
			return r.outcome, r.err
		case <-s.stopCh:
			return core.ServiceOutcome{}, core.ErrServiceStopped
		}
	}
}

// SubmitBatch is the batched ingestion path (see core.Service.SubmitBatch;
// the contract is identical — every Submission.Done fires exactly once).
// Single-shard submissions are grouped by home shard and injected with one
// driver call per touched shard, so a batch of K requests costs at most
// N driver wakeups instead of K. Cross-shard submissions join the normal
// epoch queue; their handles cancel the whole fan-out via a shared
// context.
func (s *Service) SubmitBatch(subs []core.Submission) []core.SubmitHandle {
	handles := make([]core.SubmitHandle, len(subs))
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		for i := range subs {
			subs[i].Done(core.ServiceOutcome{}, core.ErrDraining)
		}
		return handles
	}
	s.mu.Unlock()

	// Durability first, so every later path — home-shard injection,
	// cross-shard fan-out, even validation failures inside the shard —
	// flows through the log's resolve-or-replay accounting. Replays
	// (WALSeq set) keep their existing record.
	if s.wal.Enabled() {
		for i := range subs {
			sub := &subs[i]
			seq, replay := sub.WALSeq, sub.WALSeq != 0
			if !replay {
				var err error
				if seq, err = s.wal.LogSubmit(&sub.Req); err != nil {
					// Logging is down (sticky failure): answer and mark the
					// entry answered so no later path touches it.
					sub.Done(core.ServiceOutcome{}, err)
					sub.Done = nil
					continue
				}
				sub.WALSeq = seq
			}
			sub.Done = s.wal.WrapDone(seq, replay, sub.Done)
		}
	}

	// Group by home shard; -1 marks cross-shard entries.
	byShard := make([][]int, s.n)
	for i := range subs {
		if subs[i].Done == nil {
			continue // already answered: WAL append failed above
		}
		mask := txn.ShardsTouched(subs[i].Req.Items, s.n)
		if mask != 0 && mask&(mask-1) == 0 {
			home := 0
			for mask > 1 {
				mask >>= 1
				home++
			}
			byShard[home] = append(byShard[home], i)
			continue
		}
		// Cross-shard (or empty — validation inside the shard rejects it):
		// one epoch-queue entry with a cancellable fan-out context.
		ctx, cancel := context.WithCancel(context.Background())
		pc := &pendingCross{
			ctx:   ctx,
			parts: splitRequest(subs[i].Req, s.n),
			out:   make(chan crossResult, 1),
		}
		if len(pc.parts) == 0 {
			cancel()
			subs[i].Done(core.ServiceOutcome{}, fmt.Errorf("core: transaction accesses no items"))
			continue
		}
		handles[i] = core.CancelHandle(cancel)
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			cancel()
			subs[i].Done(core.ServiceOutcome{}, core.ErrDraining)
			continue
		}
		s.queue = append(s.queue, pc)
		s.mu.Unlock()
		// The caller may reuse subs the moment SubmitBatch returns (the
		// server's batcher does): the goroutine keeps the callback, not an
		// index into the caller's slice.
		done := subs[i].Done
		go func() {
			defer cancel()
			select {
			case r := <-pc.out:
				done(r.outcome, r.err)
			case <-s.stopCh:
				done(core.ServiceOutcome{}, core.ErrServiceStopped)
			}
		}()
	}
	for shard, idxs := range byShard {
		if len(idxs) == 0 {
			continue
		}
		group := make([]core.Submission, len(idxs))
		for k, i := range idxs {
			group[k] = subs[i]
		}
		for k, h := range s.shard(shard).SubmitBatch(group) {
			handles[idxs[k]] = h
		}
	}
	return handles
}

// flush drains the cross-shard queue: each queued request fans out to its
// shards concurrently (a slow shard must not serialise the whole batch),
// but the queue is dispatched in FIFO order so same-epoch requests reach
// each shard's driver in a consistent arrival order.
func (s *Service) flush() {
	s.mu.Lock()
	batch := s.queue
	s.queue = nil
	s.mu.Unlock()
	for _, pc := range batch {
		pc := pc
		go func() {
			outcome, err := s.fanOut(pc)
			pc.out <- crossResult{outcome, err}
		}()
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

// fanOut submits one cross request's parts to their shards concurrently
// and folds the results into the logical outcome: committed iff every
// part committed; a rejection dominates a drop; finish is the latest part;
// restarts sum. The first per-part error (by shard order) is returned.
func (s *Service) fanOut(pc *pendingCross) (core.ServiceOutcome, error) {
	outs := make([]core.ServiceOutcome, len(pc.parts))
	errs := make([]error, len(pc.parts))
	var wg sync.WaitGroup
	wg.Add(len(pc.parts))
	for i, p := range pc.parts {
		i, p := i, p
		go func() {
			defer wg.Done()
			outs[i], errs[i] = s.shard(p.shard).Submit(pc.ctx, p.req)
		}()
	}
	wg.Wait()
	var firstErr error
	o := core.ServiceOutcome{State: core.StateCommitted}
	for i, po := range outs {
		if errs[i] != nil && firstErr == nil {
			firstErr = errs[i]
		}
		o.Restarts += po.Restarts
		if po.Arrival > 0 && (o.Arrival == 0 || po.Arrival < o.Arrival) {
			o.Arrival = po.Arrival
		}
		if po.Deadline > o.Deadline {
			o.Deadline = po.Deadline
		}
		switch po.State {
		case core.StateRejected:
			o.State = core.StateRejected
		case core.StateDropped:
			if o.State != core.StateRejected {
				o.State = core.StateDropped
			}
		case core.StateCommitted:
			if po.Finish > o.Finish {
				o.Finish = po.Finish
			}
		default: // zero outcome from an errored part
			if o.State == core.StateCommitted {
				o.State = core.StateDropped
			}
		}
	}
	if firstErr != nil && o.State == core.StateCommitted {
		o.State = core.StateDropped
	}
	if o.State == core.StateCommitted {
		o.Response = o.Finish - o.Arrival
		o.Missed = o.Finish > o.Deadline
	} else {
		o.Finish, o.Response, o.Missed = 0, 0, true
	}
	return o, firstErr
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
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
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

// failQueued answers every queued cross submission with err.
func (s *Service) failQueued(err error) {
	s.mu.Lock()
	batch := s.queue
	s.queue = nil
	s.mu.Unlock()
	for _, pc := range batch {
		pc.out <- crossResult{err: err}
	}
}

// InjectEvent feeds a forged trace event through shard 0's engine (fault
// tooling; see core.Service.InjectEvent). Shard 0 is arbitrary but fixed —
// the oracle under test is per-shard and identical on all of them.
func (s *Service) InjectEvent(ev trace.Event) error {
	return s.shard(0).InjectEvent(ev)
}

// Draining reports whether graceful drain has begun.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

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
