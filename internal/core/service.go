// Service runs the engine as a wall-clock transaction service: instead of
// executing a pre-generated workload in virtual time, transactions are
// submitted while the clock runs (from HTTP handlers, load generators,
// tests), execute under the configured policy exactly as they would in the
// simulator, and report their fate back to the submitter.
//
// The engine code is shared, not forked: the same calendar, the same
// scheduling points, the same conflict machinery, the same event loop
// (Engine.stepEvents, with its watchdog and oracle). The only difference is
// the clock — Run's driver loop steps the engine to the wall instant, runs
// the calls queued from other goroutines, and sleeps until the next event
// is due — and the per-transaction completion slot, which is nil on every
// simulation run. That is the whole equivalence argument for the Clock
// refactor — virtual-time runs execute byte-for-byte the same code they
// always did, and the recorded equivalence digests keep proving them
// bit-identical.
//
// A Service is one shard's worker: the serving stack always runs
// shard.Service over N of them (N = 1 included), which owns routing,
// durability and supervision. There is one way in — the inbox (Enqueue,
// batch.go); SubmitBatch waits for its entries' handles, and Submit is a
// one-element batch. There is one queue into the driver: the call queue,
// under the service's one mutex, which the inbox's drain joins as one call.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/workload"
)

// Errors a submission can be answered with.
var (
	// ErrServiceStopped reports a submission against a service whose Run
	// has returned (shutdown, engine failure).
	ErrServiceStopped = errors.New("core: service stopped")
	// ErrDraining reports a submission during graceful drain: the service
	// finishes in-flight transactions but accepts no new ones.
	ErrDraining = errors.New("core: service draining")
	// ErrEngineFailed reports a submission that was in flight when the
	// engine driver failed (panic or oracle violation). Unlike
	// ErrDraining/ErrServiceStopped, the transaction MAY have partially
	// executed — its outcome is unknown, so callers must not treat it
	// as safely retriable without idempotence of their own.
	ErrEngineFailed = errors.New("core: engine failed with transaction in flight")
)

// ServiceOptions tune the wall-clock service without changing what the
// engine computes.
type ServiceOptions struct {
	// Speed is the ratio of simulated time to wall time; 0 means 1 (one
	// simulated second per wall second), and a negative or non-finite
	// speed is refused. Tests compress time with large speeds: the
	// engine's millisecond-scale events then fire in microseconds.
	Speed float64
	// Oracle attaches the runtime safety oracle: a violated paper
	// invariant stops the service with an error (surfaced by Err and
	// /healthz) instead of silently corrupting results. The oracle records
	// the full operation history, so it is meant for soak and verification
	// runs, not unbounded production serving.
	Oracle bool
}

// ServiceRequest describes one submitted transaction. The deadline is
// relative to the (server-assigned) arrival instant, which is the moment
// the request reaches the engine's clock.
type ServiceRequest struct {
	// Items is the ordered access list; every item must lie in
	// [0, DBSize).
	Items []txn.Item
	// Reads optionally flags, per item, a shared-lock access (nil = all
	// writes). Length must match Items when non-nil.
	Reads []bool
	// NeedsIO optionally flags, per item, a disk access before the
	// computation (nil = none). Length must match Items when non-nil.
	NeedsIO []bool
	// Compute is the CPU time per item update.
	Compute time.Duration
	// Deadline is the client's soft deadline, relative to arrival.
	Deadline time.Duration
	// Criticality and Class carry the workload extensions (0 is fine).
	Criticality int
	Class       int
}

// Validate reports the first problem with the request against the
// service's configuration.
func (r *ServiceRequest) Validate(cfg *Config) error {
	if len(r.Items) == 0 {
		return fmt.Errorf("core: transaction accesses no items")
	}
	for _, it := range r.Items {
		if int(it) < 0 || int(it) >= cfg.Workload.DBSize {
			return fmt.Errorf("core: item %d outside database of size %d", it, cfg.Workload.DBSize)
		}
	}
	if it, ok := repeatedItem(r.Items); ok {
		return fmt.Errorf("core: item %d named twice", it)
	}
	if r.Reads != nil && len(r.Reads) != len(r.Items) {
		return fmt.Errorf("core: %d read flags for %d items", len(r.Reads), len(r.Items))
	}
	if r.NeedsIO != nil && len(r.NeedsIO) != len(r.Items) {
		return fmt.Errorf("core: %d io flags for %d items", len(r.NeedsIO), len(r.Items))
	}
	if r.Compute <= 0 {
		return fmt.Errorf("core: compute time %v <= 0", r.Compute)
	}
	if r.Deadline <= 0 {
		return fmt.Errorf("core: relative deadline %v <= 0", r.Deadline)
	}
	if cfg.Workload.DiskAccessProb <= 0 {
		for i, io := range r.NeedsIO {
			if io {
				return fmt.Errorf("core: item %d needs IO but the service is main-memory-resident (DiskAccessProb 0)", r.Items[i])
			}
		}
	}
	return nil
}

// repeatedItem returns an item the list names twice, if there is one. A
// transaction locks each item once, in the one mode its spec gives it
// (locks.go). The few items of a typical request are compared pairwise,
// without allocating; a long list goes through a set.
func repeatedItem(items []txn.Item) (txn.Item, bool) {
	if len(items) > 32 {
		seen := make(map[txn.Item]bool, len(items))
		for _, it := range items {
			if seen[it] {
				return it, true
			}
			seen[it] = true
		}
		return 0, false
	}
	for i, it := range items {
		if slices.Contains(items[:i], it) {
			return it, true
		}
	}
	return 0, false
}

// ServiceOutcome reports a submitted transaction's fate. Times are on the
// service's clock (simulated time, which tracks the wall).
type ServiceOutcome struct {
	// State is the terminal state: StateCommitted, StateDropped (wounded
	// by cancellation or drain) or StateRejected (admission control).
	State State
	// Missed reports a commit after the deadline (always true for dropped
	// and rejected transactions).
	Missed bool
	// Arrival, Finish and Deadline are absolute service-clock times.
	Arrival  time.Duration
	Finish   time.Duration
	Deadline time.Duration
	// Response is Finish − Arrival (0 for rejected transactions).
	Response time.Duration
	// Restarts counts how many times the transaction was wounded and
	// re-run before finishing.
	Restarts int
	// Seq is the write-ahead-log sequence number of the submission (0
	// when the service runs without a WAL). Clients journal it to
	// reconcile against the recovered server after a crash.
	Seq uint64
}

// ServiceStats is a point-in-time observability snapshot.
type ServiceStats struct {
	// Result carries the engine's run counters so far (commits, misses,
	// restarts, admission counters, percentiles over the recent window).
	Result metrics.Result
	// Live is the number of admitted, unfinished transactions.
	Live int
	// Now is the current service-clock time.
	Now time.Duration
}

// Service is a wall-clock transaction service over one Engine.
type Service struct {
	e     *Engine
	speed float64
	// drainFn is drain as a func value, built once: waking the driver
	// allocates nothing.
	drainFn func()
	// spare and spareCalls are the second arrays of the inbox and the call
	// queue. The driver owns them: it swaps each in for what it takes, so
	// queueing reallocates nothing.
	spare      []Submission
	spareLists inboxLists
	spareCalls []func()
	// drainedSent records, for the driver alone, that drained is closed.
	drainedSent bool

	wake    chan struct{}
	drained chan struct{} // closed by the driver once draining with nothing live
	stopCh  chan struct{}

	// mu guards the call queue, the inbox (batch.go) and the service's
	// state.
	mu       sync.Mutex
	calls    []func()
	inbox    []Submission
	lists    inboxLists // the inbox entries' item and flag lists
	woken    bool       // a drain call is queued
	draining bool
	stopped  bool // Run has swept the inbox and the call queue
	err      error
}

// NewService builds a wall-clock service for the configuration.
// cfg.Workload supplies the structural parameters (database size, compute
// and disk times); its generation parameters (Count, ArrivalRate, slack)
// are unused — arrivals and deadlines come from submissions.
func NewService(cfg Config, opt ServiceOptions) (*Service, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	speed := opt.Speed
	if speed == 0 {
		speed = 1
	}
	if speed < 0 || math.IsNaN(speed) || math.IsInf(speed, 0) {
		return nil, fmt.Errorf("core: service speed %v is not finite and >= 0", speed)
	}
	e := newKernel(cfg, &workload.Workload{Params: cfg.Workload})
	// Tardiness goes to a constant-memory histogram over an unbounded run.
	e.run.UseHistogram = true
	e.retires = true
	s := &Service{
		e:       e,
		speed:   speed,
		wake:    make(chan struct{}, 1),
		drained: make(chan struct{}),
		stopCh:  make(chan struct{}),
	}
	s.drainFn = s.drain
	if opt.Oracle {
		e.EnableOracle()
	}
	return s, nil
}

// Run drives the service until the context is cancelled or the engine
// fails (a panic, a watchdog stall, or an oracle violation). It must be
// called exactly once; submissions wait until Run is live. Cancellation is
// a normal shutdown and returns ctx.Err(); any other return is a failure,
// also surfaced by Err.
func (s *Service) Run(ctx context.Context) error {
	defer close(s.stopCh)
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("core: service engine panic: %v", p)
			}
		}()
		return s.drive(ctx)
	}()
	if err != nil && !errors.Is(err, context.Canceled) {
		s.mu.Lock()
		s.err = err
		s.mu.Unlock()
	}
	// The driver is dead (this goroutine WAS the driver), so the live
	// set is frozen: answer every still-inflight submission, and every
	// one still waiting to be injected, before stopCh closes, converting
	// a crashed engine into failed-with-error outcomes instead of hangs.
	s.failLive(err)
	s.sweep()
	return err
}

// drive is the driver loop: the calendar against the wall clock. Each
// catch-up fires every event due at the current wall instant through the
// engine's own bounded step (the loop a virtual run uses, with its
// watchdog and oracle), then runs the queued calls at that instant. Calls
// may schedule events already due (an arrival dispatches at once), so a
// call batch is always followed by another catch-up, which is where a
// failure a call left behind surfaces. With nothing due, the driver sleeps
// on the next event's timer, a wakeup or the context: every sleep selects
// on cancellation, so shutdown never waits on a sleeping retry timer.
func (s *Service) drive(ctx context.Context) error {
	start := time.Now()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()

	for {
		// Cancellation wins over any amount of due work: an overloaded
		// server must still shut down promptly.
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}

		if err := s.e.stepEvents(sim.Time(float64(time.Since(start))*s.speed), true); err != nil {
			return err
		}
		s.mu.Lock()
		calls := s.calls
		s.calls = s.spareCalls
		draining := s.draining
		s.mu.Unlock()
		for _, fn := range calls {
			fn()
		}
		clear(calls) // pin no closure until the array is reused
		s.spareCalls = calls[:0]
		if len(calls) > 0 {
			continue // calls may have scheduled events already due
		}
		// The queue was empty with draining set, so the inbox is empty and
		// stays so: nothing live now means nothing live ever again.
		if draining && !s.drainedSent && s.e.live.n == 0 {
			s.drainedSent = true
			close(s.drained)
		}

		// Sleep until the next event is due, or, with nothing scheduled,
		// until a call or cancellation (a nil tick never fires).
		var tick <-chan time.Time
		if next, ok := s.e.sim.NextAt(); ok {
			d := time.Until(start.Add(time.Duration(float64(next) / s.speed)))
			if d <= 0 {
				continue
			}
			timer.Reset(d)
			tick = timer.C
		}
		select {
		case <-ctx.Done():
			return ctx.Err() // the deferred Stop retires the timer
		case <-s.wake:
			if tick != nil && !timer.Stop() {
				<-timer.C
			}
		case <-tick:
		}
	}
}

// call queues fn to run on the driver goroutine at its next catch-up, with
// the clock advanced to the wall instant — the injection point for work
// from other goroutines. Calls run in queue order. It returns
// ErrServiceStopped once Run has swept the queue (fn will never run); a
// call queued while Run is shutting down may also be dropped, so waiters
// must additionally select on stopCh.
func (s *Service) call(fn func()) error {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return ErrServiceStopped
	}
	s.calls = append(s.calls, fn)
	s.mu.Unlock()
	s.wakeDriver()
	return nil
}

// wakeDriver ends the driver's sleep, or its next one if it is awake.
func (s *Service) wakeDriver() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// failLive answers every transaction that was still live when the driver
// stopped: ErrServiceStopped on a clean cancellation, ErrEngineFailed
// wrapping the cause on an engine failure, which the front-ends must NOT
// mark retriable — the transaction may have partially executed. Runs on
// Run's goroutine after the driver exited, so it owns the engine state; the
// completion slot empties itself, so no transaction is answered twice even
// if the panic struck between a terminal answer and live-set removal.
func (s *Service) failLive(cause error) {
	ferr := error(ErrServiceStopped)
	if cause != nil && !errors.Is(cause, context.Canceled) && !errors.Is(cause, context.DeadlineExceeded) {
		ferr = fmt.Errorf("%w: %v", ErrEngineFailed, cause)
	}
	for t := s.e.live.head; t != nil; t = t.liveNext {
		t.complete(ServiceOutcome{}, ferr)
	}
}

// InjectPanic crashes the engine driver with a forged panic on its own
// goroutine — fault-injection tooling for supervision and containment
// tests, the wall-clock analogue of InjectEvent's forged trace events.
// It returns once the panic is enqueued; the crash lands at the
// driver's next wakeup.
func (s *Service) InjectPanic(msg string) error {
	return s.call(func() { panic(fmt.Sprintf("core: injected panic: %s", msg)) })
}

// Submit runs one transaction through the service and blocks until it
// reaches a terminal state: a one-element batch behind a Waiter.
func (s *Service) Submit(ctx context.Context, req ServiceRequest) (ServiceOutcome, error) {
	w := NewWaiter()
	w.Arm(s.SubmitBatch([]Submission{{Req: req, Done: w.Done}})[0])
	return w.Wait(ctx)
}

// Drain performs graceful shutdown of the transaction flow: new
// submissions fail with ErrDraining, in-flight transactions run to
// completion, and when the context expires before they finish every
// remaining one is wounded and dropped. It returns nil when the live set
// drained naturally, ctx.Err() when stragglers were wounded. The caller
// still owns Run's context and should cancel it after Drain returns.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.wakeDriver()
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		if _, ok := onDriver(s, func() struct{} { s.e.dropAllLive(); return struct{}{} }); !ok {
			return nil // the driver already stopped
		}
		return ctx.Err()
	case <-s.stopCh:
		return nil
	}
}

// InjectEvent feeds a forged trace event through the engine's observers on
// the driver goroutine (see Engine.InjectEvent) — fault-injection tooling:
// forging a violating event is how tests prove the live oracle actually
// stops the service.
func (s *Service) InjectEvent(ev trace.Event) error {
	return s.call(func() { s.e.InjectEvent(ev) })
}

// Stats returns a point-in-time observability snapshot, or ok=false once
// the service has stopped.
func (s *Service) Stats() (ServiceStats, bool) {
	return onDriver(s, func() ServiceStats {
		return ServiceStats{
			Result: s.e.run.Result(),
			Live:   s.e.live.n,
			Now:    time.Duration(s.e.sim.Now()),
		}
	})
}

// RunSnapshot is Stats in mergeable form: a deep copy of the raw run
// counters rather than the computed Result, so a sharded service can fold
// its shards together with metrics.MergeRuns before computing one
// system-wide Result (averaging per-shard Results would bias every ratio;
// merging the counters is exact). ok=false once the service has stopped.
func (s *Service) RunSnapshot() (run metrics.Run, live int, now time.Duration, ok bool) {
	type snap struct {
		run  metrics.Run
		live int
		now  time.Duration
	}
	sn, ok := onDriver(s, func() snap {
		return snap{run: s.e.run.Clone(), live: s.e.live.n, now: time.Duration(s.e.sim.Now())}
	})
	return sn.run, sn.live, sn.now, ok
}

// onDriver runs fn on the driver goroutine and returns its result; ok is
// false once the driver has stopped (fn then may or may not have run).
func onDriver[T any](s *Service, fn func() T) (v T, ok bool) {
	ch := make(chan T, 1)
	if s.call(func() { ch <- fn() }) != nil {
		return v, false
	}
	select {
	case v = <-ch:
		return v, true
	case <-s.stopCh:
		return v, false
	}
}

// outcomeOf converts a terminal transaction into its submission outcome.
func outcomeOf(t *Txn) ServiceOutcome {
	o := ServiceOutcome{
		State:    t.state,
		Arrival:  t.spec.Arrival,
		Deadline: t.spec.Deadline,
		Restarts: t.restarts,
	}
	switch t.state {
	case StateCommitted:
		o.Finish = time.Duration(t.finish)
		o.Response = o.Finish - o.Arrival
		o.Missed = o.Finish > o.Deadline
	default: // dropped or rejected
		o.Missed = true
	}
	return o
}

// --- engine-side service plumbing (driver goroutine only) ---------------

// addServiceTxn builds the runtime transaction for a dynamically submitted
// spec and arms the completion slot with (to, answerID). The transaction
// owns its spec: src is copied — the item and flag lists into the object's
// own arrays — and not retained. A retired object is reused when there is one, so the steady state
// allocates nothing and the store and transaction tables stay bounded by
// the peak live set, not the request count: it brings its ID, its
// spec storage and its event callbacks, and everything else starts from zero.
func (e *Engine) addServiceTxn(src *workload.Spec, to AnswerSink, answerID uint64) *Txn {
	var t *Txn
	if n := len(e.freeTxns); n > 0 && e.recycles() {
		t = e.freeTxns[n-1]
		e.freeTxns = e.freeTxns[:n-1]
		e.idRecycled = true
		*t = Txn{spec: t.spec, gen: t.gen, updateDoneFn: t.updateDoneFn,
			rollbackDoneFn: t.rollbackDoneFn, deadlineFn: t.deadlineFn}
	} else {
		st := &serviceTxn{}
		st.specBuf.ID = len(e.all)
		st.spec = &st.specBuf
		t = &st.Txn
		e.all = append(e.all, nil)
	}
	own := t.spec
	id, items, io, reads, full := own.ID, own.Items[:0], own.NeedsIO[:0], own.Reads[:0], own.MightFull[:0]
	*own = *src
	own.ID = id
	own.Items = append(items, src.Items...)
	own.NeedsIO = append(io, src.NeedsIO...)
	own.Reads = append(reads, src.Reads...)
	own.MightFull = append(full, src.MightFull...)
	e.initTxn(t, own, e.serviceBitset)
	t.answer, t.answerID = to, answerID
	e.all[id] = t
	return t
}

// retireServiceTxn releases a terminal transaction for reuse: its table slot
// empties and the object joins the free list. Whoever may still hold the
// *Txn is cut off here, not at reuse: the generation moves on, which voids
// every SubmitHandle and disk completion taken under the old one, and the
// pending firm-deadline event is cancelled. (The engine's own lists — live,
// ranked, pending, the conflict index — dropped it on the terminal path.)
func (e *Engine) retireServiceTxn(t *Txn) {
	if !e.recycles() {
		return // IDs stay unique for the history/trace; tables grow instead
	}
	e.all[t.id()] = nil
	t.gen++
	e.sim.Cancel(t.deadlineEvent)
	e.freeTxns = append(e.freeTxns, t)
	// The item sets go back separately: a parked transaction never needs a
	// has-set, a decision-point one needs two might-sets. Nothing reads a
	// retired transaction's sets, and dropping them here turns a read that
	// would into a panic.
	if t.mightNarrow != nil {
		e.freeSets = append(e.freeSets, t.mightNarrow, t.mightFull)
	} else {
		e.freeSets = append(e.freeSets, t.might)
	}
	if t.has != nil {
		e.freeSets = append(e.freeSets, t.has)
	}
	t.might, t.mightNarrow, t.mightFull, t.has = nil, nil, nil, nil
}

// recycles reports whether a retired transaction's object and ID may be
// reused. Only when nothing identifies transactions across time: the history
// (and so the oracle's serializability checks) and the trace recorder key
// operations by transaction ID. idsPinned is the lifetime latch — once any
// such consumer has ever attached, IDs (and objects) stay unique even if the
// consumer is later detached.
func (e *Engine) recycles() bool { return !e.idsPinned && e.hist == nil && e.rec == nil }

// serviceBitset returns an empty item set for a submitted transaction,
// reusing a retired one when there is one.
func (e *Engine) serviceBitset() bitset {
	if n := len(e.freeSets); n > 0 {
		b := e.freeSets[n-1]
		e.freeSets = e.freeSets[:n-1]
		b.clear()
		return b
	}
	return newBitset(e.cfg.Workload.DBSize)
}

// cancelServiceTxn wounds the submitted transaction that occupied t at
// generation gen, because its client has gone away: it is dropped exactly
// like a firm-deadline expiry. One already terminal is left alone, and so is
// the object's next occupant when that one was answered and retired.
func (e *Engine) cancelServiceTxn(t *Txn, gen uint64) {
	if t == nil || t.gen != gen {
		return
	}
	switch t.state {
	case StateCommitted, StateDropped, StateRejected:
		return
	}
	e.note()
	e.drop(t)
	e.reschedule()
}

// dropAllLive wounds every live transaction (drain-deadline expiry).
func (e *Engine) dropAllLive() {
	e.note()
	for e.live.head != nil {
		e.drop(e.live.head)
	}
	e.reschedule()
}
