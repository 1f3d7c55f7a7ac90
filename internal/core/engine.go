// Package core implements the paper's real-time transaction processing
// engine: a discrete-event simulation of a single- (or multi-) CPU database
// system executing soft-deadline transactions under a pluggable scheduling
// policy — the paper's Cost Conscious Approach (CCA) or one of the baselines
// (EDF-HP, EDF-WP, LSF-HP, EDF-CR, AED, PCP, FCFS).
//
// The engine follows the paper's model (§3.3):
//
//   - the scheduler is invoked whenever a transaction arrives, the running
//     transaction finishes, or an IO wait occurs; priorities use continuous
//     evaluation — they are refreshed at every scheduling point (for CCA
//     the penalty of conflict changes as partially executed transactions
//     accumulate service time);
//   - on a data conflict the policy either wounds the holders (High
//     Priority: the victim is rolled back at a fixed CPU cost and restarts
//     from scratch with its original deadline) or blocks the requester;
//   - while the highest-priority transaction is blocked on IO, CCA's
//     IOwait-schedule gives the CPU only to ready transactions that do not
//     conflict — even conditionally — with any partially executed
//     transaction, eliminating noncontributing executions;
//   - a transaction wounded while its disk access is in service does not
//     release the disk until the access completes (§5).
package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"repro/internal/db"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/history"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/workload"
)

// negInf marks "no inherited priority".
var negInf = math.Inf(-1)

// Engine executes one simulation run.
type Engine struct {
	cfg    Config
	policy policy
	sim    *sim.Simulator
	disks  []*disk.Disk // empty for the main-memory configuration
	store  *db.Store
	hist   *history.History // nil unless Config.RecordHistory
	wl     *workload.Workload

	all   []*Txn   // every transaction, indexed by ID
	live  liveList // arrived, not yet committed, in arrival order
	slots []*Txn   // CPU occupants (nil = idle)
	// retires is the wall-clock service mode: an answered submission's
	// object (with its ID, spec storage and event callbacks) and item sets go
	// back for reuse (answer → retireServiceTxn). Simulation and shard-runner
	// engines never retire, so their IDs stay stable.
	retires bool
	// freeTxns holds retired transactions for reuse, each still carrying the
	// ID it gives its next occupant; never longer than the peak live set.
	freeTxns []*Txn
	// freeSets holds the item sets of retired transactions for reuse
	// (retireServiceTxn, serviceBitset).
	freeSets []bitset
	// idsPinned latches recycling off for the engine's lifetime: set the
	// moment any consumer that keys state by transaction ID attaches (the
	// history/oracle, a trace recorder). A latch — not a live check against
	// e.hist/e.rec — so detaching the recorder later cannot silently
	// re-enable reuse of IDs the consumer already indexed.
	idsPinned bool
	// idRecycled records that some retired ID was actually reused; once
	// true, attaching an ID-keyed consumer is an error caught by
	// EnableOracle/SetRecorder (their theorems and event streams assume
	// stable IDs).
	idRecycled bool

	// Incremental dispatch state:
	//
	// ranked holds the live transactions sorted by less, worst first, and
	// stays sorted across scheduling points: a transaction is inserted by
	// binary search on its first pass, removed the same way when it leaves
	// and re-keyed when a pass finds its priority moved. Worst first,
	// because the best transactions are the ones that run, commit and get
	// re-keyed: at the tail, a change shifts the few transactions better
	// than it, not the backlog behind it.
	ranked []*Txn
	// pending lists the transactions whose stored priority may be stale for
	// a reason the hot set does not cover — a fresh arrival, a might-set
	// switch, an inherited-priority change, a transaction that just left
	// the hot set — for the next pass to refresh (markStale). Duplicates and
	// departed transactions are tolerated.
	pending []*Txn
	// desiredBuf is engine-owned scratch for the dispatch pass, reused so
	// steady-state passes allocate nothing.
	desiredBuf []*Txn
	// passStamp identifies the current dispatch pass; Txn.desiredStamp ==
	// passStamp marks membership in the pass's desired set in O(1).
	passStamp uint64
	// evalMode is the policy's staticness, read once at construction so the
	// hot path does not ask the interface.
	evalMode staticness
	// passes, evals and rankCompares count dispatch passes, policy
	// evaluations and ranked-order comparisons; the cost tests and the
	// benchmarks read them.
	passes       uint64
	evals        uint64
	rankCompares uint64

	// ci incrementally tracks might/has overlaps between live
	// transactions so the scheduling hot paths (penaltyOfConflict, the
	// IOwait-schedule compatibility test, P-list size accounting) avoid
	// rescanning every live transaction. Always built.
	ci *conflictIndex
	// conflictBuf is startItem's scratch for the holders blocking a request.
	conflictBuf []*Txn
	// waitq holds each item's queue of blocked requests (locks.go), built at
	// the first block; queued counts the requests in all of them.
	waitq  [][]*Txn
	queued int

	committed int
	dropped   int
	rejected  int
	hasReads  bool // any shared-lock accesses in the workload
	run       metrics.Run
	lastNote  sim.Time

	// Stepped-run state (StartRun/StepTo/FinishRun): the stall watchdog's
	// counters live on the engine so a same-instant burst split across two
	// StepTo calls (an epoch boundary landing mid-instant) is still caught.
	runStarted   bool
	wdStallAt    sim.Time
	wdStallCount int

	inReschedule    bool
	rescheduleAgain bool

	// fault injects the configured fault plan (Config.Fault); nil for the
	// zero plan, so unfaulted runs never touch the fault streams.
	fault *fault.Injector
	// oracle, when non-nil, validates the paper's invariants live
	// (EnableOracle).
	oracle *Oracle

	// trace, when non-nil, receives engine events (tests and examples).
	trace func(format string, args ...any)
	// rec, when non-nil, receives structured events (internal/trace).
	rec trace.Recorder
	// obs, when non-nil, receives scheduler decisions (observer.go). A
	// policy implementing decisionObserver is attached automatically.
	obs decisionObserver
}

// New builds an engine for the configuration. The workload is generated
// immediately from cfg.Seed.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	wl, err := workload.GenerateFaulted(cfg.Workload, cfg.Seed, cfg.Fault.Bursts)
	if err != nil {
		return nil, err
	}
	return NewWithWorkload(cfg, wl)
}

// NewWithWorkload builds an engine that executes a caller-supplied workload
// (hand-crafted scenarios, trace replays) instead of generating one from
// cfg.Seed. cfg.Workload still supplies the structural parameters (database
// size, disk access time); each transaction's items must lie in
// [0, DBSize).
func NewWithWorkload(cfg Config, wl *workload.Workload) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if wl == nil || len(wl.Txns) == 0 {
		return nil, fmt.Errorf("core: empty workload")
	}
	return newEngine(cfg, wl)
}

// NewShardEngine is NewWithWorkload for a caller-partitioned shard slice,
// which may be empty: a shard whose only work arrives dynamically (via
// SubmitSpec at epoch boundaries) still needs a fully constructed kernel.
// Everything else — validation, fast paths, fault injection — is identical
// to NewWithWorkload.
func NewShardEngine(cfg Config, wl *workload.Workload) (*Engine, error) {
	if wl == nil {
		wl = &workload.Workload{Params: cfg.Workload}
	}
	return newEngine(cfg, wl)
}

func newEngine(cfg Config, wl *workload.Workload) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for i := range wl.Txns {
		s := &wl.Txns[i]
		if s.ID != i {
			return nil, fmt.Errorf("core: transaction %d has ID %d; IDs must be dense arrival indices", i, s.ID)
		}
		if len(s.Items) == 0 {
			return nil, fmt.Errorf("core: transaction %d accesses no items", i)
		}
		for _, it := range s.Items {
			if int(it) < 0 || int(it) >= cfg.Workload.DBSize {
				return nil, fmt.Errorf("core: transaction %d item %d outside database of size %d", i, it, cfg.Workload.DBSize)
			}
		}
		if i > 0 && s.Arrival < wl.Txns[i-1].Arrival {
			return nil, fmt.Errorf("core: transaction %d arrives before its predecessor", i)
		}
	}
	e := newKernel(cfg, wl)
	// The Txn records and their bitsets are carved out of two slab
	// allocations: with thousands of transactions × (might + has [+
	// mightFull]) sets, individual allocations dominate construction cost.
	words := (cfg.Workload.DBSize + 63) / 64
	nsets := 0
	for i := range wl.Txns {
		nsets += 2
		if len(wl.Txns[i].MightFull) > 0 {
			nsets++
		}
	}
	slab := make([]uint64, nsets*words)
	carve := func() bitset {
		b := bitset(slab[:words:words])
		slab = slab[words:]
		return b
	}
	txns := make([]Txn, len(wl.Txns))
	e.all = make([]*Txn, 0, len(wl.Txns))
	for i := range wl.Txns {
		e.initTxn(&txns[i], &wl.Txns[i], carve)
		if len(txns[i].items) != len(wl.Txns[i].Items) {
			return nil, fmt.Errorf("core: transaction %d accesses an item twice", i)
		}
		txns[i].has = carve()
		e.all = append(e.all, &txns[i])
	}
	return e, nil
}

// newKernel builds what a simulation engine and a wall-clock service share:
// the policy, calendar, store, conflict index (which is the lock table) and
// evaluation mode, the optional history, decision observer, fault injector
// and disks.
func newKernel(cfg Config, wl *workload.Workload) *Engine {
	e := &Engine{
		cfg:    cfg,
		policy: newPolicy(cfg),
		sim:    sim.New(),
		store:  db.New(cfg.Workload.DBSize),
		wl:     wl,
		slots:  make([]*Txn, cfg.NumCPUs),
		ci:     newConflictIndex(cfg.Workload.DBSize),
	}
	e.evalMode = e.policy.staticness()
	e.run.CPUs = cfg.NumCPUs
	if cfg.RecordHistory {
		e.hist = history.New()
	}
	if o, ok := e.policy.(decisionObserver); ok {
		e.obs = o
	}
	if !cfg.Fault.Zero() {
		// One shared injector: draws happen in simulation-event order
		// across all disks and transactions, which is what makes a
		// faulted run deterministic and bit-reproducible.
		e.fault = fault.NewInjector(cfg.Seed, cfg.Fault)
	}
	if cfg.Workload.DiskAccessProb > 0 {
		n := max(cfg.NumDisks, 1)
		for i := 0; i < n; i++ {
			d := disk.New(e.sim, cfg.Workload.DiskAccessTime, cfg.DiskDiscipline)
			if e.fault != nil {
				d.SetFaults(e.fault)
			}
			e.disks = append(e.disks, d)
		}
	}
	return e
}

// initTxn fills in the runtime transaction for spec; carve supplies its
// empty might-sets (one, or two when the spec has a MightFull set). The
// has-set is the caller's: a workload engine carves it up front, the
// service leaves it nil until the transaction first takes a lock.
func (e *Engine) initTxn(t *Txn, spec *workload.Spec, carve func() bitset) {
	t.spec = spec
	t.might = carve()
	t.items = t.might.addDistinct(spec.Items)
	t.mightItems = t.items
	t.cpu = -1
	t.plistIdx = -1
	t.inherited = negInf
	if len(spec.MightFull) > 0 {
		full := carve()
		t.fullItems = full.addDistinct(spec.MightFull)
		if !e.cfg.PessimisticAnalysis {
			// Decision-point transaction: until the decision point
			// executes, the scheduler must assume both branches.
			t.mightNarrow, t.mightFull = t.might, full
		}
		// Pessimistic mode keeps the union set for the whole lifetime.
		t.might, t.mightItems = full, t.fullItems
	}
	for _, r := range spec.Reads {
		if r {
			e.hasReads = true
			break
		}
	}
	// Recurring event callbacks, built once per object — a recycled one
	// already has them — so the hot path never allocates a closure per
	// scheduled event.
	if t.updateDoneFn == nil {
		t.updateDoneFn = func() { e.onUpdateDone(t) }
		t.rollbackDoneFn = func() { e.onRollbackDone(t, t.pendingRollback) }
	}
}

// SetTrace installs a human-readable trace sink (nil disables tracing).
func (e *Engine) SetTrace(fn func(format string, args ...any)) { e.trace = fn }

// SetRecorder installs a structured event recorder (nil disables). The
// recorder keys events by transaction ID, so attaching one pins IDs for the
// engine's lifetime; attaching after an ID has already been recycled
// (wall-clock service mode) panics — the stream would conflate distinct
// transactions that shared an ID.
func (e *Engine) SetRecorder(r trace.Recorder) {
	if r != nil {
		if e.idRecycled {
			panic("core: SetRecorder after transaction IDs were recycled; attach the recorder before submissions (IDs are no longer unique)")
		}
		e.idsPinned = true
	}
	e.rec = r
}

// InjectEvent feeds a forged trace event through the engine's observers
// (oracle and recorder). It exists for fault-injection tooling: forging a
// violating event is how tests prove the oracle actually aborts a run.
func (e *Engine) InjectEvent(ev trace.Event) { e.emit(ev) }

// emit sends a structured event to the oracle and the recorder, if any.
func (e *Engine) emit(ev trace.Event) {
	if e.rec == nil && e.oracle == nil {
		return
	}
	ev.At = time.Duration(e.sim.Now())
	if e.oracle != nil {
		e.oracle.observe(ev)
	}
	if e.rec != nil {
		e.rec.Record(ev)
	}
}

func (e *Engine) tracef(format string, args ...any) {
	if e.trace != nil {
		e.trace("[%8.3fms] "+format, append([]any{ms(time.Duration(e.sim.Now()))}, args...)...)
	}
}

// now returns the current simulated time.
func (e *Engine) now() time.Duration { return time.Duration(e.sim.Now()) }

// txns returns the runtime transactions (indexed by ID).
func (e *Engine) txns() []*Txn { return e.all }

// Run executes the simulation to completion and returns the run metrics.
// It fails if the event guard trips before every transaction commits (which
// would indicate an engine bug — the workload is finite and soft-deadline
// transactions are never dropped), if the stall watchdog detects a
// non-advancing calendar, or if the safety oracle (EnableOracle) records a
// violation — the latter two fail fast, at the offending event, instead of
// spinning to the guard.
func (e *Engine) Run() (metrics.Result, error) {
	e.StartRun()
	if err := e.stepEvents(0, false); err != nil {
		return metrics.Result{}, err
	}
	return e.FinishRun()
}

// StartRun schedules every workload arrival on the calendar. It must be
// called exactly once, before any StepTo; Run calls it internally. The
// shard runner calls it per shard and then interleaves StepTo with
// cross-shard SubmitSpec injections at epoch boundaries.
func (e *Engine) StartRun() {
	if e.runStarted {
		panic("core: StartRun called twice")
	}
	e.runStarted = true
	for _, t := range e.all {
		t := t
		e.sim.At(sim.Time(t.spec.Arrival), func() { e.onArrival(t) })
	}
}

// StepTo fires every calendar event due at or before t — with the same
// oracle fail-fast and stall watchdog Run applies, but no event guard (a
// bounded step cannot run past t) — and then advances the simulated clock
// to exactly t. Splitting a run into StepTo segments fires the identical
// event sequence a single Run does: the boundaries only partition it, they
// never reorder or perturb it (the shard equivalence suite asserts bit
// identity for N=1).
func (e *Engine) StepTo(t sim.Time) error {
	if !e.runStarted {
		panic("core: StepTo before StartRun")
	}
	return e.stepEvents(t, true)
}

// Done reports whether every transaction (workload plus injected) has
// reached a terminal state.
func (e *Engine) Done() bool {
	return e.committed+e.dropped+e.rejected == len(e.all)
}

// RunSnapshot returns a deep copy of the run counters accumulated so far,
// for cross-shard merging (metrics.MergeRuns).
func (e *Engine) RunSnapshot() metrics.Run { return e.run.Clone() }

// stepEvents is the one loop that fires calendar events, in every run mode:
// Run (unbounded), StepTo (the shard runner) and the wall-clock service's
// driver (bounded by the wall instant it has caught up to). It fires events
// — all of them, or those due at or before bound — under the oracle
// fail-fast and the stall watchdog; the unbounded run also stops at the
// event guard. A violation the oracle recorded outside this loop (an
// injected call, a SubmitSpec arrival) stops it before anything fires. The
// watchdog budget is derived from the current transaction count so
// injected transactions scale it exactly as workload ones do.
func (e *Engine) stepEvents(bound sim.Time, bounded bool) error {
	if e.oracle != nil && e.oracle.err != nil {
		return fmt.Errorf("core: oracle: %w", e.oracle.err)
	}
	// A bounded step cannot run away: the clock cannot pass the bound, and
	// same-instant churn is the watchdog's job. For a service, len(e.all)
	// is only the peak live set, so the guard would be wrong there anyway.
	guard := uint64(math.MaxUint64)
	if !bounded {
		guard = e.cfg.eventGuard(len(e.all))
	}
	budget := e.cfg.WatchdogBudget
	if budget == 0 {
		// Default: generously above any legitimate same-instant burst
		// (every live transaction can transition a few times per instant).
		budget = 16*len(e.all) + 1024
	}
	for e.sim.Executed() < guard {
		if bounded {
			if next, ok := e.sim.NextAt(); !ok || next > bound {
				break
			}
		}
		if !e.sim.Step() {
			break
		}
		if e.oracle != nil && e.oracle.err != nil {
			return fmt.Errorf("core: oracle: %w", e.oracle.err)
		}
		if budget > 0 {
			if now := e.sim.Now(); now != e.wdStallAt {
				e.wdStallAt, e.wdStallCount = now, 0
			} else if e.wdStallCount++; e.wdStallCount > budget {
				return fmt.Errorf("core: watchdog: %s", e.stallDump(budget))
			}
		}
	}
	if bounded && bound > e.sim.Now() {
		// No events remain at or before bound; RunUntil only advances the
		// clock (the P-list/live-area integrals are unaffected — they
		// integrate from lastNote inside event handlers).
		e.sim.RunUntil(bound)
	}
	return nil
}

// FinishRun completes a stepped run: it verifies every transaction
// finished, drains the disks, runs the oracle's final checks, verifies the
// store and returns the run metrics. Run calls it internally; the shard
// runner calls it once per shard after the epoch loop terminates.
func (e *Engine) FinishRun() (metrics.Result, error) {
	if e.committed+e.dropped+e.rejected != len(e.all) {
		return metrics.Result{}, fmt.Errorf("core: %d/%d transactions finished after %d events (engine stall or guard too low)",
			e.committed+e.dropped+e.rejected, len(e.all), e.sim.Executed())
	}
	if len(e.disks) > 0 {
		// Drain any orphaned in-service accesses so busy time is complete.
		e.sim.Run()
		for _, d := range e.disks {
			e.run.DiskBusy += d.BusyTime()
			e.run.RetriedIO += d.Retried()
		}
		e.run.Disks = len(e.disks)
	}
	if e.oracle != nil {
		if err := e.oracle.finish(); err != nil {
			return metrics.Result{}, fmt.Errorf("core: oracle: %w", err)
		}
	}
	e.store.CheckClean()
	return e.run.Result(), nil
}

// SubmitSpec injects a dynamically arriving transaction at the current
// simulated instant — the shard runner's cross-shard hook: at an epoch
// boundary every participant shard receives its sub-transaction through
// here, in canonical order. spec.Arrival must equal the engine's current
// clock and spec.Deadline is absolute (under FirmDeadlines it must not be
// in the past, or the deadline event would be unschedulable). The spec is
// copied, not retained (addServiceTxn). done, when
// non-nil, is the transaction's completion slot (see Txn.done): it receives
// the terminal outcome inside the engine's event processing and must not
// block.
func (e *Engine) SubmitSpec(spec *workload.Spec, done func(ServiceOutcome, error)) *Txn {
	if got, now := spec.Arrival, time.Duration(e.sim.Now()); got != now {
		panic(fmt.Sprintf("core: SubmitSpec arrival %v != engine clock %v", got, now))
	}
	t := e.addServiceTxn(spec, done)
	e.onArrival(t)
	return t
}

// answer delivers a terminal transaction's outcome through its completion
// slot and, in service mode, retires it. A no-op for simulation transactions
// (no slot) and for one the slot already answered.
func (e *Engine) answer(t *Txn) {
	if t.done == nil {
		return
	}
	t.complete(outcomeOf(t), nil)
	if e.retires {
		e.retireServiceTxn(t)
	}
}

// stallDump renders the watchdog's diagnostic: where the calendar stuck
// and what every live transaction was doing, so a stall is debuggable from
// the error alone.
func (e *Engine) stallDump(budget int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "calendar stalled at t=%v: %d events executed without the clock advancing (budget %d); %d finished, %d live",
		time.Duration(e.sim.Now()), budget, budget, e.committed+e.dropped+e.rejected, e.live.n)
	counts := make(map[State]int)
	for t := e.live.head; t != nil; t = t.liveNext {
		counts[t.state]++
	}
	for st := stateReady; st <= StateRejected; st++ {
		if counts[st] > 0 {
			fmt.Fprintf(&b, "; %d %v", counts[st], st)
		}
	}
	const sample = 8
	for i, t := 0, e.live.head; t != nil; i, t = i+1, t.liveNext {
		if i >= sample {
			fmt.Fprintf(&b, "; … %d more", e.live.n-sample)
			break
		}
		fmt.Fprintf(&b, "; T%d %v item %d/%d", t.id(), t.state, t.next, len(t.spec.Items))
	}
	return b.String()
}

// diskFor returns the disk serving the given item (items stripe across
// disks by item number).
func (e *Engine) diskFor(it txn.Item) *disk.Disk {
	return e.disks[int(it)%len(e.disks)]
}

// PendingEvents returns the number of scheduled calendar events. The shard
// runner uses it for stall detection: an engine with live transactions but
// an empty calendar (and no future cross-shard input) can never finish.
func (e *Engine) PendingEvents() int { return e.sim.Pending() }

// TxnOutcomes returns every transaction's outcome in engine-ID order — the
// shard runner's bridge from shard-local transactions back to logical ones.
// Meaningful once the run has finished; recycled slots (wall-clock service
// only) are zero entries.
func (e *Engine) TxnOutcomes() []ServiceOutcome {
	out := make([]ServiceOutcome, len(e.all))
	for i, t := range e.all {
		if t != nil {
			out[i] = outcomeOf(t)
		}
	}
	return out
}

// History returns the recorded operation history, or nil when
// Config.RecordHistory is false.
func (e *Engine) History() *history.History { return e.hist }

// note integrates the P-list size up to the current instant; every event
// handler calls it before mutating state.
func (e *Engine) note() {
	now := e.sim.Now()
	if now > e.lastNote {
		e.run.PListArea += float64(len(e.ci.plist)) * float64(now-e.lastNote)
		e.run.LiveArea += float64(e.live.n) * float64(now-e.lastNote)
		e.lastNote = now
	}
}

// penaltyOfConflict returns the paper's TL for t: the effective service
// time (plus, optionally, rollback time) of every partially executed
// transaction that is unsafe or conditionally unsafe with respect to t —
// i.e. has accessed an item t might access. (Paper §3.3.1; the simulation
// mode treats unsafe and conditionally unsafe alike, as §4 does.)
//
// The conflict index walks only the partially executed holders of the
// items t might access.
func (e *Engine) penaltyOfConflict(t *Txn) time.Duration {
	return e.ci.penalty(e, t)
}

// serviceNow returns p's effective service time including the partial
// current CPU slice of a running transaction.
func (e *Engine) serviceNow(p *Txn) time.Duration {
	s := p.service
	if p.state == StateRunning && p.cpuEvent.Pending() {
		s += time.Duration(e.sim.Now() - p.sliceStart)
	}
	return s
}

// rollbackCost returns the CPU time to roll back v: the fixed abort cost,
// plus a share proportional to v's executed work when the
// recovery-proportional extension is enabled.
func (e *Engine) rollbackCost(v *Txn) time.Duration {
	c := e.cfg.AbortCost
	if e.cfg.RecoveryProportionalFactor > 0 {
		c += time.Duration(e.cfg.RecoveryProportionalFactor * float64(e.serviceNow(v)))
	}
	return c
}

// --- event handlers ---------------------------------------------------

func (e *Engine) onArrival(t *Txn) {
	e.note()
	if e.cfg.Admission.Mode != AdmitAll {
		if e.rejects(t) {
			// The transaction never enters the system: no live-set entry,
			// no deadline event, no locks. It counts as a miss.
			t.state = StateRejected
			e.rejected++
			e.run.Rejected++
			e.tracef("T%d rejected at arrival (%s, %d live)", t.id(), e.cfg.Admission.Mode, e.live.n)
			e.emit(trace.Event{Kind: trace.Reject, Txn: t.id(), Other: -1, Item: -1})
			if now := time.Duration(e.sim.Now()); now > e.run.Elapsed {
				e.run.Elapsed = now
			}
			e.answer(t)
			return
		}
		e.run.Admitted++
	}
	t.state = stateReady
	e.live.push(t)
	if e.tracksMight() {
		e.ci.mightAdd(e, t)
	}
	e.markStale(t)
	if e.trace != nil {
		e.tracef("T%d arrives (deadline %.1fms, %d items)", t.id(), ms(t.spec.Deadline), len(t.spec.Items))
	}
	e.emit(trace.Event{Kind: trace.Arrival, Txn: t.id(), Other: -1, Item: -1})
	if e.cfg.FirmDeadlines {
		if t.deadlineFn == nil {
			t.deadlineFn = func() { e.onDeadline(t) }
		}
		t.deadlineEvent = e.sim.At(sim.Time(t.spec.Deadline), t.deadlineFn)
	}
	e.reschedule()
}

// onUpdateDone fires when the current update's computation completes. Per
// the paper the scheduler is not re-invoked between updates; the
// transaction continues directly with its next item.
func (e *Engine) onUpdateDone(t *Txn) {
	e.note()
	elapsed := time.Duration(e.sim.Now() - t.sliceStart)
	t.cpuEvent = sim.Handle{}
	t.service += elapsed
	e.run.CPUBusy += elapsed
	t.remain = 0
	t.ioDone = false
	if e.fault != nil && e.fault.SpuriousAbort() {
		// The slice's CPU time is already accrued (and will be counted as
		// wasted service by abort); the update itself never applies.
		e.run.FaultAborts++
		e.tracef("T%d spuriously aborted by the fault plan (update %d/%d)", t.id(), t.next+1, len(t.spec.Items))
		e.abort(t)
		if e.rescheduleAgain && !e.inReschedule {
			e.reschedule()
		}
		return
	}
	e.applyUpdate(t)
	if t.mightNarrow != nil && t.next == t.spec.DecisionIndex {
		// The decision point has executed: the transaction is now
		// committed to its branch and its might-access set narrows
		// (paper §3.2.2 — "refinements of what we know about the
		// transaction's execution").
		e.setMight(t, false)
		e.tracef("T%d passes its decision point; might-set narrows", t.id())
	}
	t.next++
	e.startItem(t)
	// If the transaction blocked (IO or lock) or wounded victims whose
	// release woke waiters, the scheduler must run; if it simply moved on
	// to its next update, no scheduling point occurs (paper §3.3.2: the
	// scheduler is invoked on arrival, finish and IO wait only).
	if e.rescheduleAgain && !e.inReschedule {
		e.reschedule()
	}
}

func (e *Engine) onIODone(t *Txn, req *disk.Request) {
	e.note()
	if t.ioReq != req {
		// Stale completion: t was wounded while this access was in
		// service; the restart was deferred until the disk released
		// (paper §5).
		if t.state == StateAborting {
			t.state = stateReady
			e.tracef("T%d disk released after wound; restart ready", t.id())
			e.reschedule()
		}
		return
	}
	t.ioReq = nil
	if req.Failed() {
		// The access exhausted its transient-error retries: treat the
		// permanent failure as a media error that aborts (restarts) the
		// transaction. ioReq is already nil, so detach's IO branch no-ops
		// and the restart is immediate.
		e.run.FaultAborts++
		e.tracef("T%d IO failed permanently after %d retries; restarting", t.id(), req.Attempts())
		e.abort(t)
		e.reschedule()
		return
	}
	t.ioDone = true
	t.state = stateReady
	if e.trace != nil {
		e.tracef("T%d IO complete (item %d/%d)", t.id(), t.next+1, len(t.spec.Items))
	}
	e.emit(trace.Event{Kind: trace.IODone, Txn: t.id(), Other: -1, Item: t.spec.Items[t.next]})
	e.reschedule()
}

func (e *Engine) onRollbackDone(t *Txn, cost time.Duration) {
	e.note()
	t.cpuEvent = sim.Handle{}
	t.inRollback = false
	e.run.CPUBusy += cost
	e.run.RollbackTime += cost
	// serviceNow(t) counted the rollback section while it ran (cpuEvent
	// pending, sliceStart stale) and stops counting it here, at an instant
	// and generation a priority may already have been evaluated under: move
	// the memo key so penalties that include t are recomputed.
	e.reclockEval()
	e.proceedItem(t)
	e.reschedule()
}

// applyUpdate performs the completed update's data operation against the
// store (under the lock acquired at item start) and records it in the
// history when recording is enabled.
func (e *Engine) applyUpdate(t *Txn) {
	item, read := t.access()
	if read {
		e.store.Read(db.TxnID(t.id()), item)
	} else {
		e.store.Write(db.TxnID(t.id()), t.restarts, item)
	}
	if e.hist != nil {
		kind := history.Write
		if read {
			kind = history.Read
		}
		e.hist.Add(t.id(), item, kind, time.Duration(e.sim.Now()))
	}
}

// --- transaction execution --------------------------------------------

// startItem begins processing t's next update on its CPU: acquire the lock
// (wounding or waiting per policy), then perform the disk access and the
// computation.
func (e *Engine) startItem(t *Txn) {
	if t.next >= len(t.spec.Items) {
		e.commit(t)
		return
	}
	if ap, isAP := e.policy.(admissionPolicy); isAP && !t.ceilingExempt {
		if ok, _ := ap.admits(e, t); !ok {
			// Ceiling-blocked mid-run (PCP): yield the CPU; dispatch
			// re-evaluates admission at every scheduling point.
			e.run.LockWaits++
			e.tracef("T%d ceiling-blocked before item %d", t.id(), t.spec.Items[t.next])
			t.state = stateReady
			e.freeCPU(t)
			e.requestReschedule()
			return
		}
	}
	t.ceilingExempt = false
	item, read := t.access()
	var rollback time.Duration
	// Wounding a holder releases its locks, which can grant the item to a
	// queued waiter: the conflict set is re-read until it is empty.
	for {
		holders := e.conflicting(e.conflictBuf, t, item, read)
		e.conflictBuf = holders
		if len(holders) == 0 {
			break
		}
		woundAll := true
		for _, h := range holders {
			if !e.policy.wounds(e, t, h) {
				woundAll = false
				break
			}
		}
		if !woundAll {
			for _, h := range holders {
				e.notifyBlock(t, h)
			}
			e.block(t, item)
			return
		}
		for _, v := range holders {
			rollback += e.rollbackCost(v)
			e.tracef("T%d wounds T%d on item %d (victim service %.1fms)", t.id(), v.id(), item, ms(v.service))
			e.emit(trace.Event{Kind: trace.Wound, Txn: t.id(), Other: v.id(), Item: item,
				Priority: t.priority, OtherPriority: v.priority})
			e.notifyWound(t, v)
			e.abort(v)
		}
	}
	e.hasAcquired(t, item)
	if rollback > 0 {
		// The wounding transaction's CPU performs the rollback before
		// the update proceeds; the rollback section is not preemptable
		// (it is system recovery work, a few ms at most).
		t.inRollback = true
		t.pendingRollback = rollback
		t.cpuEvent = e.sim.After(rollback, t.rollbackDoneFn)
		return
	}
	e.proceedItem(t)
}

// proceedItem performs the disk access (if the update needs one and it has
// not happened yet) and then the computation for the current update.
func (e *Engine) proceedItem(t *Txn) {
	if t.next < len(t.spec.NeedsIO) && t.spec.NeedsIO[t.next] && !t.ioDone {
		req, gen := &disk.Request{Priority: t.priority, Tag: t}, t.gen
		req.Done = func() {
			if t.gen == gen { // else t retired with the access in service
				e.onIODone(t, req)
			}
		}
		t.ioReq = req
		t.state = StateIOWait
		e.freeCPU(t)
		e.diskFor(t.spec.Items[t.next]).Submit(req)
		if e.trace != nil {
			e.tracef("T%d blocks on IO (item %d/%d)", t.id(), t.next+1, len(t.spec.Items))
		}
		e.emit(trace.Event{Kind: trace.IOStart, Txn: t.id(), Other: -1, Item: t.spec.Items[t.next]})
		e.requestReschedule()
		return
	}
	t.remain = t.spec.Compute
	if e.fault != nil {
		// CPU jitter applies to fresh slices only; a preempted slice
		// resumes its drawn remainder, so the draw count is independent
		// of the preemption pattern.
		t.remain = e.fault.ComputeTime(t.remain)
	}
	t.sliceStart = e.sim.Now()
	t.cpuEvent = e.sim.After(t.remain, t.updateDoneFn)
}

// block suspends t on a data conflict over item (waiting baselines only).
func (e *Engine) block(t *Txn, item txn.Item) {
	e.run.LockWaits++
	t.state = StateLockWait
	e.freeCPU(t)
	e.enqueue(t)
	e.tracef("T%d blocks on item %d", t.id(), item)
	e.emit(trace.Event{Kind: trace.Block, Txn: t.id(), Other: -1, Item: item, Priority: t.priority})
	if e.policy.inherits() {
		e.propagateInheritance(t)
	}
	// Deadlock detection runs for every policy that can block. Under
	// EDF-HP and FCFS waits always point at strictly higher-priority
	// holders, so no cycle can form (the integration tests assert the
	// counter stays zero); under EDF-WP — and under LSF-HP, whose
	// continuously re-evaluated priorities can invert a wait edge after
	// it is created — cycles are possible and are resolved by aborting
	// the lowest-priority member.
	if cycle := e.detectCycle(t); len(cycle) > 0 {
		e.resolveDeadlock(cycle)
	}
	e.requestReschedule()
}

// propagateInheritance floors the priority of every transaction t
// transitively waits on at t's priority (Wait Promote).
func (e *Engine) propagateInheritance(t *Txn) {
	seen := make(map[*Txn]bool)
	var walk func(v *Txn)
	walk = func(v *Txn) {
		for _, ht := range e.waitsFor(v) {
			if seen[ht] {
				continue
			}
			seen[ht] = true
			if t.priority > ht.inherited {
				ht.inherited = t.priority
				e.markStale(ht)
			}
			walk(ht)
		}
	}
	walk(t)
}

// resolveDeadlock aborts the lowest-priority transaction on the cycle.
func (e *Engine) resolveDeadlock(cycle []*Txn) {
	e.run.Deadlocks++
	victim := cycle[0]
	for _, c := range cycle[1:] {
		if less(victim, c) {
			victim = c
		}
	}
	e.tracef("deadlock: aborting T%d (cycle of %d)", victim.id(), len(cycle))
	e.emit(trace.Event{Kind: trace.Deadlock, Txn: victim.id(), Other: -1, Item: -1})
	e.abort(victim)
}

// commit finishes t: release its locks (waking granted waiters), record the
// lateness statistics, and invoke the scheduler (tr-finish-schedule).
func (e *Engine) commit(t *Txn) {
	t.state = StateCommitted
	t.finish = e.sim.Now()
	e.freeCPU(t)
	e.store.Commit(db.TxnID(t.id()))
	if e.hist != nil {
		e.hist.Commit(t.id(), time.Duration(t.finish))
	}
	e.releaseLocks(t)
	e.removeLive(t)
	e.committed++
	e.run.Observe(t.spec.Class, t.spec.Arrival, time.Duration(t.finish), t.spec.Deadline)
	if o, ok := e.policy.(commitObserver); ok {
		o.observeCommit(e, t, time.Duration(t.finish) > t.spec.Deadline)
	}
	e.notifyTerminal(t, true, time.Duration(t.finish) > t.spec.Deadline)
	e.run.Elapsed = time.Duration(t.finish)
	if e.trace != nil {
		e.tracef("T%d commits (lateness %.1fms, restarts %d)", t.id(), ms(time.Duration(t.finish)-t.spec.Deadline), t.restarts)
	}
	e.emit(trace.Event{Kind: trace.Commit, Txn: t.id(), Other: -1, Item: -1, Priority: t.priority})
	e.answer(t)
	e.requestReschedule()
	if !e.inReschedule {
		e.reschedule()
	}
}

// onDeadline fires at a transaction's deadline in firm mode: if it has not
// committed, it is aborted and discarded — a late result has no value.
func (e *Engine) onDeadline(t *Txn) {
	if t.state == StateCommitted || t.state == StateDropped {
		return
	}
	e.note()
	e.drop(t)
	e.reschedule()
}

// drop discards t (firm-deadline mode): everything it holds or waits for is
// released, its effects are undone, and it never restarts.
func (e *Engine) drop(t *Txn) {
	e.tracef("T%d dropped at its deadline", t.id())
	e.detach(t)
	e.store.Abort(db.TxnID(t.id()))
	if e.hist != nil {
		e.hist.Abort(t.id())
	}
	e.releaseLocks(t) // before has.clear: releasing reads the has-set
	t.cpuEvent = sim.Handle{}
	t.ioReq = nil
	t.has.clear()
	t.state = StateDropped
	e.removeLive(t)
	e.dropped++
	e.run.Dropped++
	if o, ok := e.policy.(commitObserver); ok {
		o.observeCommit(e, t, true)
	}
	e.notifyTerminal(t, false, true)
	now := time.Duration(e.sim.Now())
	if now > e.run.Elapsed {
		e.run.Elapsed = now
	}
	e.answer(t)
	e.requestReschedule()
}

// detach cancels whatever v is currently doing (CPU slice, rollback
// section, lock wait or disk access) without deciding its fate; abort and
// drop share it.
func (e *Engine) detach(v *Txn) {
	switch v.state {
	case StateRunning:
		if v.inRollback {
			elapsed := time.Duration(e.sim.Now() - v.sliceStart)
			e.run.CPUBusy += elapsed
			e.run.RollbackTime += elapsed
			e.sim.Cancel(v.cpuEvent)
			v.cpuEvent = sim.Handle{}
			v.inRollback = false
			e.freeCPU(v)
			v.state = stateReady
		} else {
			e.preempt(v)
		}
	case StateLockWait:
		e.cancelWait(v)
	case StateIOWait:
		if v.ioReq != nil && !v.ioReq.InService() {
			// Queued, or waiting out a transient-error retry backoff:
			// either way the disk can drop it immediately.
			e.diskFor(v.spec.Items[v.next]).Cancel(v.ioReq)
			v.ioReq = nil
		}
		// An in-service access keeps the disk busy; its completion is
		// ignored via the stale-request check.
	}
}

// abort wounds v: cancel whatever it is doing, release its locks, charge
// the bookkeeping, and rewind it for restart. A victim whose disk access is
// in service keeps the disk busy and completes its restart at IO
// completion (paper §5).
func (e *Engine) abort(v *Txn) {
	if v.state == StateCommitted || v.state == StateAborting {
		panic(fmt.Sprintf("core: aborting T%d in state %v", v.id(), v.state))
	}
	e.run.Restarts++
	e.run.WastedService += e.serviceNow(v)
	if v.ranAsSecondary {
		e.run.NoncontributingAborts++
	}
	v.restarts++
	e.notifyRestart(v)

	deferRestart := v.state == StateIOWait && v.ioReq != nil && v.ioReq.InService()
	e.detach(v)
	e.store.Abort(db.TxnID(v.id()))
	if e.hist != nil {
		e.hist.Abort(v.id())
	}
	e.releaseLocks(v) // before resetForRestart clears the has-set
	if v.mightNarrow != nil {
		// A restarted transaction is back before its decision point; its
		// might-set re-widens (no-op if it never narrowed).
		e.setMight(v, true)
	}
	v.resetForRestart()
	if v.inherited != negInf {
		v.inherited = negInf
		e.markStale(v)
	}
	if deferRestart {
		v.state = StateAborting
	}
	e.requestReschedule()
}

// preempt takes v off its CPU mid-computation, accruing the partial slice.
func (e *Engine) preempt(v *Txn) {
	if v.inRollback {
		panic(fmt.Sprintf("core: preempting T%d during rollback", v.id()))
	}
	if v.cpuEvent.Pending() {
		e.sim.Cancel(v.cpuEvent)
		v.cpuEvent = sim.Handle{}
		elapsed := time.Duration(e.sim.Now() - v.sliceStart)
		v.remain -= elapsed
		v.service += elapsed
		e.run.CPUBusy += elapsed
	}
	e.freeCPU(v)
	v.state = stateReady
}

func (e *Engine) freeCPU(t *Txn) {
	if t.cpu >= 0 {
		e.slots[t.cpu] = nil
		t.cpu = -1
	}
}

// hasAcquired records that t now holds item, in its has-set and in the
// conflict index. A woken transaction re-runs startItem on the item it was
// granted, and that second acquisition is a no-op.
func (e *Engine) hasAcquired(t *Txn, item txn.Item) {
	if t.has.contains(item) {
		return
	}
	if t.has == nil {
		// A submitted transaction gets its has-set on its first lock: one
		// that never runs — a parked backlog — never pays for it.
		t.has = e.serviceBitset()
	}
	t.has.add(item)
	e.ci.hasAdd(e, t, item)
}

// setMight switches a decision-point transaction's current might-access set
// to the narrow (executed-path) or the full (both-branch) one. Only t's own
// penalty depends on t.might, so only t is queued for re-evaluation.
func (e *Engine) setMight(t *Txn, full bool) {
	b, items := t.mightNarrow, t.items
	if full {
		b, items = t.mightFull, t.fullItems
	}
	if &t.might[0] == &b[0] {
		return // a restart before the decision point: nothing had narrowed
	}
	if e.tracksMight() {
		e.ci.mightRemove(e, t)
	}
	t.might, t.mightItems = b, items
	if e.tracksMight() {
		e.ci.mightAdd(e, t)
	}
	t.evalValid = false
	e.markStale(t)
}

// tracksMight reports whether the conflict index keeps its item → might
// mirror: only the evalConflictClocked pass reads it.
func (e *Engine) tracksMight() bool { return e.evalMode == evalConflictClocked }

// markStale queues t for the next dispatch pass to refresh its priority.
// The evalDynamic full sweep refreshes everything anyway and keeps no queue.
func (e *Engine) markStale(t *Txn) {
	if e.evalMode != evalDynamic {
		e.pending = append(e.pending, t)
	}
}

// removeLive takes a finished transaction out of the live list, the ranked
// order and the might index.
func (e *Engine) removeLive(t *Txn) {
	if t.ranked {
		e.rankedRemove(t)
	}
	if e.tracksMight() {
		e.ci.mightRemove(e, t)
	}
	e.live.remove(t)
}

// --- scheduler ---------------------------------------------------------

// less orders transactions for dispatch: higher criticality first, then
// higher priority, then earlier arrival (lower ID) for determinism.
func less(a, b *Txn) bool {
	if a.spec.Criticality != b.spec.Criticality {
		return a.spec.Criticality > b.spec.Criticality
	}
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	return a.id() < b.id()
}

// requestReschedule marks that the scheduler must run again; used by
// transitions that happen inside a dispatch pass.
func (e *Engine) requestReschedule() { e.rescheduleAgain = true }

// reschedule is the single scheduling entry point, implementing the
// paper's tr-arrival-schedule, tr-finish-schedule and IOwait-schedule with
// one uniform rule:
//
//   - every live transaction's priority is re-evaluated (continuous
//     evaluation);
//   - the CPU(s) run the highest-priority dispatchable transactions, except
//     that when the overall highest-priority transaction is blocked,
//     policies with filtersIOWait (CCA) only dispatch transactions that do
//     not conflict with any partially executed transaction.
//
// Dispatching can immediately block the dispatched transaction (IO or lock
// wait) or wound victims whose release wakes waiters, so the pass loops
// until no transition happens.
func (e *Engine) reschedule() {
	if e.inReschedule {
		e.rescheduleAgain = true
		return
	}
	e.inReschedule = true
	for pass := 0; ; pass++ {
		if pass > 4*len(e.all)+64 {
			panic("core: reschedule did not converge")
		}
		e.rescheduleAgain = false
		e.dispatchPass()
		if !e.rescheduleAgain {
			break
		}
	}
	e.inReschedule = false
	if e.cfg.CheckInvariants {
		e.checkInvariants()
	}
}

// dispatchPass is the incremental, allocation-free scheduling pass. It
// computes what re-evaluating and re-sorting every live transaction would —
// verifyPriorities checks the priorities at every pass under
// Config.CheckInvariants, the recorded equivalence digests pin the schedules
// — at a cost set by what changed since the last pass, not by the size of the
// live set:
//
//   - refreshPriorities re-evaluates only the transactions whose priority
//     the policy's staticness contract allows to have moved, and re-keys
//     only those whose priority did move, by binary search in e.ranked;
//   - the pass walks e.ranked from the best and stops as soon as every CPU
//     has an occupant, instead of filtering the whole order into a pool;
//   - pinned rollbacks are found on the CPUs (a running transaction is in a
//     slot by definition), not by sweeping the live set.
func (e *Engine) dispatchPass() {
	e.passes++
	e.refreshPriorities()
	if e.cfg.CheckInvariants {
		e.verifyPriorities()
	}

	// The globally highest-priority live transaction (TH), whatever its
	// state: the paper's invariant is that the CPU runs TH, or — if TH is
	// blocked — under CCA only transactions compatible with the P-list. It is
	// the first non-aborting member of the ranked order, walked from its best
	// (tail) end.
	var top *Txn
	for i := len(e.ranked) - 1; i >= 0; i-- {
		if t := e.ranked[i]; t.state != StateAborting {
			top = t
			break
		}
	}
	if top == nil {
		return
	}

	// Choose the desired occupants, marking membership with the pass stamp:
	// first the transactions pinned to their CPU by a rollback section
	// (their order among themselves is immaterial — they are never
	// dispatched, only counted and tested for compatibility), then the best
	// dispatchable transactions in ranked order.
	e.passStamp++
	stamp := e.passStamp
	slots := len(e.slots)
	desired := e.desiredBuf[:0]
	for _, s := range e.slots {
		if s != nil && s.state == StateRunning && s.inRollback {
			s.desiredStamp = stamp
			desired = append(desired, s)
		}
	}
	filter := e.policy.filtersIOWait()
	admission, hasAdmission := e.policy.(admissionPolicy)
	for i := len(e.ranked) - 1; i >= 0 && len(desired) < slots; i-- {
		c := e.ranked[i]
		if !dispatchable(c) {
			continue
		}
		if c != top && filter && !e.compatible(c, desired) {
			continue
		}
		if hasAdmission && c.state != StateRunning {
			ok, changed := admission.admits(e, c)
			if changed {
				// Inheritance was applied: re-rank so the promoted
				// holder gets the CPU.
				e.rescheduleAgain = true
			}
			if !ok {
				continue // ceiling-blocked
			}
		}
		c.desiredStamp = stamp
		desired = append(desired, c)
	}

	// Progress override for admission policies (PCP): classic PCP assumes
	// no self-suspension and a static claim set, but disk IO suspends lock
	// holders mid-region and new arrivals raise ceilings after entry, so two
	// entered holders can end up mutually ceiling-blocked. When nothing at
	// all is admitted, dispatch the best lock-holding candidate (else the
	// best) anyway; direct conflicts then resolve by inheritance waits, with
	// the deadlock detector as backstop.
	if hasAdmission && len(desired) == 0 {
		var best *Txn
		for i := len(e.ranked) - 1; i >= 0; i-- {
			c := e.ranked[i]
			if !dispatchable(c) {
				continue
			}
			if best == nil {
				best = c
			}
			if c.has.any() {
				best = c
				break
			}
		}
		if best != nil {
			e.tracef("T%d dispatched by PCP progress override", best.id())
			best.ceilingExempt = true
			best.desiredStamp = stamp
			desired = append(desired, best)
		}
	}
	e.desiredBuf = desired

	// Preempt running transactions that lost their slot.
	for _, s := range e.slots {
		if s != nil && s.desiredStamp != stamp {
			e.tracef("T%d preempted", s.id())
			e.emit(trace.Event{Kind: trace.Preempt, Txn: s.id(), Other: -1, Item: -1, Priority: s.priority})
			e.preempt(s)
		}
	}

	// Dispatch the rest onto free slots.
	for _, d := range desired {
		if d.state == StateRunning {
			continue
		}
		slot := -1
		for i, s := range e.slots {
			if s == nil {
				slot = i
				break
			}
		}
		if slot < 0 {
			panic("core: no free CPU for desired transaction")
		}
		e.dispatch(d, slot, d != top && blocked(top))
		if d.state != StateRunning {
			// The dispatch immediately blocked or committed; the
			// pass must be recomputed.
			return
		}
	}
}

// dispatchable reports whether c may be given (or keep) a CPU.
func dispatchable(c *Txn) bool {
	return c.state == stateReady || (c.state == StateRunning && !c.inRollback)
}

// refreshPriorities is the pass's continuous evaluation, restricted to the
// transactions whose priority the staticness contract (policy.go) allows to
// have moved since the last pass: the pending queue — which includes every
// transaction that left the hot set since, so one whose last penaliser
// went falls back to its constant — and, for evalConflictClocked, the
// conflict index's hot set, whose members are re-evaluated when the clock
// or the generation moved; for evalDynamic every live transaction, in
// arrival order. Every stored value is the result of a
// real evaluate call; one is skipped only where the contract says it would
// return what is already stored. With no conflict in the system the hot
// set is empty and a pass evaluates its arrivals and nothing else.
func (e *Engine) refreshPriorities() {
	now := e.sim.Now()
	if e.evalMode == evalDynamic {
		moved := false
		for t := e.live.head; t != nil; t = t.liveNext {
			e.evals++
			t.basePr = e.policy.evaluate(e, t)
			pr := t.flooredPriority()
			if !t.ranked {
				t.ranked = true
				e.ranked = append(e.ranked, t)
			} else if pr == t.priority {
				continue
			}
			t.priority = pr
			moved = true
		}
		if moved {
			e.restoreRanked()
		}
		return
	}

	gen := e.ci.gen
	for _, t := range e.pending {
		if !t.inLive {
			continue
		}
		if !t.evalValid {
			e.evaluate(t, now, gen)
		}
		e.rekey(t)
	}
	clear(e.pending)
	e.pending = e.pending[:0]
	if e.evalMode != evalConflictClocked {
		return
	}
	for _, t := range e.ci.hot {
		if t.evalAt != now || t.evalGen != gen {
			e.evaluate(t, now, gen)
			e.rekey(t)
		}
	}
}

func (e *Engine) evaluate(t *Txn, now sim.Time, gen uint64) {
	e.evals++
	t.basePr = e.policy.evaluate(e, t)
	t.evalValid = true
	t.evalAt, t.evalGen = now, gen
}

// flooredPriority is the effective priority: the policy's value, floored at
// the priority inherited from waiters (negInf unless the policy inherits).
func (t *Txn) flooredPriority() float64 {
	if t.inherited > t.basePr {
		return t.inherited
	}
	return t.basePr
}

// rekey moves t to the place in the ranked order its effective priority
// calls for: removed under the old key, before the priority is overwritten,
// and reinserted under the new one.
func (e *Engine) rekey(t *Txn) {
	pr := t.flooredPriority()
	if t.ranked {
		if pr == t.priority {
			return
		}
		e.rankedRemove(t)
	}
	t.priority = pr
	i := e.rankedSearch(t)
	e.ranked = append(e.ranked, nil)
	copy(e.ranked[i+1:], e.ranked[i:])
	e.ranked[i] = t
	t.ranked = true
}

// rankedSearch returns the position t holds, or would take, in the ranked
// order: the first index whose occupant is not worse than t. less is a
// strict total order (ID tie-break), so a member is found exactly.
func (e *Engine) rankedSearch(t *Txn) int {
	lo, hi := 0, len(e.ranked)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		e.rankCompares++
		if less(t, e.ranked[mid]) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (e *Engine) rankedRemove(t *Txn) {
	i := e.rankedSearch(t)
	if i == len(e.ranked) || e.ranked[i] != t {
		panic(fmt.Sprintf("core: T%d not at its place in the ranked order", t.id()))
	}
	e.ranked = slices.Delete(e.ranked, i, i+1)
	t.ranked = false
}

// restoreRanked re-establishes the ranked order after a full sweep
// overwrote priorities in place (evalDynamic): one insertion pass, linear
// when the sweep preserved the order — LSF's slack shrinks uniformly — and
// proportional to the displacement otherwise.
func (e *Engine) restoreRanked() {
	r := e.ranked
	for i := 1; i < len(r); i++ {
		t := r[i]
		j := i
		for ; j > 0 && less(r[j-1], t); j-- {
			r[j] = r[j-1]
		}
		r[j] = t
	}
}

// blocked reports whether the globally top transaction cannot use a CPU.
func blocked(top *Txn) bool {
	return top.state == StateIOWait || top.state == StateLockWait
}

// compatible reports whether c conflicts with no partially executed
// transaction (the IOwait-schedule admission test) and, on a
// multiprocessor, with no already-chosen peer. The test intersects against
// the P-list only (average size 1–2 per the paper), not every live
// transaction.
func (e *Engine) compatible(c *Txn, desired []*Txn) bool {
	for _, p := range e.ci.plist {
		if p != c && p.might.intersects(c.might) {
			return false
		}
	}
	for _, d := range desired {
		if d != c && d.might.intersects(c.might) {
			return false
		}
	}
	return true
}

// dispatch puts t on a CPU and resumes or starts its work.
func (e *Engine) dispatch(t *Txn, slot int, asSecondary bool) {
	t.state = StateRunning
	t.cpu = slot
	e.slots[slot] = t
	if asSecondary {
		t.ranAsSecondary = true
		e.tracef("T%d dispatched as secondary", t.id())
	}
	e.emit(trace.Event{Kind: trace.Dispatch, Txn: t.id(), Other: -1, Item: -1,
		Priority: t.priority, Secondary: asSecondary})
	if t.remain > 0 {
		// Resume the interrupted computation.
		t.sliceStart = e.sim.Now()
		t.cpuEvent = e.sim.After(t.remain, t.updateDoneFn)
		return
	}
	e.startItem(t)
}

// --- invariants ---------------------------------------------------------

// verifyPriorities is the per-scheduling-point reference check, run under
// Config.CheckInvariants right after refreshPriorities: whatever the memo
// skipped, every live transaction must hold the priority continuous
// evaluation defines — a fresh evaluate, floored at the inherited priority —
// and the index's penalty must equal the full scan. evalDynamic policies
// re-evaluate everything every pass already (and AED's evaluate draws random
// numbers), so they are left out. evaluate is called directly: e.evals, which
// the cost tests read, does not move.
func (e *Engine) verifyPriorities() {
	if e.evalMode == evalDynamic {
		return
	}
	if e.evalMode == evalConflictClocked {
		e.ci.verifyHot(e)
	}
	for t := e.live.head; t != nil; t = t.liveNext {
		if got, want := e.ci.penalty(e, t), e.penaltyOfConflictScan(t); got != want {
			panic(fmt.Sprintf("core: T%d index penalty %v, full scan %v", t.id(), got, want))
		}
		fresh := e.policy.evaluate(e, t)
		if t.inherited > fresh {
			fresh = t.inherited
		}
		if t.priority != fresh {
			panic(fmt.Sprintf("core: T%d stored priority %f, fresh %f (evaluated at %v gen %d, now %v gen %d)",
				t.id(), t.priority, fresh, t.evalAt, t.evalGen, e.sim.Now(), e.ci.gen))
		}
	}
}

// penaltyOfConflictScan is penaltyOfConflict by definition — every partially
// executed live transaction whose has-set meets t's might-set — in
// O(live × DBSize/64): the reference the conflict index is checked against.
func (e *Engine) penaltyOfConflictScan(t *Txn) time.Duration {
	var sum time.Duration
	for p := e.live.head; p != nil; p = p.liveNext {
		if p == t || !p.partiallyExecuted() {
			continue
		}
		if p.has.intersects(t.might) {
			sum += e.serviceNow(p)
			if e.cfg.penaltyIncludesRollback {
				sum += e.rollbackCost(p)
			}
		}
	}
	return sum
}

// checkInvariants asserts engine-wide consistency; it is enabled by
// Config.CheckInvariants and exercised heavily by the test suite. The
// checks encode the paper's theorems: no lock waits under CCA (Theorem 1:
// deadlock freedom via no-wait) and wound edges only from higher to lower
// priority under the HP baselines.
func (e *Engine) checkInvariants() {
	e.ci.verify(e)
	e.verifyLocks()
	// ranked mirrors live's membership and, between scheduling points, stays
	// sorted by the stored priorities (nothing mutates a priority outside the
	// dispatch pass, and the pass re-keys on any change).
	if len(e.ranked) != e.live.n {
		panic(fmt.Sprintf("core: ranked has %d members, live has %d", len(e.ranked), e.live.n))
	}
	for i, t := range e.ranked {
		if !t.inLive || !t.ranked {
			panic(fmt.Sprintf("core: ranked member T%d not live", t.id()))
		}
		if i > 0 && !less(t, e.ranked[i-1]) {
			panic(fmt.Sprintf("core: ranked order violated at %d (T%d below T%d)", i, e.ranked[i-1].id(), t.id()))
		}
	}
	occupied := make(map[int]bool)
	for i, s := range e.slots {
		if s == nil {
			continue
		}
		if s.state != StateRunning {
			panic(fmt.Sprintf("core: slot %d occupant T%d in state %v", i, s.id(), s.state))
		}
		if s.cpu != i {
			panic(fmt.Sprintf("core: slot %d occupant T%d thinks it is on %d", i, s.id(), s.cpu))
		}
		if occupied[s.id()] {
			panic(fmt.Sprintf("core: T%d on two CPUs", s.id()))
		}
		occupied[s.id()] = true
	}
	n := 0
	for t := e.live.head; t != nil; t = t.liveNext {
		n++
		switch t.state {
		case StateRunning:
			if t.cpu < 0 || e.slots[t.cpu] != t {
				panic(fmt.Sprintf("core: running T%d not on its slot", t.id()))
			}
		case stateReady, StateIOWait, StateLockWait, StateAborting:
			if t.cpu >= 0 {
				panic(fmt.Sprintf("core: non-running T%d holds CPU %d", t.id(), t.cpu))
			}
		case StateCommitted:
			panic(fmt.Sprintf("core: committed T%d still live", t.id()))
		}
		if t.state == StateLockWait && isCCAFamily(e.policy.kind()) {
			panic("core: Theorem 1 violated — lock wait under CCA")
		}
		if t.state == StateAborting && t.has.any() {
			panic(fmt.Sprintf("core: aborting T%d still holds items", t.id()))
		}
		// Pending store writes never exceed processed updates.
		if e.store.Pending(db.TxnID(t.id())) > t.next {
			panic(fmt.Sprintf("core: T%d has %d pending writes after %d updates", t.id(), e.store.Pending(db.TxnID(t.id())), t.next))
		}
	}
	if n != e.live.n {
		panic(fmt.Sprintf("core: live list links %d transactions, counts %d", n, e.live.n))
	}
	if isCCAFamily(e.policy.kind()) && e.run.LockWaits > 0 {
		panic("core: Theorem 1 violated — CCA recorded lock waits")
	}
	// With exclusive locks only, EDF-HP/FCFS waits always point at
	// strictly higher-priority holders, so cycles are impossible. Shared
	// locks break the argument: a requester facing mixed-priority
	// co-holders waits on the lower-priority ones too, and such waits can
	// cycle — a genuine (and resolved) deadlock, not an engine bug.
	if !e.hasReads && (e.policy.kind() == EDFHP || e.policy.kind() == FCFS) && e.run.Deadlocks > 0 {
		panic("core: deadlock under a static-priority HP policy with exclusive locks")
	}
}
