package core

import (
	"fmt"
	"time"

	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/txn"
	"repro/internal/workload"
)

// State is a transaction's lifecycle state inside the engine.
type State int

const (
	// stateReady: runnable, waiting for a CPU.
	stateReady State = iota
	// StateRunning: occupying a CPU.
	StateRunning
	// StateIOWait: blocked on a disk access.
	StateIOWait
	// StateLockWait: blocked on a data conflict (waiting baselines only;
	// never entered under CCA — Theorem 1).
	StateLockWait
	// StateAborting: wounded while its disk access was in service; the
	// restart completes when the disk is released (paper §5).
	StateAborting
	// StateCommitted: finished.
	StateCommitted
	// StateDropped: discarded at its deadline (firm-deadline mode only).
	StateDropped
	// StateRejected: turned away at arrival by the admission controller
	// (Config.Admission); the transaction never entered the system.
	StateRejected
)

// String names the state.
func (s State) String() string {
	switch s {
	case stateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateIOWait:
		return "io-wait"
	case StateLockWait:
		return "lock-wait"
	case StateAborting:
		return "aborting"
	case StateCommitted:
		return "committed"
	case StateDropped:
		return "dropped"
	case StateRejected:
		return "rejected"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Txn is the runtime representation of one transaction instance.
type Txn struct {
	// spec is the generated workload description (items, deadline, ...).
	spec *workload.Spec

	state State
	// next indexes the update currently being processed.
	next int
	// remain is the CPU time left in the current update's computation
	// (> 0 when resuming after preemption mid-update).
	remain time.Duration
	// ioDone records that the current update's disk access has completed.
	ioDone bool
	// service is the accumulated effective service time (CPU work that
	// an abort would throw away).
	service time.Duration
	// restarts counts aborts of this transaction.
	restarts int
	// inRollback pins the transaction to its CPU while it performs
	// rollback work on behalf of wounded victims.
	inRollback bool
	// ranAsSecondary records that the transaction was ever dispatched
	// while a higher-priority transaction was blocked (for the
	// noncontributing-execution statistic).
	ranAsSecondary bool
	// ceilingExempt is a one-shot pass around a ceiling-admission check,
	// set by the PCP progress override (see dispatchPass) and consumed
	// by the next startItem.
	ceilingExempt bool

	sliceStart sim.Time
	cpuEvent   sim.Handle
	ioReq      *disk.Request
	cpu        int // CPU slot while running, -1 otherwise

	// updateDoneFn and rollbackDoneFn are the transaction's recurring event
	// callbacks, built once per object (initTxn) so the hot path schedules
	// tens of thousands of events without allocating a closure per event.
	// rollbackDoneFn reads pendingRollback, set just before scheduling.
	// deadlineFn is the firm-deadline callback, built at the object's first
	// firm arrival; deadlineEvent is the pending one, cancelled at retire.
	updateDoneFn    func()
	rollbackDoneFn  func()
	deadlineFn      func()
	deadlineEvent   sim.Handle
	pendingRollback time.Duration

	// might is the current might-access set: mightFull before the
	// decision point, mightNarrow after it (flat transactions use a
	// single set throughout).
	might bitset
	// mightFull is the pessimistic pre-decision might-access set.
	mightFull bitset
	// mightNarrow is the post-decision might-access set (the executed
	// path); nil for flat transactions.
	mightNarrow bitset
	// has is the set of items accessed (locked) so far.
	has bitset
	// items and fullItems list Spec.Items and Spec.MightFull without
	// repeats (the spec's own slice when it has none), and mightItems is
	// whichever of them lists the current might-set. The conflict index
	// walks these lists — a handful of items — where walking the bitsets
	// would cost DBSize/64 words per visit.
	items, fullItems, mightItems []txn.Item

	// Conflict-index state:
	//
	// plistIdx is this transaction's position on the index's P-list slice,
	// or -1 while it has accessed nothing.
	plistIdx int
	// seenStamp marks the last penalty walk that visited this transaction
	// (deduplicates holders of several overlapping items).
	seenStamp uint64

	// priority is the value from the last continuous-evaluation pass
	// (higher runs first).
	priority float64
	// waitPr is the priority t had when it blocked: its place in the wait
	// queue of the item its current update locks (locks.go).
	waitPr float64
	// inherited is the floor priority received from waiters under the
	// Wait Promote baseline.
	inherited float64

	// Incremental-dispatch state:
	//
	// basePr is the policy's own evaluate value from the last evaluation
	// (before the inherited-priority floor is applied).
	basePr float64
	// evalValid marks basePr as usable. It is false for a fresh arrival,
	// after Engine.setMight and on leaving the hot set; for evalStatic
	// policies a valid basePr is final for the transaction's whole life.
	evalValid bool
	// evalAt/evalGen key basePr for evalConflictClocked policies (CCA): the
	// value is provably unchanged while the simulated clock and the
	// conflict-index generation both stand still.
	evalAt  sim.Time
	evalGen uint64
	// ranked records membership in Engine.ranked (false between arrival and
	// the first dispatch pass).
	ranked bool
	// hotRefs counts the (item, holder) pairs with the item in this
	// transaction's might-set and another transaction holding it; while it
	// is positive the transaction sits in the conflict index's hot set, at
	// position hotIdx.
	hotRefs, hotIdx int
	// desiredStamp marks membership in the dispatch pass identified by
	// Engine.passStamp — an O(1) replacement for scanning the desired set.
	desiredStamp uint64

	// liveNext/livePrev link the engine's arrival-ordered live list;
	// inLive records membership.
	liveNext, livePrev *Txn
	inLive             bool

	finish sim.Time

	// done is the transaction's one completion slot: nil for every
	// simulation run (the virtual-time path is untouched), set for a
	// dynamically submitted transaction. It receives either the terminal
	// outcome (committed, dropped or rejected) on the engine's driver
	// goroutine — it must not block — or the error of the driver-failure
	// sweep. complete empties the slot before calling it, which is the one
	// place "answered exactly once" is enforced.
	done func(ServiceOutcome, error)
	// gen counts the object's retirements (retireServiceTxn; always 0 in a
	// simulation). A reference that can outlive the transaction — a
	// SubmitHandle, a disk completion — records the generation it was taken
	// at and is void once the object has moved on to its next occupant.
	gen uint64
}

// serviceTxn is a submitted transaction's one allocation: the Txn and the
// Spec it points at for life, so a recycled object brings its spec storage
// (and the Items/Reads/NeedsIO arrays behind it) along.
type serviceTxn struct {
	Txn
	specBuf workload.Spec
}

// complete answers the transaction through its completion slot, at most
// once: whichever of the terminal path and the failure sweep gets here
// first finds the slot armed, every later call finds it empty.
func (t *Txn) complete(o ServiceOutcome, err error) {
	if done := t.done; done != nil {
		t.done = nil
		done(o, err)
	}
}

// liveList is the set of arrived, unfinished transactions in arrival order:
// an intrusive doubly linked list, so a departure unlinks in O(1) while
// every sweep still visits transactions in the order they arrived.
type liveList struct {
	head, tail *Txn
	n          int
}

func (l *liveList) push(t *Txn) {
	t.livePrev, t.liveNext = l.tail, nil
	if l.tail != nil {
		l.tail.liveNext = t
	} else {
		l.head = t
	}
	l.tail = t
	t.inLive = true
	l.n++
}

func (l *liveList) remove(t *Txn) {
	if t.livePrev != nil {
		t.livePrev.liveNext = t.liveNext
	} else {
		l.head = t.liveNext
	}
	if t.liveNext != nil {
		t.liveNext.livePrev = t.livePrev
	} else {
		l.tail = t.livePrev
	}
	t.livePrev, t.liveNext = nil, nil
	t.inLive = false
	l.n--
}

// id returns the transaction instance ID.
func (t *Txn) id() int { return t.spec.ID }

// partiallyExecuted reports whether the transaction belongs to the paper's
// P-list: it has accessed at least one data item and has not committed.
func (t *Txn) partiallyExecuted() bool {
	return t.state != StateCommitted && t.has.any()
}

// remainingStatic returns the isolated CPU time still needed (the engine's
// LSF slack estimate).
func (t *Txn) remainingStatic() time.Duration {
	rem := t.remain
	if t.remain == 0 && t.next < len(t.spec.Items) && t.state != StateCommitted {
		// The current update's compute has not started.
		rem = t.spec.Compute
	}
	if t.next < len(t.spec.Items) {
		rem += time.Duration(len(t.spec.Items)-t.next-1) * t.spec.Compute
	}
	return rem
}

// resetForRestart rewinds the transaction to its beginning after an abort.
// The deadline, item list and IO draws are unchanged: the paper's soft
// real-time model re-executes the same transaction. (Engine.abort re-widens
// a narrowed might-set first, through setMight, so the index follows.)
func (t *Txn) resetForRestart() {
	t.next = 0
	t.remain = 0
	t.ioDone = false
	t.service = 0
	t.inRollback = false
	t.ranAsSecondary = false
	t.ceilingExempt = false
	t.has.clear()
	t.cpuEvent = sim.Handle{}
	t.ioReq = nil
	t.cpu = -1
	t.state = stateReady
}
