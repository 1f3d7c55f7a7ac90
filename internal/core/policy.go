package core

import (
	"fmt"
	"time"
)

// staticness classifies how a policy's evaluate output can change over a
// transaction's life — the contract the engine's incremental dispatch pass
// uses to evaluate a set of transactions instead of the live list
// (continuous evaluation restricted to what can have moved; the observable
// priorities are identical to evaluating everything from scratch at every
// scheduling point, which Engine.verifyPriorities checks at every pass under
// Config.CheckInvariants).
type staticness int

const (
	// evalStatic: evaluate(t) is a constant for t's whole life, restarts
	// included (EDF's deadline, FCFS's arrival time are fixed at arrival).
	// The engine evaluates a transaction once, on its first pass.
	evalStatic staticness = iota
	// evalConflictClocked: evaluate(t) depends on t's fixed spec, on t's
	// current might-access set, and on the P-list members whose has-set
	// meets that might-set — their effective service time. Precisely:
	//
	//   - with no such member, evaluate(t) is a constant of t's spec (for
	//     CCA -ms(deadline): the penalty term is w·0, exactly 0 for any
	//     finite w);
	//   - otherwise it is constant while the pair (simulated time,
	//     conflict-index generation) is unchanged — the clock moves a
	//     running holder's service time, the generation moves with every
	//     has-set change and at the end of every rollback section;
	//   - evaluate has no side effect another evaluation could observe
	//     (private memoisation is fine), so the order of evaluation within
	//     a pass is immaterial.
	//
	// "Such a member" never includes t itself: a transaction's own locks
	// contribute nothing to its own penalty.
	//
	// The engine therefore re-evaluates only the conflict index's hot set —
	// maintained incrementally, exactly the transactions with at least one
	// such member — when the clock or the generation moved; a transaction
	// once, when its last such member goes and it leaves the set; and one
	// whose might-set was switched. With no conflict in the system nothing
	// is re-evaluated at all. CCA satisfies this.
	evalConflictClocked
	// evalDynamic: evaluate(t) may change at any scheduling point for
	// reasons the engine cannot observe cheaply (LSF's slack shrinks with
	// wall-clock time; AED's group assignment depends on the whole live
	// set and its feedback controller), or evaluate has side effects (AED
	// draws a transaction's random key on its first evaluation). Every live
	// transaction is re-evaluated every pass, in arrival order.
	evalDynamic
)

// policy is a scheduling algorithm: a priority assignment plus a conflict
// resolution choice. The engine calls evaluate at every scheduling point
// (continuous evaluation); policies with static evaluation simply return a
// value that does not change over a transaction's life.
type policy interface {
	// kind returns the policy's name.
	kind() PolicyKind
	// evaluate returns t's priority now; higher values run first.
	evaluate(e *Engine, t *Txn) float64
	// staticness declares when evaluate's output can change; the engine
	// holds the policy to it by skipping evaluations the declaration
	// proves redundant.
	staticness() staticness
	// wounds decides a data conflict: true aborts the holder (High
	// Priority / wound), false blocks the requester (wait).
	wounds(e *Engine, requester, holder *Txn) bool
	// filtersIOWait reports whether, while the highest-priority
	// transaction is blocked, the CPU may only be given to transactions
	// that do not conflict (even conditionally) with any partially
	// executed transaction — the paper's IOwait-schedule.
	filtersIOWait() bool
	// inherits reports whether blocked requesters promote the priority
	// of the holders they wait for (Wait Promote).
	inherits() bool
}

// newPolicy instantiates the policy for a validated config.
func newPolicy(c Config) policy {
	switch c.Policy {
	case CCA:
		return ccaPolicy{weight: c.PenaltyWeight}
	case EDFHP:
		return edfPolicy{wound: true}
	case EDFWP:
		return edfPolicy{wound: false, inherit: true}
	case LSFHP:
		return lsfPolicy{}
	case EDFCR:
		return edfCRPolicy{}
	case AED:
		return newAEDPolicy(c.Seed)
	case PCP:
		return pcpPolicy{}
	case FCFS:
		return fcfsPolicy{}
	default:
		panic(fmt.Sprintf("core: unknown policy %q", c.Policy))
	}
}

// ms converts a duration to float64 milliseconds for priority arithmetic.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ccaPolicy is the paper's contribution:
//
//	Pr(T) = -(deadline + w · penaltyOfConflict(T))
//
// with High Priority (always-wound) data conflict resolution and the
// IOwait-schedule CPU filter. Continuous evaluation: the penalty changes as
// partially executed transactions accumulate service time. Only a
// transaction some P-list member conflicts with has a non-zero penalty, so
// the engine re-evaluates just those at a scheduling point (staticness), and
// the conflict index (conflict.go) makes each evaluation a walk over the
// transaction's own items.
type ccaPolicy struct {
	weight float64
}

func (ccaPolicy) kind() PolicyKind { return CCA }

func (p ccaPolicy) evaluate(e *Engine, t *Txn) float64 {
	return -(ms(t.spec.Deadline) + p.weight*ms(e.penaltyOfConflict(t)))
}

// wounds is unconditionally true: in CCA the running transaction aborts
// conflicting transactions; there is no lock wait (the source of CCA's
// deadlock freedom, Theorem 1).
func (ccaPolicy) wounds(*Engine, *Txn, *Txn) bool { return true }

func (ccaPolicy) filtersIOWait() bool { return true }
func (ccaPolicy) inherits() bool      { return false }

// staticness: the priority is -(deadline + w·penalty); the deadline is
// fixed, the penalty is a sum over the conflicting P-list members only and
// moves only with (clock, conflict-index generation), and evaluate touches
// nothing but the transaction's own penalty memo.
func (ccaPolicy) staticness() staticness { return evalConflictClocked }

// edfPolicy is Earliest Deadline First. With wounds=true it is the paper's
// EDF-HP baseline (requester aborts lower-priority holders, waits for
// higher-priority ones); with wounds=false and inherits=true it is EDF-WP
// (never aborts; waiters promote holders; deadlocks possible).
type edfPolicy struct {
	wound   bool
	inherit bool
}

func (p edfPolicy) kind() PolicyKind {
	if p.wound {
		return EDFHP
	}
	return EDFWP
}

func (edfPolicy) evaluate(_ *Engine, t *Txn) float64 { return -ms(t.spec.Deadline) }

func (p edfPolicy) wounds(_ *Engine, requester, holder *Txn) bool {
	if !p.wound {
		return false
	}
	// High Priority: resolve in favour of the higher-priority
	// transaction. EDF priorities are static, so this comparison cannot
	// invert later (no wound cycles).
	return requester.priority > holder.priority ||
		(requester.priority == holder.priority && requester.id() < holder.id())
}

func (edfPolicy) filtersIOWait() bool { return false }
func (p edfPolicy) inherits() bool    { return p.inherit }

// staticness: the deadline is fixed at arrival and survives restarts.
func (edfPolicy) staticness() staticness { return evalStatic }

// lsfPolicy is Least Slack First with High Priority conflict resolution:
// slack = deadline − now − static execution-time estimate.
//
// The estimate deliberately ignores execution progress: a progress-aware
// estimate combined with wounding livelocks (an aborted victim's remaining
// time resets to its full value, making it *more* urgent, so it immediately
// re-preempts and re-wounds its wounder — the priority-reversal instability
// the paper warns about for continuous-evaluation LSF in §3.2). With the
// static estimate, slack differences between transactions are constant over
// time, so the priority order is a fixed total order and wound edges cannot
// cycle.
type lsfPolicy struct{}

func (lsfPolicy) kind() PolicyKind { return LSFHP }

func (lsfPolicy) evaluate(e *Engine, t *Txn) float64 {
	res := t.spec.ResourceTime(e.cfg.Workload.DiskAccessTime)
	slack := t.spec.Deadline - time.Duration(e.sim.Now()) - res
	return -ms(slack)
}

func (lsfPolicy) wounds(_ *Engine, requester, holder *Txn) bool {
	return requester.priority > holder.priority ||
		(requester.priority == holder.priority && requester.id() < holder.id())
}

func (lsfPolicy) filtersIOWait() bool { return false }
func (lsfPolicy) inherits() bool      { return false }

// staticness: slack shrinks as the simulated clock advances.
func (lsfPolicy) staticness() staticness { return evalDynamic }

// edfCRPolicy is Earliest Deadline First with Conditional Restart (Abbott
// & Garcia-Molina; paper §2/§3.3.2): on a data conflict, the requester
// blocks if the holder's estimated remaining execution fits within the
// requester's slack — the holder is "close enough to done" that waiting is
// cheaper than throwing its work away — and wounds it otherwise. The paper
// points out this hybrid can deadlock (the wait direction is not priority
// ordered); the engine's cycle detector resolves those.
type edfCRPolicy struct{}

func (edfCRPolicy) kind() PolicyKind { return EDFCR }

func (edfCRPolicy) evaluate(_ *Engine, t *Txn) float64 { return -ms(t.spec.Deadline) }

func (edfCRPolicy) wounds(e *Engine, requester, holder *Txn) bool {
	if holder.priority >= requester.priority {
		// High Priority still protects a more urgent holder.
		return false
	}
	now := time.Duration(e.sim.Now())
	slack := requester.spec.Deadline - now - requester.remainingStatic()
	// Conditional restart: wait only when the holder can finish within
	// the requester's slack.
	return holder.remainingStatic() > slack
}

func (edfCRPolicy) filtersIOWait() bool { return false }
func (edfCRPolicy) inherits() bool      { return false }

// staticness: the priority is the fixed deadline (only the wounds decision
// is time-dependent, and that is evaluated per conflict, not cached).
func (edfCRPolicy) staticness() staticness { return evalStatic }

// fcfsPolicy is the non-real-time control: arrival-order priority with High
// Priority conflict resolution. Simultaneous arrivals tie, and the tie
// breaks by ID, so two of them never wait on each other.
type fcfsPolicy struct{}

func (fcfsPolicy) kind() PolicyKind { return FCFS }

func (fcfsPolicy) evaluate(_ *Engine, t *Txn) float64 { return -ms(t.spec.Arrival) }

func (fcfsPolicy) wounds(_ *Engine, requester, holder *Txn) bool {
	return requester.priority > holder.priority ||
		(requester.priority == holder.priority && requester.id() < holder.id())
}

func (fcfsPolicy) filtersIOWait() bool { return false }
func (fcfsPolicy) inherits() bool      { return false }

// staticness: the arrival time never changes.
func (fcfsPolicy) staticness() staticness { return evalStatic }
