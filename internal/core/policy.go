package core

import (
	"fmt"
	"time"
)

// Staticness classifies how a policy's Evaluate output can change over a
// transaction's life — the contract the engine's incremental dispatch pass
// uses to evaluate a set of transactions instead of the live list
// (continuous evaluation restricted to what can have moved; the observable
// priorities are identical to evaluating everything from scratch at every
// scheduling point, which Engine.verifyPriorities checks at every pass under
// Config.CheckInvariants).
type Staticness int

const (
	// EvalStatic: Evaluate(t) is a constant for t's whole life, restarts
	// included (EDF's deadline, FCFS's arrival time are fixed at arrival).
	// The engine evaluates a transaction once, on its first pass.
	EvalStatic Staticness = iota
	// EvalConflictClocked: Evaluate(t) depends on t's fixed spec, on t's
	// current might-access set, and on the P-list members whose has-set
	// meets that might-set — their effective service time, plus whatever
	// the policy derives from observer-fed state. Precisely:
	//
	//   - with no such member, Evaluate(t) is a constant of t's spec (for
	//     the CCA family -ms(deadline): the penalty term is w·0, exactly 0
	//     for any finite w CCA-T may tune);
	//   - otherwise it is constant while the pair (simulated time,
	//     conflict-index generation) is unchanged — the clock moves a
	//     running holder's service time, the generation moves with every
	//     has-set change and every decision-tap notification;
	//   - Evaluate has no side effect another evaluation could observe
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
	// is re-evaluated at all. CCA, CCA-P and CCA-T satisfy this.
	EvalConflictClocked
	// EvalDynamic: Evaluate(t) may change at any scheduling point for
	// reasons the engine cannot observe cheaply (LSF's slack shrinks with
	// wall-clock time; AED's group assignment depends on the whole live
	// set and its feedback controller), or Evaluate has side effects (AED
	// draws a transaction's random key on its first evaluation). Every live
	// transaction is re-evaluated every pass, in arrival order.
	EvalDynamic
)

// Policy is a scheduling algorithm: a priority assignment plus a conflict
// resolution choice. The engine calls Evaluate at every scheduling point
// (continuous evaluation); policies with static evaluation simply return a
// value that does not change over a transaction's life.
type Policy interface {
	// Kind returns the policy's name.
	Kind() PolicyKind
	// Evaluate returns t's priority now; higher values run first.
	Evaluate(e *Engine, t *Txn) float64
	// Staticness declares when Evaluate's output can change; the engine
	// holds the policy to it by skipping evaluations the declaration
	// proves redundant.
	Staticness() Staticness
	// Wounds decides a data conflict: true aborts the holder (High
	// Priority / wound), false blocks the requester (wait).
	Wounds(e *Engine, requester, holder *Txn) bool
	// FiltersIOWait reports whether, while the highest-priority
	// transaction is blocked, the CPU may only be given to transactions
	// that do not conflict (even conditionally) with any partially
	// executed transaction — the paper's IOwait-schedule.
	FiltersIOWait() bool
	// Inherits reports whether blocked requesters promote the priority
	// of the holders they wait for (Wait Promote).
	Inherits() bool
}

// newPolicy instantiates the policy for a validated config.
func newPolicy(c Config) Policy {
	switch c.Policy {
	case CCA:
		return ccaPolicy{weight: c.PenaltyWeight}
	case EDFHP:
		return edfPolicy{wounds: true}
	case EDFWP:
		return edfPolicy{wounds: false, inherits: true}
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
	case CCAP:
		return newCCAPPolicy(c)
	case CCAT:
		return newCCATPolicy(c)
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
// the engine re-evaluates just those at a scheduling point (Staticness), and
// the conflict index (conflict.go) makes each evaluation a walk over the
// transaction's own items.
type ccaPolicy struct {
	weight float64
}

func (ccaPolicy) Kind() PolicyKind { return CCA }

func (p ccaPolicy) Evaluate(e *Engine, t *Txn) float64 {
	return -(ms(t.Spec.Deadline) + p.weight*ms(e.PenaltyOfConflict(t)))
}

// Wounds is unconditionally true: in CCA the running transaction aborts
// conflicting transactions; there is no lock wait (the source of CCA's
// deadlock freedom, Theorem 1).
func (ccaPolicy) Wounds(*Engine, *Txn, *Txn) bool { return true }

func (ccaPolicy) FiltersIOWait() bool { return true }
func (ccaPolicy) Inherits() bool      { return false }

// Staticness: the priority is -(deadline + w·penalty); the deadline is
// fixed, the penalty is a sum over the conflicting P-list members only and
// moves only with (clock, conflict-index generation), and Evaluate touches
// nothing but the transaction's own penalty memo.
func (ccaPolicy) Staticness() Staticness { return EvalConflictClocked }

// edfPolicy is Earliest Deadline First. With wounds=true it is the paper's
// EDF-HP baseline (requester aborts lower-priority holders, waits for
// higher-priority ones); with wounds=false and inherits=true it is EDF-WP
// (never aborts; waiters promote holders; deadlocks possible).
type edfPolicy struct {
	wounds   bool
	inherits bool
}

func (p edfPolicy) Kind() PolicyKind {
	if p.wounds {
		return EDFHP
	}
	return EDFWP
}

func (edfPolicy) Evaluate(_ *Engine, t *Txn) float64 { return -ms(t.Spec.Deadline) }

func (p edfPolicy) Wounds(_ *Engine, requester, holder *Txn) bool {
	if !p.wounds {
		return false
	}
	// High Priority: resolve in favour of the higher-priority
	// transaction. EDF priorities are static, so this comparison cannot
	// invert later (no wound cycles).
	return requester.priority > holder.priority ||
		(requester.priority == holder.priority && requester.ID() < holder.ID())
}

func (edfPolicy) FiltersIOWait() bool { return false }
func (p edfPolicy) Inherits() bool    { return p.inherits }

// Staticness: the deadline is fixed at arrival and survives restarts.
func (edfPolicy) Staticness() Staticness { return EvalStatic }

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

func (lsfPolicy) Kind() PolicyKind { return LSFHP }

func (lsfPolicy) Evaluate(e *Engine, t *Txn) float64 {
	res := t.Spec.ResourceTime(e.cfg.Workload.DiskAccessTime)
	slack := t.Spec.Deadline - time.Duration(e.sim.Now()) - res
	return -ms(slack)
}

func (lsfPolicy) Wounds(_ *Engine, requester, holder *Txn) bool {
	return requester.priority > holder.priority ||
		(requester.priority == holder.priority && requester.ID() < holder.ID())
}

func (lsfPolicy) FiltersIOWait() bool { return false }
func (lsfPolicy) Inherits() bool      { return false }

// Staticness: slack shrinks as the simulated clock advances.
func (lsfPolicy) Staticness() Staticness { return EvalDynamic }

// edfCRPolicy is Earliest Deadline First with Conditional Restart (Abbott
// & Garcia-Molina; paper §2/§3.3.2): on a data conflict, the requester
// blocks if the holder's estimated remaining execution fits within the
// requester's slack — the holder is "close enough to done" that waiting is
// cheaper than throwing its work away — and wounds it otherwise. The paper
// points out this hybrid can deadlock (the wait direction is not priority
// ordered); the engine's cycle detector resolves those.
type edfCRPolicy struct{}

func (edfCRPolicy) Kind() PolicyKind { return EDFCR }

func (edfCRPolicy) Evaluate(_ *Engine, t *Txn) float64 { return -ms(t.Spec.Deadline) }

func (edfCRPolicy) Wounds(e *Engine, requester, holder *Txn) bool {
	if holder.priority >= requester.priority {
		// High Priority still protects a more urgent holder.
		return false
	}
	now := time.Duration(e.sim.Now())
	slack := requester.Spec.Deadline - now - requester.remainingStatic()
	// Conditional restart: wait only when the holder can finish within
	// the requester's slack.
	return holder.remainingStatic() > slack
}

func (edfCRPolicy) FiltersIOWait() bool { return false }
func (edfCRPolicy) Inherits() bool      { return false }

// Staticness: the priority is the fixed deadline (only the Wounds decision
// is time-dependent, and that is evaluated per conflict, not cached).
func (edfCRPolicy) Staticness() Staticness { return EvalStatic }

// fcfsPolicy is the non-real-time control: arrival-order priority with High
// Priority conflict resolution. Simultaneous arrivals tie, and the tie
// breaks by ID, so two of them never wait on each other.
type fcfsPolicy struct{}

func (fcfsPolicy) Kind() PolicyKind { return FCFS }

func (fcfsPolicy) Evaluate(_ *Engine, t *Txn) float64 { return -ms(t.Spec.Arrival) }

func (fcfsPolicy) Wounds(_ *Engine, requester, holder *Txn) bool {
	return requester.priority > holder.priority ||
		(requester.priority == holder.priority && requester.ID() < holder.ID())
}

func (fcfsPolicy) FiltersIOWait() bool { return false }
func (fcfsPolicy) Inherits() bool      { return false }

// Staticness: the arrival time never changes.
func (fcfsPolicy) Staticness() Staticness { return EvalStatic }
