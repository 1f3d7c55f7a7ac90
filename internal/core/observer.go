package core

// decisionObserver is the engine's decision tap: scheduler outcomes —
// wounds, blocks, restarts, terminal fates — delivered to one registered
// observer, synchronously at the decision site. The conflict-prediction
// policies (predict_policy.go) feed their statistics tables through it, and
// future observers (externally attached learners, decision loggers) share
// the same tap instead of growing policy-internal plumbing.
//
// Contract:
//
//   - callbacks run on the engine's event-processing goroutine, inside the
//     decision that triggered them; they must not block, re-enter the
//     engine, or retain the *Txn arguments past the call;
//   - the tap is nil-safe and allocation-free when unset (pinned by
//     TestObserverTapZeroAlloc in bench_test.go) — an engine without an
//     observer pays one nil check per decision;
//   - every notification re-clocks evaluation: the engine bumps the
//     conflict-index generation afterwards, so a policy whose evaluate
//     consumes observer-fed state (an evalConflictClocked policy reading a
//     stats table) is re-evaluated exactly as it would be after a conflict
//     event. Observers that mutate no evaluation inputs just cost a memo
//     refresh that recomputes identical values.
type decisionObserver interface {
	// observeWound: wounder aborted victim on a data conflict.
	observeWound(e *Engine, wounder, victim *Txn)
	// observeBlock: requester chose to wait for holder on a data conflict
	// (never fires under the CCA family — Theorem 1).
	observeBlock(e *Engine, requester, holder *Txn)
	// observeRestart: victim was aborted — by a wound, a deadlock
	// resolution, a fault, or a permanent IO failure — and will rerun.
	observeRestart(e *Engine, victim *Txn)
	// observeTerminal: t reached a terminal state. committed distinguishes
	// a commit from a firm-mode drop/cancellation; missed reports a blown
	// deadline (always true for drops).
	observeTerminal(e *Engine, t *Txn, committed, missed bool)
}

// setDecisionObserver installs the decision tap (nil detaches it). A
// policy that itself implements decisionObserver is attached automatically
// at engine construction; installing an explicit observer replaces that.
func (e *Engine) setDecisionObserver(o decisionObserver) {
	e.obs = o
	e.reclockEval()
}

// reclockEval invalidates the evaluation and penalty memos by bumping the
// conflict-index generation — the same key a has-set change bumps — so the
// staticness contract covers observer-driven state: stats updates re-clock
// evaluation exactly like conflict events do. A rollback section's end
// re-clocks too (onRollbackDone): it changes a holder's service time without
// moving the clock or the has-sets.
func (e *Engine) reclockEval() { e.ci.gen++ }

func (e *Engine) notifyWound(wounder, victim *Txn) {
	if e.obs == nil {
		return
	}
	e.obs.observeWound(e, wounder, victim)
	e.reclockEval()
}

func (e *Engine) notifyBlock(requester, holder *Txn) {
	if e.obs == nil {
		return
	}
	e.obs.observeBlock(e, requester, holder)
	e.reclockEval()
}

func (e *Engine) notifyRestart(victim *Txn) {
	if e.obs == nil {
		return
	}
	e.obs.observeRestart(e, victim)
	e.reclockEval()
}

func (e *Engine) notifyTerminal(t *Txn, committed, missed bool) {
	if e.obs == nil {
		return
	}
	e.obs.observeTerminal(e, t, committed, missed)
	e.reclockEval()
}
