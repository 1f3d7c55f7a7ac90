package core

// pcpPolicy implements the Priority Ceiling Protocol ([Sha88]; extended to
// databases as the read/write priority ceiling protocol in [SRSC91]), which
// the paper identifies as the pure-wait extreme opposite EDF-HP's pure
// abort: "EDF-HP and Priority Ceiling Protocol are the extreme methods that
// use abort and wait respectively" (§6).
//
// Priorities are earliest-deadline-first; since each transaction's deadline
// is fixed at arrival, priorities are job-static, which is the setting
// PCP's guarantees need. The ceiling of a data item is the highest priority
// of any live transaction that might access it (derived from the
// pre-analysis might-sets — this is where the paper's transaction analysis
// meets Sha's protocol). A transaction may begin a new data access only if
// its priority exceeds the ceiling of every item locked by other
// transactions; otherwise it is ceiling-blocked and the holders of the
// blocking items inherit its priority.
//
// Two classic properties follow, and the test suite checks both: a
// transaction that is admitted never finds its lock taken (so PCP never
// aborts anything), and there are no deadlocks.
//
// The engine realises ceiling blocking at dispatch: a transaction whose
// next action is an inadmissible lock acquisition is simply not given the
// CPU; every scheduling point re-evaluates admission, and inheritance makes
// the blocking holder the highest-priority dispatchable transaction so the
// blockage drains.
type pcpPolicy struct{}

func (pcpPolicy) kind() PolicyKind { return PCP }

func (pcpPolicy) evaluate(_ *Engine, t *Txn) float64 { return -ms(t.spec.Deadline) }

// wounds should be unreachable: an admitted transaction's lock is always
// free (any holder of an item t might access would have given that item a
// ceiling at least t's priority, blocking t's admission). Waiting is the
// safe fallback.
func (pcpPolicy) wounds(*Engine, *Txn, *Txn) bool { return false }

func (pcpPolicy) filtersIOWait() bool { return false }
func (pcpPolicy) inherits() bool      { return true }

// staticness: the base priority is the fixed deadline; ceiling admission
// and inheritance act outside evaluate (the engine re-applies the
// inherited floor every pass regardless of evaluation caching).
func (pcpPolicy) staticness() staticness { return evalStatic }

// admits implements the ceiling test for dispatching t, applying priority
// inheritance to the blocking holders when it fails. The second result
// reports whether any holder's inherited priority was raised (the caller
// must then re-rank the dispatch pool).
func (p pcpPolicy) admits(e *Engine, t *Txn) (ok, inheritanceChanged bool) {
	if t.remain > 0 || t.ioDone {
		return true, false // mid-update: no new lock acquisition pending
	}
	if t.next >= len(t.spec.Items) {
		return true, false // about to commit
	}
	item := t.spec.Items[t.next]
	if t.has.contains(item) {
		return true, false // re-entrant (granted while waking from a wait)
	}
	base := p.evaluate(e, t) // ceilings compare base (non-inherited) priorities
	ok = true
	for h := e.live.head; h != nil; h = h.liveNext {
		if h == t || !h.has.any() {
			continue
		}
		// The ceiling of the items h holds: max base priority of live
		// transactions that might access any of them. Computing the max
		// over holders h whose held set intersects a claimant's might
		// set is equivalent and avoids per-item bookkeeping.
		ceiling := negInf
		for c := e.live.head; c != nil; c = c.liveNext {
			if c != h && c.might.intersects(h.has) {
				if pr := p.evaluate(e, c); pr > ceiling {
					ceiling = pr
				}
			}
		}
		if base <= ceiling {
			ok = false
			// Priority inheritance: the holder blocks t (and possibly
			// higher claimants); floor it at the highest blocked
			// claimant's priority so it runs and releases.
			if base > h.inherited {
				h.inherited = base
				e.markStale(h)
				inheritanceChanged = true
			}
		}
	}
	return ok, inheritanceChanged
}

// admissionPolicy lets a policy veto dispatching a candidate whose next
// action would violate its admission rule (PCP's ceiling test).
type admissionPolicy interface {
	admits(e *Engine, t *Txn) (ok, inheritanceChanged bool)
}
