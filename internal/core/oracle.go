package core

import (
	"fmt"
	"time"

	"repro/internal/history"
	"repro/internal/trace"
)

// oracleSpotCheckEvery is the commit interval between live serializability
// checks (the full history is always checked once more at the end of the
// run).
const oracleSpotCheckEvery = 256

// Oracle is the opt-in runtime safety monitor: it watches the engine's
// structured event stream during a live run — not just in tests — and
// fails the run at the first violation of the paper's correctness results:
//
//   - Theorem 1: CCA never lock-waits (and, as a corollary, never
//     deadlocks);
//   - Lemma 1: no priority reversal — a wound always goes from a priority
//     at least the victim's (checked for the High Priority family; CCA
//     only on a single CPU, where the lemma is stated);
//   - Theorem 2: no circular aborts — the wound edges of any single
//     simulated instant form an acyclic graph;
//   - conflict serializability of the recorded history, spot-checked
//     every oracleSpotCheckEvery commits and fully at run end.
//
// Enable it with Engine.EnableOracle before Run; Run then fails fast on
// the first violation instead of completing with corrupt results.
type Oracle struct {
	e           *Engine
	checkLemma1 bool

	instant time.Duration
	edges   [][2]int32 // same-instant wound edges (wounder, victim)
	commits int
	err     error
}

// EnableOracle attaches the runtime safety oracle to the engine and
// returns it. History recording is switched on if it was not already —
// the serializability checks need it. Must be called before Run; calling
// it twice returns the same oracle.
//
// The oracle's checks key state by transaction ID, so enabling it pins IDs
// for the engine's lifetime (the wall-clock service then grows its tables
// instead of recycling). Enabling it after an ID has already been recycled
// panics — fail fast, because the history would conflate distinct
// transactions that shared an ID and every theorem the oracle checks
// assumes stable IDs. Attach the oracle before the first submission.
func (e *Engine) EnableOracle() *Oracle {
	if e.oracle != nil {
		return e.oracle
	}
	if e.idRecycled {
		panic("core: EnableOracle after transaction IDs were recycled; enable the oracle before submissions (IDs are no longer unique)")
	}
	e.idsPinned = true
	if e.hist == nil {
		e.hist = history.New()
	}
	o := &Oracle{e: e}
	switch e.cfg.Policy {
	case EDFHP, LSFHP, FCFS, AED:
		// These wound strictly higher-over-lower by construction; the
		// check holds on any CPU count.
		o.checkLemma1 = true
	case CCA:
		// CCA wounds unconditionally; Lemma 1 is the paper's single-CPU
		// result that the wounder, being the dispatched transaction,
		// outranks every victim.
		o.checkLemma1 = e.cfg.NumCPUs == 1
		// EDF-CR wounds a lower-priority requester's holder when it cannot
		// finish within the requester's slack (a legitimate reversal);
		// EDF-WP and PCP never wound.
	}
	e.oracle = o
	return o
}

func (o *Oracle) fail(format string, args ...any) {
	if o.err == nil {
		o.err = fmt.Errorf(format, args...)
	}
}

// observe consumes one engine event, in emission order. The engine calls
// it from emit, so the oracle sees exactly what a trace.Recorder would.
func (o *Oracle) observe(ev trace.Event) {
	if o.err != nil {
		return
	}
	if ev.At != o.instant {
		o.flushInstant()
		o.instant = ev.At
	}
	switch ev.Kind {
	case trace.Block:
		if o.e.cfg.Policy == CCA {
			o.fail("Theorem 1 violated: CCA lock-waited (T%d on item %d at %v)", ev.Txn, ev.Item, ev.At)
		}
	case trace.Deadlock:
		if o.e.cfg.Policy == CCA {
			o.fail("Theorem 1 violated: deadlock under CCA (T%d aborted at %v)", ev.Txn, ev.At)
		}
	case trace.Wound:
		if o.checkLemma1 && ev.Priority < ev.OtherPriority {
			o.fail("Lemma 1 violated: priority reversal — T%d (%.3f) wounded T%d (%.3f) at %v",
				ev.Txn, ev.Priority, ev.Other, ev.OtherPriority, ev.At)
		}
		o.edges = append(o.edges, [2]int32{int32(ev.Txn), int32(ev.Other)})
	case trace.Commit:
		o.commits++
		if o.commits%oracleSpotCheckEvery == 0 {
			o.checkSerializable("spot check")
		}
	}
}

// flushInstant closes the current simulated instant: the wound edges it
// accumulated must form an acyclic wounder→victim graph (Theorem 2).
// Cycle existence is independent of traversal order, so the map-ordered
// DFS is deterministic in outcome.
func (o *Oracle) flushInstant() {
	if len(o.edges) >= 2 {
		adj := make(map[int32][]int32, len(o.edges))
		for _, e := range o.edges {
			adj[e[0]] = append(adj[e[0]], e[1])
		}
		const (
			visiting = 1
			done     = 2
		)
		state := make(map[int32]int8, len(adj))
		var dfs func(n int32) bool
		dfs = func(n int32) bool {
			state[n] = visiting
			for _, m := range adj[n] {
				switch state[m] {
				case visiting:
					return true
				case 0:
					if dfs(m) {
						return true
					}
				}
			}
			state[n] = done
			return false
		}
		for n := range adj {
			if state[n] == 0 && dfs(n) {
				o.fail("Theorem 2 violated: wound cycle at t=%v among %d wounds", o.instant, len(o.edges))
				break
			}
		}
	}
	o.edges = o.edges[:0]
}

// checkSerializable verifies the recorded history's conflict graph. The
// engine holds every lock to commit or abort (strict two-phase locking),
// so the history must be conflict serializable at every prefix, not just
// at run end — a mid-run cycle is a real violation, not a transient.
func (o *Oracle) checkSerializable(what string) {
	if ok, cycle := o.e.hist.Serializable(); !ok {
		o.fail("serializability violated (%s at %d commits): conflict cycle %v", what, o.commits, cycle)
	}
}

// finish flushes the last instant and runs the final full-history check;
// the engine calls it after the event loop drains.
func (o *Oracle) finish() error {
	o.flushInstant()
	if o.err == nil {
		o.checkSerializable("final")
	}
	return o.err
}
