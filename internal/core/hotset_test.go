package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestHotSetExactProperty drives the incrementally maintained hot set
// through every path that moves a has or might list — shared locks (several
// holders per item), decision-point narrowing and re-widening on abort,
// firm-deadline drops and cancellations — for the three policies that use
// it, from a seed. Config.CheckInvariants has verifyHot recompute the set
// and every hotRefs by brute force after each pass's re-evaluation; the
// test repeats the check between steps, after cancellations, and requires
// that each path was actually taken.
func TestHotSetExactProperty(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	for _, pol := range []PolicyKind{CCA, CCAP, CCAT} {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", pol, seed), func(t *testing.T) {
				t.Parallel()
				cfg := MainMemoryConfig(pol, seed)
				cfg.NumCPUs = 1 + int(seed%2)
				cfg.CheckInvariants = true
				cfg.FirmDeadlines = true
				cfg.Workload.Count = 160
				cfg.Workload.ArrivalRate = 20
				cfg.Workload.ReadFraction = 0.6
				cfg.Workload.DecisionPoints = true
				if pol != CCA {
					cfg.Predict = DefaultPredictConfig()
				}
				e, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				var maxHot, sharedHot, narrowed, cancelled int
				e.StartRun()
				for e.committed+e.dropped < len(e.all) {
					if err := e.StepTo(e.sim.Now() + sim.Time(5*time.Millisecond)); err != nil {
						t.Fatal(err)
					}
					if e.live.n > 0 && rng.Intn(50) == 0 {
						victim := e.live.head
						for i := rng.Intn(e.live.n); i > 0; i-- {
							victim = victim.liveNext
						}
						e.cancelServiceTxn(victim, victim.gen)
						cancelled++
					}
					e.ci.verify(e)
					e.ci.verifyHot(e)
					maxHot = max(maxHot, len(e.ci.hot))
					for c := e.live.head; c != nil; c = c.liveNext {
						if c.mightNarrow != nil && &c.might[0] == &c.mightNarrow[0] {
							narrowed++
						}
					}
					for i := range e.ci.items {
						if rec := &e.ci.items[i]; len(rec.has.extra) > 0 && rec.might.first != nil {
							sharedHot++ // several holders, each a separate pair for the claimants
						}
					}
				}
				res, err := e.FinishRun()
				if err != nil {
					t.Fatal(err)
				}
				if len(e.ci.hot) != 0 || len(e.ci.plist) != 0 {
					t.Errorf("drained engine keeps %d hot, %d P-list members", len(e.ci.hot), len(e.ci.plist))
				}
				t.Logf("hot set peaked at %d, %d multi-holder sightings, %d narrowed sightings, %d restarts, %d dropped (%d cancelled)",
					maxHot, sharedHot, narrowed, res.Restarts, e.dropped, cancelled)
				if maxHot == 0 || sharedHot == 0 || narrowed == 0 || res.Restarts == 0 || cancelled == 0 || e.dropped <= cancelled {
					t.Errorf("run did not exercise every path into and out of the hot set")
				}
			})
		}
	}
}

// TestRollbackEndReclocksEvaluation is the regression for the memo hole the
// per-scheduling-point oracle (verifyPriorities) found: a wounder runs its
// victims' rollback on its own CPU, and serviceNow counts that section as its
// service until onRollbackDone, where the holder's service drops without the
// clock or the conflict-index generation moving — so a claimant evaluated
// earlier in the same instant kept a stale priority under its (now, gen) memo
// key. Without the reclockEval in onRollbackDone these runs panic with
// "stored priority …, fresh …".
func TestRollbackEndReclocksEvaluation(t *testing.T) {
	for _, pol := range []PolicyKind{CCA, CCAP, CCAT} {
		e, err := New(multiCPUConfig(pol, 4, 1))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Restarts == 0 {
			t.Fatalf("%s: no restarts, so no rollback section ended", pol)
		}
	}
}

// TestPriorityOracleCatchesStaleMemo is the oracle's mutation test: a check
// that never fires proves nothing. Step a contended CCA run to an instant
// where a hot transaction's penalty includes a running holder, move the clock
// without firing an event (the holder's service grows), and forge the
// claimant's memo key to say it was evaluated at the new instant: the next
// pass skips it and verifyPriorities must panic. The same pass without the
// forgery re-evaluates it and is clean.
func TestPriorityOracleCatchesStaleMemo(t *testing.T) {
	for _, forge := range []bool{false, true} {
		cfg := MainMemoryConfig(CCA, 3)
		cfg.CheckInvariants = true
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.StartRun()
		var claimant *Txn
		var next sim.Time
		for claimant == nil {
			at, ok := e.sim.NextAt()
			if !ok {
				t.Fatal("run ended without a hot transaction behind a running holder")
			}
			if err := e.StepTo(at); err != nil {
				t.Fatal(err)
			}
			if next, ok = e.sim.NextAt(); ok && next-e.sim.Now() >= 2 {
				claimant = claimantOfRunningHolder(e)
			}
		}
		mid := e.sim.Now() + (next-e.sim.Now())/2
		if err := e.StepTo(mid); err != nil {
			t.Fatal(err)
		}
		if forge {
			claimant.evalAt, claimant.evalGen = mid, e.ci.gen
		}
		msg := func() (msg string) {
			defer func() {
				if p := recover(); p != nil {
					msg = fmt.Sprint(p)
				}
			}()
			e.note()
			e.reschedule()
			return ""
		}()
		switch {
		case !forge && msg != "":
			t.Fatalf("unforged pass panicked: %s", msg)
		case forge && !strings.Contains(msg, "stored priority"):
			t.Fatalf("forged memo for T%d: want the oracle's stored-priority panic, got %q", claimant.id(), msg)
		}
	}
}

// claimantOfRunningHolder returns a hot transaction whose might-set meets the
// has-set of another transaction that is computing on a CPU, or nil.
func claimantOfRunningHolder(e *Engine) *Txn {
	for _, c := range e.ci.hot {
		for _, p := range e.slots {
			if p != nil && p != c && !p.inRollback && p.cpuEvent.Pending() && p.has.intersects(c.might) {
				return c
			}
		}
	}
	return nil
}
