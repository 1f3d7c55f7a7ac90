package core

import (
	"fmt"
	"math/rand"
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
