package core

// Equivalence scenarios for the incremental dispatch pass's own code paths:
// the hot-set evaluation, the ranked-order re-keying and the might-index
// maintenance. Each checks the recorded digest (assertEquivalentOpts) for
// every policy on 1, 2 and 4 CPUs, main-memory and disk-resident, with the
// safety oracle attached and invariants — including the brute-force
// recomputation of the might index, the hot set, every stored priority and
// the ranked order — checked at every scheduling point.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/txn"
	"repro/internal/workload"
)

// forDispatchMatrix calls fn with a base configuration for every cell of
// policies × CPUs × {mm, disk}. -short keeps one policy per Staticness.
func forDispatchMatrix(t *testing.T, fn func(t *testing.T, name string, cfg Config, disk bool)) {
	pols := Policies()
	if testing.Short() {
		pols = []PolicyKind{CCA, EDFWP, LSFHP}
	}
	for _, pol := range pols {
		for _, cpus := range []int{1, 2, 4} {
			for _, disk := range []bool{false, true} {
				if disk && pol == PCP {
					continue // main-memory only (see Config.Validate)
				}
				cfg, kind := MainMemoryConfig(pol, 11), "mm"
				if disk {
					cfg, kind = DiskConfig(pol, 11), "disk"
					cfg.NumDisks = 2
				}
				cfg.NumCPUs = cpus
				name := fmt.Sprintf("%s/%dcpu/%s", pol, cpus, kind)
				t.Run(name, func(t *testing.T) {
					t.Parallel() // cells share nothing; the reference checks are slow at 512 live
					fn(t, name, cfg, disk)
				})
			}
		}
	}
}

// scenarioTraffic appends count foreground transactions to wl: arrivals a
// mean gap apart, nItems items each drawn by item(), with shared locks at
// readProb, 1–3 ms updates, deadlines 20–180 ms out and, on a disk
// configuration, a disk access before one update in ten with the arrivals
// spread four times wider (two 25 ms disks saturate long before the CPUs,
// and past saturation the dynamic-priority baselines wound each other
// without end).
func scenarioTraffic(wl *workload.Workload, rng *rand.Rand, count, nItems int, gap time.Duration, readProb float64, disk bool, item func() txn.Item) {
	if disk {
		gap *= 4
	}
	var arrival time.Duration
	for i := 0; i < count; i++ {
		arrival += time.Duration(rng.ExpFloat64() * float64(gap))
		s := workload.Spec{
			ID:       len(wl.Txns),
			Arrival:  arrival,
			Deadline: arrival + 20*msec + time.Duration(rng.Int63n(int64(160*msec))),
			Compute:  time.Duration(1+rng.Intn(3)) * msec,
		}
		seen := map[txn.Item]bool{}
		for len(s.Items) < nItems {
			if it := item(); !seen[it] {
				seen[it] = true
				s.Items = append(s.Items, it)
				s.Reads = append(s.Reads, rng.Float64() < readProb)
				s.NeedsIO = append(s.NeedsIO, disk && rng.Intn(10) == 0)
			}
		}
		wl.Txns = append(wl.Txns, s)
	}
	wl.Params.Count = len(wl.Txns)
}

// TestDispatchEquivalenceParkedBacklog: 512 live transactions that never
// finish and conflict with nobody sit under foreground traffic — the
// benchmark's backlog_open shape. Almost every live transaction is outside
// the hot set, so this is the scenario in which a stale priority or a
// misplaced ranked entry would go unnoticed longest. One foreground access
// in twenty lands on a parked transaction's item, so parked transactions
// also enter and leave the hot set, and get wounded while running.
func TestDispatchEquivalenceParkedBacklog(t *testing.T) {
	const parked, span = 512, 128
	forDispatchMatrix(t, func(t *testing.T, name string, cfg Config, disk bool) {
		cfg.Workload.DBSize = parked + span
		wl := &workload.Workload{Params: cfg.Workload}
		for j := 0; j < parked; j++ {
			wl.Txns = append(wl.Txns, workload.Spec{
				ID:       j,
				Items:    []txn.Item{txn.Item(j)},
				Compute:  1_000_000 * time.Second,
				Deadline: 100_000_000 * time.Second,
			})
		}
		rng := rand.New(rand.NewSource(3))
		scenarioTraffic(wl, rng, 60, 2, 4*msec, 0.2, disk, func() txn.Item {
			if rng.Intn(20) == 0 {
				return txn.Item(rng.Intn(parked))
			}
			return txn.Item(parked + rng.Intn(span))
		})
		until := wl.Txns[len(wl.Txns)-1].Arrival + time.Second
		assertEquivalentOpts(t, "parked/"+name, cfg, wl, equivOpts{oracle: true, until: until})
	})
}

// TestDispatchEquivalenceSharedHotSet: the benchmark's shard_aligned shape
// — four items per transaction, half of them from a 16-item hot set, shared
// locks at p = 0.5, deadlines a few service times out. The hot set is most
// of the live set, several readers co-hold an item (the index's overflow
// lists), and wounds and preemptions re-key many transactions per pass.
func TestDispatchEquivalenceSharedHotSet(t *testing.T) {
	forDispatchMatrix(t, func(t *testing.T, name string, cfg Config, disk bool) {
		cfg.Workload.DBSize = 1024
		wl := &workload.Workload{Params: cfg.Workload}
		rng := rand.New(rand.NewSource(5))
		scenarioTraffic(wl, rng, 120, 4, 3*msec, 0.5, disk, func() txn.Item {
			if rng.Intn(2) == 0 {
				return txn.Item(rng.Intn(16))
			}
			return txn.Item(rng.Intn(1024))
		})
		assertEquivalentOpts(t, "hotset/"+name, cfg, wl, equivOpts{oracle: true})
	})
}

// TestDispatchEquivalenceRewidening: decision-point transactions under
// enough contention that some are wounded after their might-set narrowed,
// so setMight moves them between the might index's lists in both
// directions (mightNarrow at the decision point, mightFull on restart). The
// arrival rate stops at 1.5× the base: much higher and EDF-WP's deadlock
// resolution livelocks (a defect of both passes, see CHANGES.md PR 14).
func TestDispatchEquivalenceRewidening(t *testing.T) {
	forDispatchMatrix(t, func(t *testing.T, name string, cfg Config, disk bool) {
		cfg.Workload.Count = 100
		cfg.Workload.DecisionPoints = true
		cfg.Workload.ArrivalRate *= 1.5
		assertEquivalentOpts(t, "rewiden/"+name, cfg, nil, equivOpts{oracle: true})
	})
}
