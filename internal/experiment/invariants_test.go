package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// TestAdaptiveRunUpholdsPaperGuarantees is the end-to-end property test of
// the orchestration layer: random configurations executed *through* the
// adaptive runner (Instrument/Inspect hooks, worker pool, adaptive
// schedule) still uphold the paper's correctness results on every single
// run —
//
//   - conflict serializability of the recorded history;
//   - Lemma 1: no priority reversal — a wound always goes from a
//     priority at least the victim's;
//   - Theorem 2: no circular aborts — the wound graph at any single
//     instant is acyclic;
//   - Theorem 1 corollary: CCA never lock-waits (and hence the run
//     records no deadlocks).
func TestAdaptiveRunUpholdsPaperGuarantees(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pols := []core.PolicyKind{core.CCA, core.EDFHP}
	polNames := []string{"CCA", "EDF-HP"}
	for trial := 0; trial < 3; trial++ {
		pol := pols[trial%len(pols)]
		dbSize := 10 + rng.Intn(40)
		readFraction := 0.5 * rng.Float64()
		def := Definition{
			ID:    fmt.Sprintf("inv-%d", trial),
			Title: "invariants", XLabel: "rate",
			Xs:    []float64{4 + 4*rng.Float64(), 8 + 6*rng.Float64()},
			Seeds: 2,
			Variants: []Variant{{
				Name: polNames[trial%len(pols)],
				Configure: func(x float64, seed int64) core.Config {
					cfg := core.MainMemoryConfig(pol, seed)
					cfg.Workload.ArrivalRate = x
					cfg.Workload.DBSize = dbSize
					cfg.Workload.ReadFraction = readFraction
					cfg.CheckInvariants = true
					cfg.RecordHistory = true
					return cfg
				},
			}},
		}

		// Instrument attaches a wound trace pre-run; Inspect retrieves it
		// post-run. Both are called concurrently from worker goroutines.
		var mu sync.Mutex
		bufs := map[[3]int64]*trace.Buffer{}
		key := func(xi, vi int, seed int64) [3]int64 { return [3]int64{int64(xi), int64(vi), seed} }

		r, err := Run(context.Background(), def, Options{
			Count: 80, TargetCI: 0.1, MaxSeeds: 4,
			Instrument: func(xi, vi int, seed int64, e *core.Engine) {
				buf := &trace.Buffer{Filter: func(ev trace.Event) bool { return ev.Kind == trace.Wound }}
				e.SetRecorder(buf)
				mu.Lock()
				bufs[key(xi, vi, seed)] = buf
				mu.Unlock()
			},
			Inspect: func(xi, vi int, seed int64, e *core.Engine, res metrics.Result) error {
				if ok, cycle := e.History().Serializable(); !ok {
					return fmt.Errorf("history not serializable: cycle %v", cycle)
				}
				if pol == core.CCA {
					if res.LockWaits != 0 {
						return fmt.Errorf("CCA lock-waited %d times (Theorem 1)", res.LockWaits)
					}
					if res.Deadlocks != 0 {
						return fmt.Errorf("CCA deadlocked %d times", res.Deadlocks)
					}
				}
				mu.Lock()
				buf := bufs[key(xi, vi, seed)]
				mu.Unlock()
				wounds := buf.Events()
				for _, ev := range wounds {
					// Lemma 1: the wounding transaction's priority is at
					// least the victim's.
					if ev.Priority < ev.OtherPriority {
						return fmt.Errorf("priority reversal: T%d (%.2f) wounded T%d (%.2f)",
							ev.Txn, ev.Priority, ev.Other, ev.OtherPriority)
					}
				}
				// Theorem 2: wounds at any single instant form no cycle.
				if cyc := sameInstantWoundCycle(wounds); cyc != "" {
					return fmt.Errorf("circular aborts: %s", cyc)
				}
				return nil
			},
		})
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, pol, err)
		}
		for xi := range r.Agg {
			for vi := range r.Agg[xi] {
				if n := r.Agg[xi][vi].N(); n < 2 || n > 4 {
					t.Errorf("trial %d cell (%d,%d): n = %d outside [2,4]", trial, xi, vi, n)
				}
			}
		}
	}
}

// sameInstantWoundCycle groups wound events by simulated timestamp, builds
// the wounder→victim graph of each instant and reports a description of
// the first cycle found ("" when acyclic — Theorem 2 holds).
func sameInstantWoundCycle(wounds []trace.Event) string {
	byAt := map[time.Duration][][2]int{}
	for _, ev := range wounds {
		byAt[ev.At] = append(byAt[ev.At], [2]int{ev.Txn, ev.Other})
	}
	for at, edges := range byAt {
		adj := map[int][]int{}
		for _, e := range edges {
			adj[e[0]] = append(adj[e[0]], e[1])
		}
		const (
			visiting = 1
			done     = 2
		)
		state := map[int]int{}
		var dfs func(n int) bool
		dfs = func(n int) bool {
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
				return fmt.Sprintf("wound cycle at t=%v among %d wounds", at, len(edges))
			}
		}
	}
	return ""
}
