package core

// Multi-CPU dispatch determinism: with several CPU slots the dispatch pass
// fills slots from the ranked pool in order, so any instability in pool
// ordering or desired-set construction would surface as schedule divergence
// here first. These tests pin (a) replay determinism — identical configs
// replay identical multi-CPU schedules — and (b) equivalence — the recorded
// digests hold on multiprocessor configurations, with invariants (stored
// priorities against fresh evaluations included) checked at every scheduling
// point.

import (
	"reflect"
	"testing"
)

// multiCPUConfig is a moderately contended multiprocessor configuration:
// the enlarged database keeps the pairwise conflict probability low enough
// that several CPUs genuinely run in parallel (on the 30-object base
// database CCA's compatibility rule serialises execution).
func multiCPUConfig(pol PolicyKind, cpus int, seed int64) Config {
	cfg := MainMemoryConfig(pol, seed)
	cfg.Workload.Count = 200
	cfg.Workload.DBSize = 2000
	cfg.Workload.ArrivalRate = 8 * float64(cpus)
	cfg.NumCPUs = cpus
	cfg.CheckInvariants = true
	return cfg
}

// TestMultiCPUDeterministicReplay: the same multi-CPU config replays to an
// identical schedule.
func TestMultiCPUDeterministicReplay(t *testing.T) {
	for _, cpus := range []int{2, 4} {
		cfg := multiCPUConfig(CCA, cpus, 7)
		s1, r1 := runForEquivalence(t, cfg, nil)
		s2, r2 := runForEquivalence(t, cfg, nil)
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("cpus=%d: replay diverged", cpus)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("cpus=%d: replay metrics diverged", cpus)
		}
	}
}

// TestMultiCPUDispatchEquivalence: the recorded digests hold on
// multiprocessor configurations across policies with distinct Staticness
// contracts (static EDF-HP, conflict-clocked CCA, dynamic LSF/AED) and on a
// multi-disk configuration where IO waits interleave with dispatch.
func TestMultiCPUDispatchEquivalence(t *testing.T) {
	for _, cpus := range []int{2, 4} {
		for _, pol := range []PolicyKind{CCA, EDFHP, LSFHP, AED} {
			for seed := int64(1); seed <= 2; seed++ {
				assertEquivalent(t, "mp-"+string(pol), multiCPUConfig(pol, cpus, seed), nil)
			}
		}
	}
	cfg := DiskConfig(CCA, 5)
	cfg.Workload.Count = 120
	cfg.NumCPUs = 4
	cfg.NumDisks = 2
	assertEquivalent(t, "mp-disk", cfg, nil)
}
