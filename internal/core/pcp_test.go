package core

import (
	"testing"

	"repro/internal/txn"
)

// TestPCPNeverAborts: PCP's admission rule guarantees an admitted
// transaction's locks are free, so nothing is ever wounded.
func TestPCPNeverAborts(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		res := mustRun(t, smallMM(PCP, seed))
		if res.Restarts != 0 {
			t.Fatalf("MM seed %d: PCP aborted %d transactions", seed, res.Restarts)
		}
		if res.Deadlocks != 0 {
			t.Fatalf("MM seed %d: PCP deadlocked", seed)
		}
	}
}

// TestPCPRejectsDiskConfig: ceiling guarantees assume no self-suspension,
// so the disk-resident configuration is rejected up front.
func TestPCPRejectsDiskConfig(t *testing.T) {
	if _, err := New(DiskConfig(PCP, 1)); err == nil {
		t.Fatal("PCP accepted a disk-resident configuration")
	}
}

// TestPCPScenarioCeilingBlock: the classic PCP behaviours in one scenario —
// priority inheritance lets a blocked urgent transaction accelerate its
// blocker, and a medium transaction with a disjoint access is still held
// back while the inherited holder runs.
func TestPCPScenarioCeilingBlock(t *testing.T) {
	ins := []specIn{
		// T0 (lowest priority): locks item 0 at t=0.
		{arrival: 0, deadline: 300 * msec, items: []txn.Item{0, 1}},
		// T1 (medium): wants only item 2, disjoint from everyone.
		{arrival: 2 * msec, deadline: 200 * msec, items: []txn.Item{2}},
		// T2 (highest): claims item 0, held by T0.
		{arrival: 3 * msec, deadline: 50 * msec, items: []txn.Item{0}},
	}
	cfg := scenarioConfig(PCP, 10, false)
	e, res := runScenario(t, cfg, buildWorkload(10, ins))
	if res.Restarts != 0 {
		t.Fatalf("restarts = %d (PCP must not abort)", res.Restarts)
	}
	// t=0..2: T0 computes item 0. t=2: T1 (higher) preempts (admitted:
	// ceiling(0) is only T0's claim at this instant) and locks item 2.
	// t=3: T2 arrives, is ceiling-blocked on item 0, and T0 inherits
	// T2's priority, preempting T1. T0 finishes item 0 (one 1 ms
	// remains... 2 of 4 ms remain) at 5, item 1 at 9 (admitted over
	// T1's item-2 ceiling thanks to inheritance). T2 runs 9..13. T1
	// resumes its interrupted update and commits at 16.
	wantCommit(t, e, 0, 9*msec)
	wantCommit(t, e, 2, 13*msec)
	wantCommit(t, e, 1, 16*msec)
	// T0 finished well before its own deadline required because it ran
	// at T2's inherited priority — the signature PCP effect.
}

// TestPCPAdmitsWhenNoContention: disjoint transactions run unimpeded.
func TestPCPAdmitsWhenNoContention(t *testing.T) {
	ins := []specIn{
		{arrival: 0, deadline: 300 * msec, items: []txn.Item{0}},
		{arrival: 1 * msec, deadline: 100 * msec, items: []txn.Item{1}},
	}
	e, res := runScenario(t, scenarioConfig(PCP, 10, false), buildWorkload(10, ins))
	// T1 (higher priority) preempts at 1ms: Pr(T1) > ceiling(0) =
	// Pr(T0)... ceiling(0) is only claimed by T0 itself, so T1 is
	// admitted. T1 runs 1..5, T0 resumes 5..8.
	wantCommit(t, e, 1, 5*msec)
	wantCommit(t, e, 0, 8*msec)
	if res.LockWaits != 0 {
		t.Fatalf("LockWaits = %d, want 0 (no contention)", res.LockWaits)
	}
}

// TestPCPSerializable: PCP schedules are serializable too.
func TestPCPSerializable(t *testing.T) {
	cfg := historyConfig(PCP, 6, false)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ok, cycle := e.History().Serializable(); !ok {
		t.Fatalf("PCP history not serializable: %v", cycle)
	}
}

// TestPCPFirmAndDiskDrain: PCP under firm deadlines and on disk.
func TestPCPFirmAndDiskDrain(t *testing.T) {
	cfg := smallMM(PCP, 2)
	cfg.FirmDeadlines = true
	cfg.Workload.ArrivalRate = 11
	res := mustRun(t, cfg)
	if res.Committed+res.Dropped != 150 {
		t.Fatalf("firm PCP: %d+%d != 150", res.Committed, res.Dropped)
	}
}
