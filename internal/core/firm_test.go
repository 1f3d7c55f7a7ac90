package core

// Firm-deadline mode tests (extension; Haritsa's model, which the paper
// contrasts with its soft model in §1-§2).

import (
	"testing"

	"repro/internal/txn"
)

// TestFirmScenarioDrop: a transaction whose deadline cannot be met is
// discarded exactly at its deadline; the other transaction commits.
func TestFirmScenarioDrop(t *testing.T) {
	ins := []specIn{
		// Needs 8ms but deadline at 5ms: dropped at 5ms.
		{arrival: 0, deadline: 5 * msec, items: []txn.Item{0, 1}},
		// Arrives during T0's doomed run; completes fine afterwards.
		{arrival: 1 * msec, deadline: 100 * msec, items: []txn.Item{2}},
	}
	cfg := scenarioConfig(EDFHP, 10, false)
	cfg.FirmDeadlines = true
	e, res := runScenario(t, cfg, buildWorkload(10, ins))
	if res.Dropped != 1 || res.Committed != 1 {
		t.Fatalf("dropped=%d committed=%d, want 1/1", res.Dropped, res.Committed)
	}
	if e.all[0].state != StateDropped {
		t.Fatalf("T0 state = %v, want dropped", e.all[0].state)
	}
	// T0 dropped at 5ms; T1 then runs 5..9.
	wantCommit(t, e, 1, 9*msec)
	if res.MissPercent != 50 {
		t.Fatalf("MissPercent = %v, want 50 (1 dropped of 2)", res.MissPercent)
	}
}

// TestFirmDropReleasesLocks: the dropped transaction's locks are released
// and a waiter is granted.
func TestFirmDropReleasesLocks(t *testing.T) {
	ins := []specIn{
		{arrival: 0, deadline: 6 * msec, items: []txn.Item{0, 1}},          // dropped at 6
		{arrival: 1 * msec, deadline: 200 * msec, items: []txn.Item{0, 1}}, // conflicts
	}
	cfg := scenarioConfig(EDFWP, 10, false) // waiting policy: T1 blocks on T0
	cfg.FirmDeadlines = true
	e, res := runScenario(t, cfg, buildWorkload(10, ins))
	if res.Dropped != 1 || res.Committed != 1 {
		t.Fatalf("dropped=%d committed=%d", res.Dropped, res.Committed)
	}
	// T1 blocked at 1ms on item 0; T0 dropped at 6ms; T1 granted and
	// finishes its two updates by 14ms (compute restarts fresh at 6).
	wantCommit(t, e, 1, 14*msec)
	if lockedItems(e) != 0 {
		t.Fatal("locks leak after drop")
	}
}

// TestFirmAllPoliciesDrain: every policy finishes (commit or drop) every
// transaction under firm deadlines, in both configurations.
func TestFirmAllPoliciesDrain(t *testing.T) {
	for _, p := range Policies() {
		cfg := smallMM(p, 3)
		cfg.FirmDeadlines = true
		cfg.Workload.ArrivalRate = 10
		res := mustRun(t, cfg)
		if res.Committed+res.Dropped != 150 {
			t.Fatalf("%s MM: %d+%d != 150", p, res.Committed, res.Dropped)
		}
		if p == PCP {
			continue // main-memory only
		}
		dcfg := smallDisk(p, 3)
		dcfg.FirmDeadlines = true
		res = mustRun(t, dcfg)
		if res.Committed+res.Dropped != 80 {
			t.Fatalf("%s disk: %d+%d != 80", p, res.Committed, res.Dropped)
		}
	}
}

// TestFirmSerializable: dropped transactions leave no trace in the
// committed history or the store.
func TestFirmSerializable(t *testing.T) {
	cfg := historyConfig(CCA, 5, false)
	cfg.FirmDeadlines = true
	cfg.Workload.ArrivalRate = 11 // overload so drops occur
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Skip("no drops at this load; firm serializability vacuous")
	}
	if ok, cycle := e.History().Serializable(); !ok {
		t.Fatalf("firm-mode history not serializable: %v", cycle)
	}
	if e.History().Committed() != res.Committed {
		t.Fatal("history commit count mismatch")
	}
	for it := 0; it < cfg.Workload.DBSize; it++ {
		w := e.Store().Get(txn.Item(it)).Writer
		if w >= 0 && e.all[int(w)].state == StateDropped {
			t.Fatalf("item %d written by dropped T%d", it, w)
		}
	}
}

// TestFirmMissPercentHigherUnderOverload: in overload, firm mode converts
// hopeless lateness into drops; soft-mode lateness disappears but the miss
// percent reflects the drops.
func TestFirmCCAStillBeatsEDF(t *testing.T) {
	get := func(p PolicyKind) float64 {
		var total float64
		for seed := int64(1); seed <= 5; seed++ {
			cfg := MainMemoryConfig(p, seed)
			cfg.Workload.Count = 300
			cfg.Workload.ArrivalRate = 10
			cfg.FirmDeadlines = true
			res := mustRun(t, cfg)
			total += res.MissPercent
		}
		return total / 5
	}
	edf, cca := get(EDFHP), get(CCA)
	if cca > edf+1 {
		t.Fatalf("firm mode: CCA miss %.2f%% materially worse than EDF-HP %.2f%%", cca, edf)
	}
}

// TestFirmDropDuringIOService: a transaction dropped while its disk access
// is in service leaves the disk busy until completion and never restarts.
func TestFirmDropDuringIOService(t *testing.T) {
	ins := []specIn{
		{arrival: 0, deadline: 10 * msec, items: []txn.Item{0}, needsIO: []bool{true}}, // IO 0..25, dropped at 10
		{arrival: 1 * msec, deadline: 100 * msec, items: []txn.Item{1}, needsIO: []bool{true}},
	}
	cfg := scenarioConfig(CCA, 10, true)
	cfg.FirmDeadlines = true
	e, res := runScenario(t, cfg, buildWorkload(10, ins))
	if res.Dropped != 1 || res.Committed != 1 {
		t.Fatalf("dropped=%d committed=%d", res.Dropped, res.Committed)
	}
	// T1's IO queues behind T0's orphaned access (0..25), runs 25..50,
	// computes 50..54.
	wantCommit(t, e, 1, 54*msec)
	if e.all[0].restarts != 0 {
		t.Fatal("dropped transaction restarted")
	}
}
