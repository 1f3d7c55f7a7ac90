package core

// Integration tests: full generated workloads under every policy, with the
// engine's internal invariant checks enabled, plus the paper's theorems and
// cross-policy consistency properties.

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/metrics"
	"repro/internal/txn"
)

// smallMM returns a quick main-memory config (reduced count for test speed).
func smallMM(p PolicyKind, seed int64) Config {
	cfg := MainMemoryConfig(p, seed)
	cfg.Workload.Count = 150
	cfg.Workload.ArrivalRate = 8
	cfg.CheckInvariants = true
	return cfg
}

// smallDisk returns a quick disk-resident config.
func smallDisk(p PolicyKind, seed int64) Config {
	cfg := DiskConfig(p, seed)
	cfg.Workload.Count = 80
	cfg.Workload.ArrivalRate = 5
	cfg.CheckInvariants = true
	return cfg
}

func mustRun(t *testing.T, cfg Config) metrics.Result {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAllPoliciesCompleteMainMemory(t *testing.T) {
	for _, p := range Policies() {
		p := p
		t.Run(string(p), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				res := mustRun(t, smallMM(p, seed))
				if res.Committed != 150 {
					t.Fatalf("seed %d: committed %d/150", seed, res.Committed)
				}
			}
		})
	}
}

func TestAllPoliciesCompleteDisk(t *testing.T) {
	for _, p := range Policies() {
		p := p
		if p == PCP {
			continue // main-memory only (see Config.Validate)
		}
		t.Run(string(p), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				res := mustRun(t, smallDisk(p, seed))
				if res.Committed != 80 {
					t.Fatalf("seed %d: committed %d/80", seed, res.Committed)
				}
			}
		})
	}
}

// TestTheorem1NoLockWaitUnderCCA: CCA never blocks on data (its deadlock
// freedom); the engine also asserts this at every scheduling point via
// CheckInvariants.
func TestTheorem1NoLockWaitUnderCCA(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		if res := mustRun(t, smallMM(CCA, seed)); res.LockWaits != 0 {
			t.Fatalf("MM seed %d: %d lock waits under CCA", seed, res.LockWaits)
		}
		if res := mustRun(t, smallDisk(CCA, seed)); res.LockWaits != 0 {
			t.Fatalf("disk seed %d: %d lock waits under CCA", seed, res.LockWaits)
		}
	}
}

// TestNoDeadlockUnderHPPolicies: EDF-HP and FCFS waits always point at
// higher-priority holders, so the cycle detector must never fire.
func TestNoDeadlockUnderHPPolicies(t *testing.T) {
	for _, p := range []PolicyKind{EDFHP, FCFS, CCA} {
		for seed := int64(1); seed <= 3; seed++ {
			if res := mustRun(t, smallDisk(p, seed)); res.Deadlocks != 0 {
				t.Fatalf("%s seed %d: %d deadlocks", p, seed, res.Deadlocks)
			}
		}
	}
}

// TestEDFWPNeverAborts: wait-promote resolves every conflict by blocking;
// the only aborts are deadlock victims.
func TestEDFWPNeverAborts(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		res := mustRun(t, smallMM(EDFWP, seed))
		if res.Restarts != res.Deadlocks {
			t.Fatalf("seed %d: %d restarts but %d deadlocks (WP must only abort deadlock victims)",
				seed, res.Restarts, res.Deadlocks)
		}
	}
}

// TestDeterministicReplay: identical config and seed yields identical
// results, event counts included.
func TestDeterministicReplay(t *testing.T) {
	for _, mk := range []func(PolicyKind, int64) Config{smallMM, smallDisk} {
		for _, p := range []PolicyKind{CCA, EDFHP} {
			a := mustRun(t, mk(p, 7))
			b := mustRun(t, mk(p, 7))
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: replay diverged:\n%+v\n%+v", p, a, b)
			}
		}
	}
}

// TestEveryPolicySeesTheSameWorkload: New draws the workload from
// cfg.Workload and cfg.Seed alone, so every policy run on one seed gets the
// same transactions — a policy comparison needs no archived input.
func TestEveryPolicySeesTheSameWorkload(t *testing.T) {
	const seed = 3
	for name, mk := range map[string]func(PolicyKind, int64) Config{
		"main memory": MainMemoryConfig, "disk": DiskConfig,
	} {
		var first *Engine
		compared := 0
		for _, p := range Policies() {
			if name == "disk" && p == PCP {
				continue // PCP refuses a disk-resident database
			}
			e, err := New(mk(p, seed))
			if err != nil {
				t.Fatalf("%s %s: %v", name, p, err)
			}
			compared++
			if len(e.wl.Txns) == 0 {
				t.Fatalf("%s %s: empty workload", name, p)
			}
			if first == nil {
				first = e
			} else if !reflect.DeepEqual(first.wl, e.wl) {
				t.Fatalf("%s: %s drew a different workload from %s on seed %d", name, p, first.cfg.Policy, seed)
			}
		}
		if compared < len(Policies())-1 {
			t.Fatalf("%s: compared %d policies", name, compared)
		}
	}
}

// TestCCAZeroWeightEqualsEDFHPMainMemory: the paper's observation that
// penalty-weight 0 produces EDF-HP on a main-memory database.
func TestCCAZeroWeightEqualsEDFHPMainMemory(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		cca := smallMM(CCA, seed)
		cca.PenaltyWeight = 0
		edf := smallMM(EDFHP, seed)
		a, b := mustRun(t, cca), mustRun(t, edf)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: w=0 CCA != EDF-HP:\n%+v\n%+v", seed, a, b)
		}
	}
}

// TestLargeWeightActsLikeEDFWait: a huge penalty weight suppresses nearly
// all aborts (the paper's EDF-Wait limit). With the IOwait filter and no
// lock waits, CCA with w→∞ should restart (almost) nothing.
func TestLargeWeightActsLikeEDFWait(t *testing.T) {
	cfg := smallMM(CCA, 3)
	cfg.PenaltyWeight = 1e9
	res := mustRun(t, cfg)
	if res.Restarts != 0 {
		t.Fatalf("restarts = %d, want 0 with w=1e9", res.Restarts)
	}
}

// TestConservationAcrossPolicies: every policy commits every transaction
// exactly once and reports self-consistent utilisations.
func TestConservationAcrossPolicies(t *testing.T) {
	for _, p := range Policies() {
		res := mustRun(t, smallMM(p, 11))
		if res.Committed != 150 {
			t.Fatalf("%s: committed %d", p, res.Committed)
		}
		if res.CPUUtilization <= 0 || res.CPUUtilization > 1.0000001 {
			t.Fatalf("%s: CPU utilisation %v out of (0,1]", p, res.CPUUtilization)
		}
		if res.MissPercent < 0 || res.MissPercent > 100 {
			t.Fatalf("%s: miss%% %v", p, res.MissPercent)
		}
		if res.AvgPListSize < 0 {
			t.Fatalf("%s: negative P-list size", p)
		}
	}
}

// TestLocksReleasedAtEnd: after a run the lock table is empty.
func TestLocksReleasedAtEnd(t *testing.T) {
	e, err := New(smallMM(CCA, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n := lockedItems(e); n != 0 {
		t.Fatalf("%d items still locked after drain", n)
	}
	for _, tx := range e.all {
		if tx.state != StateCommitted {
			t.Fatalf("T%d in state %v after drain", tx.id(), tx.state)
		}
	}
}

// lockedItems counts the items with a lock holder, and fails the count with
// -1 while the P-list is non-empty: both are zero once every lock is gone.
func lockedItems(e *Engine) int {
	if len(e.ci.plist) != 0 {
		return -1
	}
	n := 0
	for i := range e.ci.items {
		if e.ci.items[i].has.first != nil {
			n++
		}
	}
	return n
}

// TestPaperPListSize: the paper reports an average of 1-2 partially
// executed transactions with base parameters.
func TestPaperPListSize(t *testing.T) {
	cfg := MainMemoryConfig(CCA, 1)
	cfg.Workload.Count = 400
	cfg.Workload.ArrivalRate = 8
	res := mustRun(t, cfg)
	if res.AvgPListSize > 4 {
		t.Fatalf("average P-list size %v is far above the paper's 1-2", res.AvgPListSize)
	}
}

// TestCCANotWorseThanEDFOnBase: the headline comparison at a contended
// arrival rate, averaged over several seeds — CCA must restart less and
// miss no more than EDF-HP.
func TestCCANotWorseThanEDFOnBase(t *testing.T) {
	var edfMiss, ccaMiss, edfRestarts, ccaRestarts float64
	const seeds = 6
	for seed := int64(1); seed <= seeds; seed++ {
		cfgE := MainMemoryConfig(EDFHP, seed)
		cfgE.Workload.Count = 300
		cfgE.Workload.ArrivalRate = 8
		cfgC := cfgE
		cfgC.Policy = CCA
		re, rc := mustRun(t, cfgE), mustRun(t, cfgC)
		edfMiss += re.MissPercent
		ccaMiss += rc.MissPercent
		edfRestarts += re.RestartsPerTxn
		ccaRestarts += rc.RestartsPerTxn
	}
	if ccaRestarts >= edfRestarts {
		t.Errorf("CCA restarts/txn %.3f >= EDF-HP %.3f", ccaRestarts/seeds, edfRestarts/seeds)
	}
	if ccaMiss > edfMiss*1.1+1 {
		t.Errorf("CCA miss%% %.2f materially worse than EDF-HP %.2f", ccaMiss/seeds, edfMiss/seeds)
	}
}

// TestMultiprocessorCompletes (extension): 2 and 4 CPUs drain every policy.
func TestMultiprocessorCompletes(t *testing.T) {
	for _, cpus := range []int{2, 4} {
		for _, p := range []PolicyKind{CCA, EDFHP} {
			cfg := smallMM(p, 2)
			cfg.NumCPUs = cpus
			cfg.Workload.ArrivalRate = 12
			res := mustRun(t, cfg)
			if res.Committed != 150 {
				t.Fatalf("%s on %d CPUs: committed %d", p, cpus, res.Committed)
			}
		}
	}
}

// TestReadLockWorkloadCompletes (extension): shared locks across policies.
func TestReadLockWorkloadCompletes(t *testing.T) {
	for _, p := range Policies() {
		cfg := smallMM(p, 4)
		cfg.Workload.ReadFraction = 0.5
		res := mustRun(t, cfg)
		if res.Committed != 150 {
			t.Fatalf("%s with read locks: committed %d", p, res.Committed)
		}
	}
}

// TestCriticalityWorkloadCompletes (extension).
func TestCriticalityWorkloadCompletes(t *testing.T) {
	cfg := smallMM(CCA, 4)
	cfg.Workload.CriticalityLevels = 3
	if res := mustRun(t, cfg); res.Committed != 150 {
		t.Fatalf("criticality workload: committed %d", res.Committed)
	}
}

// TestProportionalRecoveryCompletes (extension).
func TestProportionalRecoveryCompletes(t *testing.T) {
	for _, p := range []PolicyKind{CCA, EDFHP} {
		cfg := smallMM(p, 4)
		cfg.RecoveryProportionalFactor = 1
		if res := mustRun(t, cfg); res.Committed != 150 {
			t.Fatalf("%s proportional recovery: committed %d", p, res.Committed)
		}
	}
}

// TestConfigValidation rejects malformed configs.
func TestConfigValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Policy = "nope" },
		func(c *Config) { c.PenaltyWeight = -1 },
		func(c *Config) { c.AbortCost = -time.Millisecond },
		func(c *Config) { c.NumCPUs = 0 },
		func(c *Config) { c.RecoveryProportionalFactor = -1 },
		func(c *Config) { c.Workload.Count = 0 },
		func(c *Config) { c.PenaltyWeight = math.NaN() },
		func(c *Config) { c.PenaltyWeight = math.Inf(1) },
		func(c *Config) { c.RecoveryProportionalFactor = math.NaN() },
		func(c *Config) { c.RecoveryProportionalFactor = math.Inf(1) },
		func(c *Config) { c.Workload.ArrivalRate = math.NaN() },
	}
	for i, mutate := range cases {
		cfg := MainMemoryConfig(CCA, 1)
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestNewWithWorkloadValidation rejects malformed hand-built workloads.
func TestNewWithWorkloadValidation(t *testing.T) {
	cfg := MainMemoryConfig(CCA, 1)
	cfg.Workload.DBSize = 5
	if _, err := NewWithWorkload(cfg, nil); err == nil {
		t.Error("nil workload accepted")
	}
	bad := buildWorkload(5, []specIn{{arrival: 0, deadline: msec, items: nil}})
	if _, err := NewWithWorkload(cfg, bad); err == nil {
		t.Error("itemless transaction accepted")
	}
	oob := buildWorkload(5, []specIn{{arrival: 0, deadline: msec, items: []txn.Item{9}}})
	if _, err := NewWithWorkload(cfg, oob); err == nil {
		t.Error("out-of-range item accepted")
	}
	twice := buildWorkload(5, []specIn{{arrival: 0, deadline: msec, items: []txn.Item{2, 1, 2}}})
	if _, err := NewWithWorkload(cfg, twice); err == nil {
		t.Error("transaction naming an item twice accepted")
	}
	unordered := buildWorkload(5, []specIn{
		{arrival: 10 * msec, deadline: 20 * msec, items: []txn.Item{0}},
		{arrival: 5 * msec, deadline: 20 * msec, items: []txn.Item{1}},
	})
	if _, err := NewWithWorkload(cfg, unordered); err == nil {
		t.Error("unordered arrivals accepted")
	}
}

// TestStateString covers the state names.
func TestStateString(t *testing.T) {
	names := map[State]string{
		stateReady:     "ready",
		StateRunning:   "running",
		StateIOWait:    "io-wait",
		StateLockWait:  "lock-wait",
		StateAborting:  "aborting",
		StateCommitted: "committed",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), s.String(), want)
		}
	}
	if State(99).String() == "" {
		t.Error("unknown state should render")
	}
}

// TestQuickEngineAlwaysDrains: random small parameter draws under every
// policy always commit every transaction with invariants on.
func TestQuickEngineAlwaysDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64, rateQ, dbQ, polQ uint8) bool {
		pols := Policies()
		cfg := MainMemoryConfig(pols[int(polQ)%len(pols)], seed)
		cfg.Workload.Count = 40
		cfg.Workload.ArrivalRate = 1 + float64(rateQ%15)
		cfg.Workload.DBSize = 10 + int(dbQ%100)
		cfg.CheckInvariants = true
		e, err := New(cfg)
		if err != nil {
			return false
		}
		res, err := e.Run()
		return err == nil && res.Committed == 40
	}
	if err := quick.Check(f, quickConfig(50, 1)); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDiskEngineAlwaysDrains: as above for the disk configuration.
func TestQuickDiskEngineAlwaysDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64, rateQ, polQ uint8) bool {
		pols := Policies()
		pol := pols[int(polQ)%len(pols)]
		if pol == PCP {
			pol = EDFHP // PCP is main-memory only
		}
		cfg := DiskConfig(pol, seed)
		cfg.Workload.Count = 30
		cfg.Workload.ArrivalRate = 1 + float64(rateQ%7)
		cfg.CheckInvariants = true
		e, err := New(cfg)
		if err != nil {
			return false
		}
		res, err := e.Run()
		return err == nil && res.Committed == 30
	}
	if err := quick.Check(f, quickConfig(40, 1)); err != nil {
		t.Fatal(err)
	}
}
