package rtdbs_test

import (
	"testing"

	"repro"
)

func TestRunFacade(t *testing.T) {
	cfg := rtdbs.MainMemoryConfig(rtdbs.CCA, 1)
	cfg.Workload.Count = 100
	res, err := rtdbs.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 100 {
		t.Fatalf("committed = %d", res.Committed)
	}
}

func TestRunSeedsAggregates(t *testing.T) {
	cfg := rtdbs.MainMemoryConfig(rtdbs.EDFHP, 1)
	cfg.Workload.Count = 60
	agg, err := rtdbs.RunSeeds(cfg, rtdbs.Seeds(3))
	if err != nil {
		t.Fatal(err)
	}
	if agg.N() != 3 {
		t.Fatalf("aggregated %d runs", agg.N())
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	if _, err := rtdbs.Run(rtdbs.Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	cfg := rtdbs.MainMemoryConfig("bogus", 1)
	if _, err := rtdbs.Run(cfg); err == nil {
		t.Fatal("bogus policy accepted")
	}
	if _, err := rtdbs.RunSeeds(cfg, rtdbs.Seeds(2)); err == nil {
		t.Fatal("RunSeeds accepted bogus policy")
	}
}

func TestSeedsHelper(t *testing.T) {
	s := rtdbs.Seeds(3)
	if len(s) != 3 || s[0] != 1 || s[2] != 3 {
		t.Fatalf("Seeds(3) = %v", s)
	}
}

func TestPoliciesExposed(t *testing.T) {
	if len(rtdbs.Policies()) != 8 {
		t.Fatalf("policies = %v", rtdbs.Policies())
	}
}

func TestGenerateWorkloadFacade(t *testing.T) {
	cfg := rtdbs.MainMemoryConfig(rtdbs.CCA, 1)
	cfg.Workload.Count = 10
	wl, err := rtdbs.GenerateWorkload(cfg.Workload, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(wl.Txns) != 10 {
		t.Fatalf("generated %d txns", len(wl.Txns))
	}
	e, err := rtdbs.NewWithWorkload(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 10 {
		t.Fatalf("committed = %d", res.Committed)
	}
}

func TestExperimentFacade(t *testing.T) {
	if len(rtdbs.Experiments()) < 7 {
		t.Fatal("too few experiments exposed")
	}
	def, ok := rtdbs.ExperimentByID("4a")
	if !ok {
		t.Fatal("figure 4a not found")
	}
	def.Xs = []float64{4}
	res, err := rtdbs.RunExperiment(def, rtdbs.ExperimentOptions{Seeds: 2, Count: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables()) == 0 {
		t.Fatal("no tables rendered")
	}
}

func TestTablesFacade(t *testing.T) {
	if rtdbs.Table1().Text() == "" || rtdbs.Table2().Text() == "" {
		t.Fatal("parameter tables empty")
	}
}

// TestPaperExampleThroughFacade re-derives the §3.2.2 worked example using
// only the public API.
func TestPaperExampleThroughFacade(t *testing.T) {
	progA := &rtdbs.Program{
		Name: "A",
		Root: &rtdbs.Node{
			Label: "A", Accesses: rtdbs.NewItemSet(0),
			Children: []*rtdbs.Node{
				{Label: "Aa", Accesses: rtdbs.NewItemSet(1, 2, 3)},
				{Label: "Ab", Accesses: rtdbs.NewItemSet(4, 5, 6)},
			},
		},
	}
	a, err := rtdbs.AnalyzeProgram(progA)
	if err != nil {
		t.Fatal(err)
	}
	bAn, err := rtdbs.AnalyzeProgram(rtdbs.FlatProgram("B", 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	bState := rtdbs.StateAt(bAn, "B")

	if got := rtdbs.ConflictBetween(rtdbs.StateAt(a, "A"), bState); got != rtdbs.ConditionallyConflict {
		t.Errorf("A vs B = %v", got)
	}
	if got := rtdbs.ConflictBetween(rtdbs.StateAt(a, "Aa"), bState); got != rtdbs.Conflict {
		t.Errorf("Aa vs B = %v", got)
	}
	if got := rtdbs.ConflictBetween(rtdbs.StateAt(a, "Ab"), bState); got != rtdbs.NoConflict {
		t.Errorf("Ab vs B = %v", got)
	}
	if got := rtdbs.SafetyOf(rtdbs.StateAt(a, "Aa"), bState); got != rtdbs.Unsafe {
		t.Errorf("safety(Aa wrt B) = %v", got)
	}
	if got := rtdbs.SafetyOf(bState, rtdbs.StateAt(a, "A")); got != rtdbs.ConditionallyUnsafe {
		t.Errorf("safety(B wrt A) = %v", got)
	}
}

// TestHeadlineResult asserts the paper's core claim end-to-end through the
// facade: on the base workload at a contended rate, CCA improves on EDF-HP
// in miss percent, lateness and restarts.
func TestHeadlineResult(t *testing.T) {
	get := func(p rtdbs.PolicyKind) rtdbs.Result {
		cfg := rtdbs.MainMemoryConfig(p, 1)
		cfg.Workload.ArrivalRate = 8
		cfg.Workload.Count = 400
		agg, err := rtdbs.RunSeeds(cfg, rtdbs.Seeds(5))
		if err != nil {
			t.Fatal(err)
		}
		return agg.Summary()
	}
	edf, cca := get(rtdbs.EDFHP), get(rtdbs.CCA)
	if cca.MissPercent >= edf.MissPercent {
		t.Errorf("CCA miss %.2f%% >= EDF-HP %.2f%%", cca.MissPercent, edf.MissPercent)
	}
	if cca.MeanLatenessMs >= edf.MeanLatenessMs {
		t.Errorf("CCA lateness %.2f >= EDF-HP %.2f", cca.MeanLatenessMs, edf.MeanLatenessMs)
	}
	if cca.RestartsPerTxn >= edf.RestartsPerTxn {
		t.Errorf("CCA restarts %.3f >= EDF-HP %.3f", cca.RestartsPerTxn, edf.RestartsPerTxn)
	}
}
