package core

// Scheduling hot-path benchmarks: full simulations of the one engine in
// the two regimes that matter:
//
//   - base-mm: the paper's Table 1 database (30 items) — heavily contended,
//     small bitsets;
//   - large-db-high-mpl: a large database (8192 items) driven past
//     saturation so hundreds of transactions are live at once — the regime
//     a full rescan or a per-pass sort would collapse in.
//
// `BENCH_BASELINE=1 go test ./internal/core -run TestWriteBenchBaseline`
// refreshes the committed BENCH_core.json baseline (see DESIGN.md) so
// future changes can track the trajectory. Run the benchmarks themselves
// with -benchmem: allocation counts are first-class here — the dispatch
// pass's whole point is an allocation-free steady state.

import (
	"encoding/json"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/txn"
)

func benchCCAConfig(dbSize, count int, rate float64) Config {
	cfg := MainMemoryConfig(CCA, 7)
	cfg.Workload.DBSize = dbSize
	cfg.Workload.Count = count
	cfg.Workload.ArrivalRate = rate
	return cfg
}

func benchRun(b *testing.B, cfg Config) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCCABaseFast(b *testing.B) { benchRun(b, benchCCAConfig(30, 300, 8)) }

func BenchmarkCCALargeDBHighMPLFast(b *testing.B) {
	benchRun(b, benchCCAConfig(8192, 400, 25))
}

// With evalStatic the pass stops calling evaluate entirely after each
// transaction's first pass.
func BenchmarkEDFHPBaseFast(b *testing.B) {
	cfg := benchCCAConfig(30, 300, 8)
	cfg.Policy = EDFHP
	benchRun(b, cfg)
}

// The predict-policy pair isolates the cost of the conflict-prediction
// term: CCA-P with live stats (observed-rate penalty scaling + decision
// tap feeding the table) against stock CCA on the same workload. The
// acceptance floor is throughput ≥0.9× stock — prediction must ride the
// memoised dispatch pass, not defeat it.
func BenchmarkCCAPBaseFast(b *testing.B) {
	cfg := benchCCAConfig(30, 300, 8)
	cfg.Policy = CCAP
	cfg.Predict = DefaultPredictConfig()
	benchRun(b, cfg)
}

func BenchmarkCCATBaseFast(b *testing.B) {
	cfg := benchCCAConfig(30, 300, 8)
	cfg.Policy = CCAT
	cfg.Predict = DefaultPredictConfig()
	benchRun(b, cfg)
}

// TestObserverTapZeroAlloc pins the decision-tap cost with no observer
// attached: every notify helper must be a nil-check and nothing else —
// zero allocations on the hot paths that wound, block, restart and commit
// take.
func TestObserverTapZeroAlloc(t *testing.T) {
	cfg := benchCCAConfig(30, 50, 8)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.obs != nil {
		t.Fatal("stock CCA engine has an observer attached")
	}
	if len(e.all) < 2 {
		t.Fatal("workload too small")
	}
	a, b := e.all[0], e.all[1]
	if allocs := testing.AllocsPerRun(100, func() {
		e.notifyWound(a, b)
		e.notifyBlock(a, b)
		e.notifyRestart(a)
		e.notifyTerminal(a, true, false)
	}); allocs != 0 {
		t.Fatalf("observer tap with no observer allocates %.1f times per cycle", allocs)
	}
}

// The allocation budget of the serving path below the front-end: what one
// committed transaction may cost the collector once the service is warm.
const (
	maxSubmitObjectsPerTxn = 2
	maxSubmitBytesPerTxn   = 128
)

// serviceSubmitAllocs measures that cost: a warmed 1-shard Service takes
// disjointBatchSize-entry item-disjoint batches (the wire_open shape) from
// SubmitBatch to the last commit, counted across every goroutine — caller
// and engine driver alike. Objects come from testing.AllocsPerRun, bytes
// from the runtime's running total over the same runs.
func serviceSubmitAllocs(tb testing.TB) (objects, bytes float64) {
	tb.Helper()
	cfg := MainMemoryConfig(CCA, 1)
	cfg.Workload.DBSize = disjointDBSize
	s, stop := startService(tb, cfg, ServiceOptions{Speed: 10000})
	defer stop()

	var left atomic.Int32
	var failed atomic.Bool
	idle := make(chan struct{}, 1)
	done := func(o ServiceOutcome, err error) {
		if err != nil || o.State != StateCommitted {
			failed.Store(true)
		}
		if left.Add(-1) == 0 {
			idle <- struct{}{}
		}
	}
	subs := make([]Submission, disjointBatchSize)
	for j := range subs {
		subs[j].Req = ServiceRequest{
			Items:    []txn.Item{txn.Item(2 * j), txn.Item(2*j + 1)},
			Compute:  50 * time.Microsecond,
			Deadline: time.Minute,
		}
	}
	batch := func() {
		for j := range subs {
			subs[j].Done = done // SubmitBatch consumes it
		}
		left.Store(disjointBatchSize)
		s.SubmitBatch(subs)
		<-idle
	}
	for i := 0; i < 8; i++ {
		batch() // warm: free lists, lock tables and the calendar reach their size
	}
	const runs = 200
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	perBatch := testing.AllocsPerRun(runs, batch)
	runtime.ReadMemStats(&m1)
	if failed.Load() {
		tb.Fatal("a budget-run transaction did not commit")
	}
	// AllocsPerRun calls batch once more than it counts.
	return perBatch / disjointBatchSize,
		float64(m1.TotalAlloc-m0.TotalAlloc) / ((runs + 1) * disjointBatchSize)
}

// checkSubmitBudget measures the serving path and fails t if a committed
// transaction costs more than the budget.
func checkSubmitBudget(t *testing.T) (objects, bytes float64) {
	t.Helper()
	objects, bytes = serviceSubmitAllocs(t)
	t.Logf("service submit→commit: %.3f objects, %.1f B per committed transaction", objects, bytes)
	if objects > maxSubmitObjectsPerTxn || bytes > maxSubmitBytesPerTxn {
		t.Errorf("%.3f objects and %.1f B per committed transaction; budget is %d objects, %d B",
			objects, bytes, maxSubmitObjectsPerTxn, maxSubmitBytesPerTxn)
	}
	return objects, bytes
}

// TestServiceSubmitAllocBudget enforces the budget on every run; the
// measured values go to BENCH_core.json's service_submit row.
func TestServiceSubmitAllocBudget(t *testing.T) { checkSubmitBudget(t) }

// benchModeResult is one configuration's measurement in BENCH_core.json.
type benchModeResult struct {
	Ms       float64 `json:"ms"`
	BOp      int64   `json:"b_op"`
	AllocsOp int64   `json:"allocs_op"`
}

// benchBaselineEntry is one row of BENCH_core.json.
type benchBaselineEntry struct {
	Case   string          `json:"case"`
	DBSize int             `json:"db_size"`
	Txns   int             `json:"txns"`
	Rate   float64         `json:"arrival_rate"`
	Engine benchModeResult `json:"engine"`
}

// dispatchGrowthPoint is one point of BENCH_core.json's dispatch_growth
// curve.
type dispatchGrowthPoint struct {
	Live       int     `json:"live"`
	NsPerPoint float64 `json:"ns_per_scheduling_point"`
}

// TestWriteBenchBaseline refreshes the repository's BENCH_core.json when
// BENCH_BASELINE=1 is set. It records wall time, B/op and allocs/op for both
// benchmark configurations via testing.Benchmark and enforces the floors: CCA-P
// keeps ≥0.9× stock CCA's throughput, on the dispatch_growth curve a
// scheduling point over 8192 live transactions may cost at most 3× one over
// 16, on batch_disjoint a conflict-free batch is evaluated exactly once per
// transaction, and on service_submit a committed transaction stays inside the
// allocation budget.
func TestWriteBenchBaseline(t *testing.T) {
	if os.Getenv("BENCH_BASELINE") == "" {
		t.Skip("set BENCH_BASELINE=1 to refresh BENCH_core.json (see DESIGN.md)")
	}
	measure := func(cfg Config) benchModeResult {
		r := testing.Benchmark(func(b *testing.B) { benchRun(b, cfg) })
		return benchModeResult{
			Ms:       float64(r.NsPerOp()) / 1e6,
			BOp:      r.AllocedBytesPerOp(),
			AllocsOp: r.AllocsPerOp(),
		}
	}
	cases := []struct {
		name   string
		dbSize int
		count  int
		rate   float64
	}{
		{"base-mm", 30, 300, 8},
		{"large-db-high-mpl", 8192, 400, 25},
	}
	out := struct {
		Note          string               `json:"note"`
		Refresh       string               `json:"refresh"`
		Cases         []benchBaselineEntry `json:"cases"`
		PredictPolicy struct {
			CCAMs           float64 `json:"cca_ms"`
			CCAPMs          float64 `json:"ccap_ms"`
			ThroughputRatio float64 `json:"throughput_ratio_vs_cca"`
		} `json:"predict_policy"`
		DispatchGrowth struct {
			Note   string                `json:"note"`
			Points []dispatchGrowthPoint `json:"points"`
			Ratio  float64               `json:"ratio_largest_vs_smallest"`
		} `json:"dispatch_growth"`
		BatchDisjoint struct {
			Note        string  `json:"note"`
			HostCPUs    int     `json:"host_cpus"`
			NsPerTxn    float64 `json:"ns_per_txn"`
			EvalsPerTxn float64 `json:"evals_per_txn"`
		} `json:"batch_disjoint"`
		ServiceSubmit struct {
			Note          string  `json:"note"`
			ObjectsPerTxn float64 `json:"objects_per_txn"`
			BytesPerTxn   float64 `json:"bytes_per_txn"`
			MaxObjects    int     `json:"max_objects_per_txn"`
			MaxBytes      int     `json:"max_bytes_per_txn"`
		} `json:"service_submit"`
	}{
		Note:    "CCA engine wall time and allocations per full simulation run, measured by testing.Benchmark; in-process, single goroutine, not capacity",
		Refresh: "BENCH_BASELINE=1 go test ./internal/core -run TestWriteBenchBaseline",
	}
	for _, c := range cases {
		e := benchBaselineEntry{Case: c.name, DBSize: c.dbSize, Txns: c.count, Rate: c.rate}
		e.Engine = measure(benchCCAConfig(c.dbSize, c.count, c.rate))
		out.Cases = append(out.Cases, e)
		t.Logf("%s: %.1fms, %d allocs per run", c.name, e.Engine.Ms, e.Engine.AllocsOp)
	}
	// Predict-policy dispatch overhead: CCA-P with live stats vs stock CCA
	// on the base configuration. Acceptance floor: ≥0.9× stock throughput.
	ccaMs := measure(benchCCAConfig(30, 300, 8)).Ms
	ccapCfg := benchCCAConfig(30, 300, 8)
	ccapCfg.Policy = CCAP
	ccapCfg.Predict = DefaultPredictConfig()
	ccapMs := measure(ccapCfg).Ms
	out.PredictPolicy.CCAMs = ccaMs
	out.PredictPolicy.CCAPMs = ccapMs
	if ccapMs > 0 {
		out.PredictPolicy.ThroughputRatio = ccaMs / ccapMs
	}
	t.Logf("predict-policy: cca %.1fms, cca-p %.1fms → throughput ratio %.2fx", ccaMs, ccapMs, out.PredictPolicy.ThroughputRatio)
	if out.PredictPolicy.ThroughputRatio < 0.9 {
		t.Errorf("predict-policy: cca-p throughput %.2fx stock CCA < 0.9x acceptance floor", out.PredictPolicy.ThroughputRatio)
	}

	// Growth curve: what a scheduling point costs as the live set grows.
	// Ceiling: the largest backlog may cost at most 3× the smallest.
	out.DispatchGrowth.Note = "wall ns per scheduling point (dispatch pass) for one foreground CCA arrival→commit over N parked, non-conflicting live transactions (BenchmarkDispatchGrowth; includes building and retiring the foreground transaction, the same work at every N)"
	for _, n := range dispatchGrowthSizes {
		r := testing.Benchmark(func(b *testing.B) { benchDispatchGrowth(b, n) })
		pt := dispatchGrowthPoint{Live: n, NsPerPoint: r.Extra["ns/point"]}
		out.DispatchGrowth.Points = append(out.DispatchGrowth.Points, pt)
		t.Logf("dispatch-growth: live %d: %.0f ns per scheduling point", n, pt.NsPerPoint)
	}
	pts := out.DispatchGrowth.Points
	out.DispatchGrowth.Ratio = pts[len(pts)-1].NsPerPoint / pts[0].NsPerPoint
	if out.DispatchGrowth.Ratio > 3 {
		t.Errorf("dispatch-growth: live %d costs %.2fx live %d per scheduling point, ceiling 3x",
			pts[len(pts)-1].Live, out.DispatchGrowth.Ratio, pts[0].Live)
	}

	// Conflict-free batch: what dispatch_growth cannot see — 64 live
	// transactions over a 8192-item table instead of one cache-hot
	// foreground. Ceiling: exactly one evaluation per transaction.
	r := testing.Benchmark(benchBatchDisjoint)
	out.BatchDisjoint.Note = "wall ns per transaction, arrival to retirement, for batches of 64 item-disjoint 2-item CCA transactions arriving at one instant over 8192 items (BenchmarkBatchDisjoint); single goroutine, in-process, no serving stack"
	out.BatchDisjoint.HostCPUs = runtime.NumCPU()
	out.BatchDisjoint.NsPerTxn = r.Extra["ns/txn"]
	out.BatchDisjoint.EvalsPerTxn = r.Extra["evals/txn"]
	t.Logf("batch-disjoint: %.0f ns per transaction, %.2f evaluations per transaction", out.BatchDisjoint.NsPerTxn, out.BatchDisjoint.EvalsPerTxn)
	if out.BatchDisjoint.EvalsPerTxn != 1 {
		t.Errorf("batch-disjoint: %.2f evaluations per transaction with no conflict in the system, want exactly 1", out.BatchDisjoint.EvalsPerTxn)
	}

	// Allocation budget of the serving path below the front-end (also
	// enforced on every run by TestServiceSubmitAllocBudget).
	ss := &out.ServiceSubmit
	ss.Note = "heap objects and bytes allocated per committed transaction, SubmitBatch to commit, by a warmed 1-shard core.Service taking 64-entry item-disjoint batches (the wire_open shape): caller and engine driver together, front-end excluded; in-process, not capacity"
	ss.ObjectsPerTxn, ss.BytesPerTxn = checkSubmitBudget(t)
	ss.MaxObjects, ss.MaxBytes = maxSubmitObjectsPerTxn, maxSubmitBytesPerTxn

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("../../BENCH_core.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
