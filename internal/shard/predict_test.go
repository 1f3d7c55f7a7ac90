package shard

// Sharding contracts for the conflict-prediction policies (CCA-P/CCA-T):
//
//  1. One shard is the unsharded engine, bit for bit, including the live
//     statistics table and tuner trajectory (the N=1 runner never merges).
//  2. Degenerate knobs (RateScale=0) stay bit-identical to stock CCA at
//     1 shard AND at N shards — the epoch-boundary view installation
//     re-clocks evaluation but never perturbs the schedule.
//  3. Nondegenerate N-shard runs are deterministic: results and per-shard
//     w trajectories are pure functions of (config, workload, shards,
//     epoch), independent of GOMAXPROCS and repeatable.

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
)

// predictShardConfig is a contended sharded workload under a prediction
// policy: two CPUs per shard so commits see partially-executed peers and
// the statistics tables actually fill.
func predictShardConfig(pol core.PolicyKind, seed int64) core.Config {
	cfg := core.MainMemoryConfig(pol, seed)
	cfg.Workload.Count = 200
	cfg.Workload.DBSize = 2000
	cfg.Workload.ArrivalRate = 16
	cfg.NumCPUs = 2
	cfg.Predict = core.DefaultPredictConfig()
	return cfg
}

// TestPredictOneShardBitIdentical: CCA-P and CCA-T under the 1-shard
// runner equal the unsharded engine exactly — outcomes, metrics, and the
// policy's own statistics snapshot (w, tuner steps, trajectory).
func TestPredictOneShardBitIdentical(t *testing.T) {
	for _, pol := range []core.PolicyKind{core.CCAP, core.CCAT} {
		cfg := predictShardConfig(pol, 3)
		cfg.CheckInvariants = true

		e, err := core.NewWithWorkload(cfg, generate(t, cfg))
		if err != nil {
			t.Fatal(err)
		}
		refRes, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		refOut := e.TxnOutcomes()
		refSnap, ok := e.PredictSnapshot()
		if !ok {
			t.Fatalf("%v: unsharded engine has no predict snapshot", pol)
		}

		r, err := New(cfg, generate(t, cfg), Options{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		if r.predict {
			t.Fatalf("%v: 1-shard runner enabled the epoch merge", pol)
		}
		got, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(refOut, got.outcomes) {
			t.Fatalf("%v: 1-shard outcomes diverge from unsharded", pol)
		}
		_ = refRes
		snap, ok := r.Engines()[0].PredictSnapshot()
		if !ok {
			t.Fatalf("%v: 1-shard engine has no predict snapshot", pol)
		}
		if snap.W != refSnap.W || snap.TunerSteps != refSnap.TunerSteps ||
			!reflect.DeepEqual(snap.WTrajectory, refSnap.WTrajectory) {
			t.Fatalf("%v: 1-shard tuner state diverges: w=%v/%v steps=%d/%d",
				pol, snap.W, refSnap.W, snap.TunerSteps, refSnap.TunerSteps)
		}
	}
}

// TestPredictDegenerateShardEquivalence: with RateScale=0 the prediction
// term vanishes and CCA-P must match stock CCA bit for bit — at one shard
// and at four, where the epoch-boundary merge installs views every 10ms
// of simulated time and must not move a single event.
func TestPredictDegenerateShardEquivalence(t *testing.T) {
	for _, shards := range []int{1, 4} {
		ccaCfg := shardedConfig(7)
		ref := runSharded(t, ccaCfg, generate(t, ccaCfg), Options{Shards: shards})

		ccapCfg := predictShardConfig(core.CCAP, 7)
		ccapCfg.NumCPUs = ccaCfg.NumCPUs // match shardedConfig exactly
		ccapCfg.Predict.RateScale = 0    // degenerate: stats kept, never priced
		r, err := New(ccapCfg, generate(t, ccapCfg), Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if shards > 1 && !r.predict {
			t.Fatal("multi-shard CCA-P runner did not enable the epoch merge")
		}
		got, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("%d shards: degenerate CCA-P diverges from stock CCA", shards)
		}
	}
}

// TestPredictMultiShardDeterministic: a nondegenerate 4-shard CCA-T run —
// live cross-shard statistics merges every epoch, per-shard tuners — is
// identical across GOMAXPROCS settings and repeats, down to each shard's
// w trajectory.
func TestPredictMultiShardDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cfg := predictShardConfig(core.CCAT, 5)
	run := func() (Result, [][]float64) {
		r, err := New(cfg, generate(t, cfg), Options{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		trajs := make([][]float64, len(r.Engines()))
		for i, e := range r.Engines() {
			snap, ok := e.PredictSnapshot()
			if !ok {
				t.Fatalf("shard %d: no predict snapshot", i)
			}
			trajs[i] = snap.WTrajectory
		}
		return res, trajs
	}
	var ref Result
	var refTrajs [][]float64
	for i, procs := range []int{1, 2, 4, 2} {
		runtime.GOMAXPROCS(procs)
		res, trajs := run()
		if i == 0 {
			ref, refTrajs = res, trajs
			continue
		}
		if !reflect.DeepEqual(ref, res) {
			t.Fatalf("4-shard CCA-T result diverges at GOMAXPROCS=%d", procs)
		}
		if !reflect.DeepEqual(refTrajs, trajs) {
			t.Fatalf("4-shard CCA-T w trajectories diverge at GOMAXPROCS=%d", procs)
		}
	}
}
