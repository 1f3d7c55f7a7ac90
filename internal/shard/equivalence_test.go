package shard

// The sharded engine's two determinism contracts:
//
//  1. N=1 is the unsharded engine, bit for bit: same per-transaction
//     outcomes, same metrics, with the engine's invariant checks on — the
//     epoch boundaries only partition the event sequence, they never
//     perturb it.
//  2. N>1 is deterministic: the result is a pure function of (config,
//     workload, shards, epoch), independent of GOMAXPROCS and repeatable
//     across runs — the lockstep barrier plus canonical injection order
//     remove every goroutine-scheduling degree of freedom.

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/txn"
	"repro/internal/workload"
)

// generate draws a fresh workload for cfg; each caller gets its own copy
// so no run can perturb another through shared spec storage.
func generate(t *testing.T, cfg core.Config) *workload.Workload {
	t.Helper()
	wl, err := workload.Generate(cfg.Workload, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// runUnsharded runs the plain engine over the workload.
func runUnsharded(t *testing.T, cfg core.Config, wl *workload.Workload) ([]core.ServiceOutcome, interface{}) {
	t.Helper()
	e, err := core.NewWithWorkload(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return e.TxnOutcomes(), res
}

// runSharded runs the shard runner over the workload.
func runSharded(t *testing.T, cfg core.Config, wl *workload.Workload, opt Options) Result {
	t.Helper()
	r, err := New(cfg, wl, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestOneShardBitIdentical: a 1-shard run equals the unsharded engine bit
// for bit — outcomes and metrics — on both the main-memory and the disk base
// configurations.
func TestOneShardBitIdentical(t *testing.T) {
	base := []struct {
		name string
		cfg  core.Config
	}{
		{"mm", func() core.Config {
			cfg := core.MainMemoryConfig(core.CCA, 3)
			cfg.Workload.Count = 200
			return cfg
		}()},
		{"disk", func() core.Config {
			cfg := core.DiskConfig(core.CCA, 5)
			cfg.Workload.Count = 120
			cfg.NumCPUs = 2
			cfg.NumDisks = 2
			return cfg
		}()},
	}
	for _, b := range base {
		cfg := b.cfg
		cfg.CheckInvariants = true
		refOut, refRes := runUnsharded(t, cfg, generate(t, cfg))
		got := runSharded(t, cfg, generate(t, cfg), Options{Shards: 1})
		if !reflect.DeepEqual(refOut, got.outcomes) {
			for i := range refOut {
				if refOut[i] != got.outcomes[i] {
					t.Errorf("%s: T%d diverges: unsharded %+v, 1-shard %+v", b.name, i, refOut[i], got.outcomes[i])
					break
				}
			}
			t.Fatalf("%s: outcomes diverge", b.name)
		}
		if !reflect.DeepEqual(refRes, got.Metrics) {
			t.Fatalf("%s: metrics diverge:\nunsharded: %+v\n1-shard:   %+v", b.name, refRes, got.Metrics)
		}
		if got.Cross.Total != 0 {
			t.Fatalf("%s: %d cross-shard transactions under 1 shard", b.name, got.Cross.Total)
		}
	}
}

// shardedConfig is a moderately contended configuration with enough
// transactions that both router paths (direct and epoch-batched) carry
// real traffic under a 4-way partition.
func shardedConfig(seed int64) core.Config {
	cfg := core.MainMemoryConfig(core.CCA, seed)
	cfg.Workload.Count = 200
	cfg.Workload.DBSize = 2000
	cfg.Workload.ArrivalRate = 16
	return cfg
}

// TestMultiShardDeterministicAcrossGOMAXPROCS: the 4-shard result is
// identical under GOMAXPROCS 1, 2 and 4 and across repeated runs — the
// shards' goroutines can interleave any way the runtime likes without the
// outcome changing.
func TestMultiShardDeterministicAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for seed := int64(1); seed <= 2; seed++ {
		cfg := shardedConfig(seed)
		var ref Result
		for i, procs := range []int{1, 2, 4, 2} { // repeat procs=2: replay determinism
			runtime.GOMAXPROCS(procs)
			got := runSharded(t, cfg, generate(t, cfg), Options{Shards: 4})
			if i == 0 {
				ref = got
				if ref.Cross.Total == 0 {
					t.Fatalf("seed %d: no cross-shard transactions; config does not exercise the epoch path", seed)
				}
				continue
			}
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("seed %d: 4-shard run diverges at GOMAXPROCS=%d:\nref: %+v\ngot: %+v",
					seed, procs, ref.Cross, got.Cross)
			}
		}
	}
}

// TestMultiShardEpochIntervalIsSemantic: the epoch interval is part of the
// run's identity — runs with the same interval agree, and the accounting
// stays consistent (every transaction reaches a terminal state) for other
// intervals too.
func TestMultiShardEpochIntervalIsSemantic(t *testing.T) {
	cfg := shardedConfig(9)
	for _, epoch := range []time.Duration{5 * time.Millisecond, 50 * time.Millisecond} {
		a := runSharded(t, cfg, generate(t, cfg), Options{Shards: 4, Epoch: epoch})
		b := runSharded(t, cfg, generate(t, cfg), Options{Shards: 4, Epoch: epoch})
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("epoch %v: repeated run diverged", epoch)
		}
		terminal := 0
		for _, o := range a.outcomes {
			switch o.State {
			case core.StateCommitted, core.StateDropped, core.StateRejected:
				terminal++
			}
		}
		if terminal != len(a.outcomes) {
			t.Fatalf("epoch %v: %d/%d transactions terminal", epoch, terminal, len(a.outcomes))
		}
	}
}

// TestCrossShardScenario pins the epoch batching semantics on a crafted
// workload: a cross-shard transaction starts nowhere before the first
// boundary at or after its arrival, its parts land on exactly the shards
// its items map to, and its logical outcome folds the parts.
func TestCrossShardScenario(t *testing.T) {
	cfg := core.MainMemoryConfig(core.CCA, 1)
	cfg.Workload.DBSize = 100
	epoch := 10 * time.Millisecond
	wl := &workload.Workload{
		Params: cfg.Workload,
		Txns: []workload.Spec{
			// Single-shard on shard 1 (items ≡ 1 mod 4): runs immediately.
			{ID: 0, Items: itemList(1, 5), Compute: time.Millisecond,
				Arrival: 0, Deadline: 40 * time.Millisecond},
			// Cross-shard over shards 0 and 2: arrives at 3ms, must wait
			// for the 10ms boundary.
			{ID: 1, Items: itemList(4, 2), Compute: time.Millisecond,
				Arrival: 3 * time.Millisecond, Deadline: 60 * time.Millisecond},
		},
	}
	r, err := New(cfg, wl, Options{Shards: 4, Epoch: epoch})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.cross) != 1 || len(r.global[1]) != 1 {
		t.Fatalf("partition wrong: cross=%d, shard1 static=%d", len(r.cross), len(r.global[1]))
	}
	parts := r.cross[0].parts
	if len(parts) != 2 || parts[0].Shard != 0 || parts[1].Shard != 2 {
		t.Fatalf("cross split = %+v, want parts on shards 0 and 2", parts)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	o0, o1 := res.outcomes[0], res.outcomes[1]
	if o0.State != core.StateCommitted || o0.Finish != 2*time.Millisecond {
		t.Fatalf("single-shard outcome %+v, want commit at 2ms (ran immediately)", o0)
	}
	if o1.State != core.StateCommitted {
		t.Fatalf("cross-shard outcome %+v, want committed", o1)
	}
	if o1.Arrival != 3*time.Millisecond {
		t.Fatalf("cross-shard logical arrival %v, want the original 3ms", o1.Arrival)
	}
	// Each part is a 1-item, 1ms transaction injected at the 10ms
	// boundary on an idle shard: finish = 11ms.
	if o1.Finish != epoch+time.Millisecond {
		t.Fatalf("cross-shard finish %v, want %v (epoch boundary + compute)", o1.Finish, epoch+time.Millisecond)
	}
	if res.Cross.Total != 1 || res.Cross.Committed != 1 || res.Cross.Partial != 0 {
		t.Fatalf("cross summary %+v", res.Cross)
	}
	if res.Metrics.Committed != 3 { // 1 static + 2 parts at the engine level
		t.Fatalf("merged Committed = %d, want 3 engine-level transactions", res.Metrics.Committed)
	}
}

func itemList(items ...int) []txn.Item {
	out := make([]txn.Item, len(items))
	for i, it := range items {
		out[i] = txn.Item(it)
	}
	return out
}
