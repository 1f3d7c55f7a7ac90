package shard

// Submit-throughput ratios over a standing backlog: the test measures
// committed submissions per wall second for the wall-clock sharded service
// on a single-shard-heavy workload, across shards × GOMAXPROCS, with and
// without 1024 parked live transactions, and BENCH_shard.json records the
// ratios between those cells (the in-process throughputs themselves are not
// capacity and are not written; only bench/ measures capacity).
//
// The file used to encode an algorithmic effect: every scheduling point
// swept O(live), N shards each carried live/N, and 4 shards were required
// to reach 2× one shard. The dispatch pass no longer sweeps the live set
// (core's BENCH_core.json dispatch_growth curve is flat), so that effect is
// gone and the 4-shard/1-shard ratio is recorded as measured, without a
// floor: what is left of it is parallelism (1.2–1.8× across refreshes on
// the 2-CPU host of the committed file, whose cores the clients share; down
// from 3.9×). What is enforced instead is the property that replaced it:
// one shard over the parked backlog must reach at least half the throughput
// of one shard over no backlog.
//
// Refresh with:
//
//	BENCH_BASELINE=1 go test ./internal/shard -run TestWriteShardBenchBaseline
//
// In-process, client and server sharing the host's CPUs: a micro-baseline,
// not capacity (bench/README.md).

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/txn"
)

const (
	benchClients = 128
	benchDBSize  = 4096
	// benchAlign fixes the partition residue stride so the workload is
	// byte-identical no matter how many shards serve it: every request
	// touches items ≡ r (mod 4), which is single-shard for N ∈ {1, 2, 4}.
	benchAlign = 4
	benchSpeed = 1e5
	benchWarm  = 300 * time.Millisecond
	benchRun   = 1500 * time.Millisecond

	// benchParked is the standing backlog: long transactions that stay live
	// (ready, never finishing, far deadlines so short work always outranks
	// them) for the whole window. Their items occupy a reserved region —
	// kept clear of the measured traffic whether or not anything is parked
	// there — so they never conflict with it.
	benchParked       = 1024
	benchParkCompute  = 1_000_000 * time.Second   // sim time; never completes in-window
	benchParkDeadline = 100_000_000 * time.Second // far enough to never fire in-window
)

// measureSubmitThroughput boots a sharded wall-clock service, parks the
// given number of never-finishing transactions on it, drives it with
// closed-loop clients issuing 4-item shard-aligned writes, and returns
// committed submissions per wall second over the measurement window.
func measureSubmitThroughput(t *testing.T, shards, procs, parked int) float64 {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)

	cfg := core.MainMemoryConfig(core.CCA, 1)
	cfg.Workload.DBSize = benchDBSize
	cfg.Admission = core.AdmissionConfig{Mode: core.AdmitAll}
	svc, err := NewService(cfg, ServiceOptions{
		Shards: shards,
		Core:   core.ServiceOptions{Speed: benchSpeed},
	})
	if err != nil {
		t.Fatalf("NewService(%d shards): %v", shards, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- svc.Run(ctx) }()

	// Park the standing backlog: one-item transactions in the reserved
	// region [0, benchParked), residue-balanced across the partition. Their
	// Submits block until the final cancel wounds them.
	var parkedWG sync.WaitGroup
	for j := 0; j < parked; j++ {
		parkedWG.Add(1)
		go func(j int) {
			defer parkedWG.Done()
			svc.Submit(ctx, core.ServiceRequest{ //nolint:errcheck // wounded at teardown
				Items:    []txn.Item{txn.Item(j%benchAlign + benchAlign*(j/benchAlign))},
				Compute:  benchParkCompute,
				Deadline: benchParkDeadline,
			})
		}(j)
	}
	parkDeadline := time.Now().Add(15 * time.Second)
	for {
		st, ok := svc.Stats()
		if ok && st.Live >= parked {
			break
		}
		if time.Now().After(parkDeadline) {
			t.Fatalf("parked backlog never became live (%d shards)", shards)
		}
		time.Sleep(10 * time.Millisecond)
	}

	var (
		committed atomic.Int64
		counting  atomic.Bool
		stop      = make(chan struct{})
		wg        sync.WaitGroup
	)
	slots := benchDBSize / benchAlign
	reserved := benchParked / benchAlign
	for c := 0; c < benchClients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)*7919 + 1))
			res := id % benchAlign
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Four consecutive same-residue items, ascending, so
				// conflicting requests acquire locks in the same order;
				// k stays clear of the parked region.
				k := reserved + rng.Intn(slots-reserved-4)
				out, err := svc.Submit(ctx, core.ServiceRequest{
					Items: []txn.Item{
						txn.Item(res + benchAlign*k),
						txn.Item(res + benchAlign*(k+1)),
						txn.Item(res + benchAlign*(k+2)),
						txn.Item(res + benchAlign*(k+3)),
					},
					Compute:  50 * time.Microsecond,
					Deadline: time.Minute,
				})
				if err != nil {
					return
				}
				if out.State == core.StateCommitted && counting.Load() {
					committed.Add(1)
				}
			}
		}(c)
	}

	time.Sleep(benchWarm)
	counting.Store(true)
	start := time.Now()
	time.Sleep(benchRun)
	counting.Store(false)
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()
	cancel()
	select {
	case <-runDone:
	case <-time.After(10 * time.Second):
		t.Fatalf("service Run did not exit after cancel (%d shards)", shards)
	}
	parkedWG.Wait()
	if err := svc.Err(); err != nil && err != context.Canceled {
		t.Fatalf("service error (%d shards): %v", shards, err)
	}
	return float64(committed.Load()) / elapsed.Seconds()
}

type shardBenchBaseline struct {
	Note     string  `json:"note"`
	Refresh  string  `json:"refresh"`
	Clients  int     `json:"clients"`
	DBSize   int     `json:"db_size"`
	Speed    float64 `json:"speed"`
	HostCPUs int     `json:"host_cpus"`
	// Ratio4v1 is best 4-shard over best 1-shard throughput, both over the
	// parked backlog: recorded, not enforced.
	Ratio4v1 float64 `json:"ratio_4shard_vs_1shard"`
	// RatioParkedVsEmpty is best 1-shard throughput over the parked backlog
	// over best 1-shard throughput with nothing parked: enforced ≥ 0.5.
	RatioParkedVsEmpty float64 `json:"ratio_1shard_parked_vs_empty"`
}

// TestWriteShardBenchBaseline measures the throughput matrix and writes
// BENCH_shard.json at the repo root. Gated behind BENCH_BASELINE=1: it takes
// ~20s of wall time and saturates the machine, which is exactly what a
// unit-test run must not do. GOMAXPROCS values above the host's CPU count
// are skipped: they would measure scheduler oversubscription, not cores.
func TestWriteShardBenchBaseline(t *testing.T) {
	if os.Getenv("BENCH_BASELINE") == "" {
		t.Skip("set BENCH_BASELINE=1 to measure and write BENCH_shard.json")
	}

	type cell struct{ shards, parked int }
	best := map[cell]float64{}
	for _, c := range []cell{{1, 0}, {1, benchParked}, {4, benchParked}} {
		for _, p := range []int{1, 2, 4} {
			if p > runtime.NumCPU() {
				continue
			}
			tput := measureSubmitThroughput(t, c.shards, p, c.parked)
			best[c] = max(best[c], tput)
			t.Logf("shards=%d parked=%d GOMAXPROCS=%d: %.0f submits/s", c.shards, c.parked, p, tput)
		}
	}

	ratio4v1 := best[cell{4, benchParked}] / best[cell{1, benchParked}]
	parkedVsEmpty := best[cell{1, benchParked}] / best[cell{1, 0}]
	t.Logf("4 shards vs 1 shard over %d parked: %.2fx; 1 shard over %d parked vs none: %.2fx",
		benchParked, ratio4v1, benchParked, parkedVsEmpty)
	if parkedVsEmpty < 0.5 {
		t.Errorf("1 shard over %d parked reaches %.2fx its empty-backlog throughput, want >= 0.5 (the backlog cliff is back)",
			benchParked, parkedVsEmpty)
	}

	base := shardBenchBaseline{
		Note: "in-process micro-baseline, client and server sharing the host's CPUs — not capacity. " +
			"Ratios of wall-clock shard.Service Submit throughput (committed submissions per wall " +
			"second, measured in-run and not recorded): closed-loop clients issue 4-item " +
			"single-shard-aligned writes, with and without a standing backlog of parked live " +
			"transactions, best over GOMAXPROCS 1..host_cpus. A scheduling point no longer sweeps the live set, so " +
			"sharding no longer buys an algorithmic O(live/N) win: ratio_4shard_vs_1shard is recorded " +
			"as measured (no floor), and the enforced property is ratio_1shard_parked_vs_empty >= 0.5",
		Refresh:            "BENCH_BASELINE=1 go test ./internal/shard -run TestWriteShardBenchBaseline",
		Clients:            benchClients,
		DBSize:             benchDBSize,
		Speed:              benchSpeed,
		HostCPUs:           runtime.NumCPU(),
		Ratio4v1:           ratio4v1,
		RatioParkedVsEmpty: parkedVsEmpty,
	}
	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		t.Fatalf("marshal baseline: %v", err)
	}
	if err := os.WriteFile("../../BENCH_shard.json", append(data, '\n'), 0o644); err != nil {
		t.Fatalf("write BENCH_shard.json: %v", err)
	}
}
