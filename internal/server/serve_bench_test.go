package server

// Serving-path ratio baseline: BENCH_serve.json records, for the wire
// protocol against an in-process engine — closed loop, and open loop with
// the write-ahead log off and on — client-observed p50/p99 wall response,
// heap bytes allocated per request, and the throughput ratio of the log-on
// arm to the log-off one. The codec must allocate nothing (0 allocs/op) and
// the log may cost at most 15 % of the open-loop throughput, or the test
// refuses to write a baseline. Throughput is measured in-run to compute the
// ratio and is not written: an in-process number is not capacity, which
// only bench/ measures.
//
// Refresh with:
//
//	BENCH_BASELINE=1 go test ./internal/server -run TestWriteServeBenchBaseline

import (
	"encoding/json"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/txn"
	"repro/internal/wire"
)

const (
	serveBenchDBSize  = 4096
	serveBenchSpeed   = 1e5
	serveBenchWorkers = 16
	serveBenchConns   = 4
	serveBenchPool    = 128 // open loop: worker pool / outstanding cap
	serveBenchWarm    = 300 * time.Millisecond
	serveBenchRun     = 1500 * time.Millisecond
)

type serveBenchResult struct {
	Proto       string  `json:"proto"`
	Workers     int     `json:"workers,omitempty"` // closed loop: synchronous submitters
	TxnsPerSec  float64 `json:"-"`                 // feeds the ratios only
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
	BytesPerReq float64 `json:"bytes_per_req"`
}

// measureServe drives a server over the wire protocol and returns
// committed/sec, client p50/p99 wall latency, and heap bytes allocated per
// answered request (client+server, both in-process — the same accounting
// for every arm, so the ratio is honest even though the absolute number
// includes the test client).
//
// rate 0 is the closed loop: serveBenchWorkers synchronous submitters,
// the saturation probe. rate > 0 is an open loop: Poisson arrivals at
// that rate (absolute schedule, so oversleeps self-correct), served by
// a pool of serveBenchPool workers — arrivals beyond the pool are
// dropped, so a server that cannot sustain the rate shows up as
// committed/sec falling short of it, never as a stretched clock.
//
// With withWAL the server runs a real on-disk write-ahead log at the
// default group-commit sync interval, so the entry prices durability
// the way production pays it: every answer waits for its outcome
// record's batched fsync. The WAL entry is measured open-loop because
// group commit trades latency for batching: a fixed-size closed loop
// converts the fsync wait into idle workers and measures that latency,
// not throughput capacity, while under offered load the batch per
// fsync grows with the backlog and capacity stays engine-bound.
func measureServe(t *testing.T, withWAL bool, rate float64) serveBenchResult {
	t.Helper()
	workers := serveBenchWorkers
	cfg := core.MainMemoryConfig(core.CCA, 1)
	cfg.Workload.DBSize = serveBenchDBSize
	cfg.Admission = core.AdmissionConfig{Mode: core.AdmitAll}
	o := Options{
		Core:        cfg,
		Service:     core.ServiceOptions{Speed: serveBenchSpeed},
		MaxInflight: 1024,
	}
	label := "wire"
	if rate > 0 {
		label = "wire_open"
	}
	if withWAL {
		o.WALDir = t.TempDir()
		o.WALSync = 0 // rtserve's -wal-sync default: sync as soon as appends are pending
		label = "wire_wal"
	}
	_, _, wireAddr, stop := startServer(t, o)
	defer stop() //nolint:errcheck

	// submit issues one 2-item transaction and reports commit + latency.
	clients := make([]*wire.Client, serveBenchConns)
	for i := range clients {
		c, err := wire.Dial(wireAddr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		defer c.Close()
	}
	var next atomic.Int64
	submit := func(rng *rand.Rand) (bool, time.Duration) {
		c := clients[int(next.Add(1))%len(clients)]
		a := rng.Intn(serveBenchDBSize - 1)
		t0 := time.Now()
		resp, err := c.Submit(&wire.SubmitReq{
			Items:   []txn.Item{txn.Item(a), txn.Item(a + 1)},
			Compute: 50 * time.Microsecond, Deadline: time.Minute,
		})
		return err == nil && resp.Status == wire.StatusCommitted, time.Since(t0)
	}

	var (
		mu        sync.Mutex
		hist      metrics.Histogram
		committed int64
		counting  bool
		stopCh    = make(chan struct{})
		wg        sync.WaitGroup
	)
	record := func(ok bool, d time.Duration) {
		mu.Lock()
		if counting && ok {
			committed++
			hist.Observe(float64(d) / float64(time.Millisecond))
		}
		mu.Unlock()
	}
	if rate > 0 {
		// Open loop: a pacer hands paced arrival tokens to a worker
		// pool; a full pool drops the arrival instead of slowing the
		// arrival process down.
		tokens := make(chan struct{}, serveBenchPool)
		for w := 0; w < serveBenchPool; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)*7919 + 1))
				for {
					select {
					case <-stopCh:
						return
					case <-tokens:
					}
					ok, d := submit(rng)
					record(ok, d)
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(42))
			next := time.Now()
			for {
				select {
				case <-stopCh:
					return
				default:
				}
				next = next.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
				select {
				case tokens <- struct{}{}:
				default: // pool saturated: arrival dropped
				}
			}
		}()
	} else {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)*7919 + 1))
				for {
					select {
					case <-stopCh:
						return
					default:
					}
					ok, d := submit(rng)
					record(ok, d)
				}
			}(w)
		}
	}

	time.Sleep(serveBenchWarm)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	mu.Lock()
	counting = true
	mu.Unlock()
	start := time.Now()
	time.Sleep(serveBenchRun)
	mu.Lock()
	counting = false
	mu.Unlock()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	close(stopCh)
	wg.Wait()

	res := serveBenchResult{Proto: label}
	if rate == 0 {
		res.Workers = workers
	}
	mu.Lock()
	n := committed
	if n > 0 {
		res.TxnsPerSec = float64(n) / elapsed.Seconds()
		res.P50Ms = hist.Quantile(0.50)
		res.P99Ms = hist.Quantile(0.99)
		res.BytesPerReq = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
	}
	mu.Unlock()
	if n == 0 {
		t.Fatalf("%s: nothing committed in the measurement window", label)
	}
	return res
}

type serveBenchBaseline struct {
	Note         string             `json:"note"`
	Refresh      string             `json:"refresh"`
	Workers      int                `json:"workers"`
	DBSize       int                `json:"db_size"`
	Speed        float64            `json:"speed"`
	HostCPUs     int                `json:"host_cpus"`
	Entries      []serveBenchResult `json:"entries"`
	WALRatio     float64            `json:"ratio_wire_wal_vs_wire_open_txns_per_sec"`
	CodecAllocs  float64            `json:"codec_allocs_per_op"`
	WallP99WireS float64            `json:"wire_p99_ms"`
	GroupCommit  walGroupCommit     `json:"wal_group_commit"`
}

// walGroupCommit is internal/wal's BenchmarkGroupCommit as this ledger
// records it. Recorded, not enforced: on tmpfs both sides are ≈ 0.
type walGroupCommit struct {
	Note          string  `json:"note"`
	NsPerCommit   float64 `json:"ns_per_commit"`
	AppendFsyncNs float64 `json:"append_fsync_ns"`
	Ratio         float64 `json:"ratio"`
	Filesystem    string  `json:"filesystem"`
}

// measureGroupCommit runs BenchmarkGroupCommit where it lives (its body
// needs the wal package's internals) and reads the metrics off its
// result line: "BenchmarkGroupCommit-2  2000  201890 ns/op  230204 append_fsync_ns  0.8770 ratio".
func measureGroupCommit(t *testing.T) walGroupCommit {
	t.Helper()
	out, err := exec.Command("go", "test", "-run", "^$", "-bench", "^BenchmarkGroupCommit$", "-benchtime", "2000x", "repro/internal/wal").CombinedOutput()
	if err != nil {
		t.Fatalf("BenchmarkGroupCommit: %v\n%s", err, out)
	}
	gc := walGroupCommit{
		Note: "IN-PROCESS, NOT CAPACITY: one wal.Logger over DirFS in the test temp dir flushing 64 submit+outcome " +
			"pairs per commit (encode + positional write into zero-written blocks + fsync) against a plain file " +
			"taking the same bytes by append + fsync; ratio = ns_per_commit / append_fsync_ns",
		Filesystem: filesystemOf(os.TempDir()),
	}
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || !strings.HasPrefix(f[0], "BenchmarkGroupCommit") {
			continue
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				t.Fatalf("BenchmarkGroupCommit: bad value in %q", line)
			}
			switch f[i+1] {
			case "ns/op":
				gc.NsPerCommit = v
			case "append_fsync_ns":
				gc.AppendFsyncNs = v
			case "ratio":
				gc.Ratio = v
			}
		}
	}
	if gc.NsPerCommit == 0 {
		t.Fatalf("BenchmarkGroupCommit printed no result line:\n%s", out)
	}
	return gc
}

// filesystemOf names the filesystem type dir is mounted from (the
// longest mount point in /proc/self/mounts that contains it).
func filesystemOf(dir string) string {
	mounts, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(mounts), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		if mp := f[1]; (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

// TestWriteServeBenchBaseline measures the wire serving path end to end
// and writes BENCH_serve.json at the repo root. Gated behind
// BENCH_BASELINE=1: it takes ~6s of wall time and saturates the
// machine, which is exactly what a unit-test run must not do.
func TestWriteServeBenchBaseline(t *testing.T) {
	if os.Getenv("BENCH_BASELINE") == "" {
		t.Skip("set BENCH_BASELINE=1 to measure and write BENCH_serve.json")
	}

	// The zero-alloc floor on the codec itself, re-proven at baseline
	// time (the steady serving path allocates nothing per frame in
	// encode, decode, or frame reassembly).
	req := wire.SubmitReq{
		Items: []txn.Item{3, 17}, Compute: time.Millisecond, Deadline: 50 * time.Millisecond,
	}
	frame := wire.AppendSubmit(nil, 1, &req)
	buf := make([]byte, 0, len(frame))
	var dec wire.SubmitReq
	codecAllocs := testing.AllocsPerRun(200, func() {
		buf = wire.AppendSubmit(buf[:0], 1, &req)
		if err := wire.DecodeSubmit(buf[wire.HeaderLen:], &dec); err != nil {
			t.Fatal(err)
		}
	})
	if codecAllocs != 0 {
		t.Errorf("codec allocates %.1f/op, want 0 (acceptance floor)", codecAllocs)
	}

	wireRes := measureServe(t, false, 0)
	// The WAL cost comparison runs both arms open-loop at the same
	// offered rate — 0.4x the no-WAL closed-loop capacity, a load the
	// durable path can physically sustain here (each fsync forces an
	// ext3 journal commit whose kernel-side work shares this host's
	// single CPU, so absolute durable capacity is disk-bound, not
	// WAL-bound; see DESIGN.md section 7). The ratio isolates what the
	// WAL machinery itself costs at the default sync interval. The WAL
	// arm runs last: opening an on-disk log floors GOMAXPROCS at 2
	// (server/wal.go), and the no-WAL arms must measure the
	// single-P configuration rtserve actually runs without -wal-dir.
	rate := 0.4 * wireRes.TxnsPerSec
	openRes := measureServe(t, false, rate)
	walRes := measureServe(t, true, rate)
	t.Logf("wire: %.0f txns/s p99=%.3fms %.0f B/req", wireRes.TxnsPerSec, wireRes.P99Ms, wireRes.BytesPerReq)
	t.Logf("wire open @%.0f/s: %.0f txns/s p99=%.3fms", rate, openRes.TxnsPerSec, openRes.P99Ms)
	t.Logf("wire+wal @%.0f/s: %.0f txns/s p99=%.3fms %.0f B/req", rate, walRes.TxnsPerSec, walRes.P99Ms, walRes.BytesPerReq)
	groupCommit := measureGroupCommit(t)
	t.Logf("wal group commit on %s: %.0f ns/commit, append+fsync %.0f ns, ratio %.3f",
		groupCommit.Filesystem, groupCommit.NsPerCommit, groupCommit.AppendFsyncNs, groupCommit.Ratio)

	walRatio := walRes.TxnsPerSec / openRes.TxnsPerSec
	if walRatio < 0.85 {
		t.Errorf("wal vs no-wal wire throughput ratio = %.2f at %.0f offered txns/s, want >= 0.85 (group commit must cost <= 15%%)", walRatio, rate)
	}
	if t.Failed() {
		return
	}

	base := serveBenchBaseline{
		Note: "IN-PROCESS MICRO-BASELINE, NOT CAPACITY: client and server share one process and " +
			"host_cpus CPUs, and p50/p99 are histogram bucket edges; capacity and latency are " +
			"bench/'s out-of-process numbers (BENCHMARK.json). What this file enforces is ratios. " +
			"Throughput is measured in-run for the ratio and not recorded. wire: closed-loop " +
			"workers issue 2-item writes over pipelined wire connections; bytes_per_req " +
			"is heap allocated per answered request (client+server in-process, same accounting " +
			"every arm); wire_open and wire_wal run the wire path open-loop (Poisson " +
			"arrivals) at the same offered rate, 0.4x the closed-loop wire throughput, without " +
			"and with an on-disk write-ahead log at the default sync interval (0: fsync whenever " +
			"an outcome is pending) — every WAL-arm answer waits for its outcome record's " +
			"group-commit fsync, and the ratio of the two isolates the WAL's cost from the " +
			"host's absolute durable-fsync ceiling",
		Refresh:      "BENCH_BASELINE=1 go test ./internal/server -run TestWriteServeBenchBaseline",
		Workers:      serveBenchWorkers,
		DBSize:       serveBenchDBSize,
		Speed:        serveBenchSpeed,
		HostCPUs:     runtime.NumCPU(),
		Entries:      []serveBenchResult{wireRes, openRes, walRes},
		WALRatio:     walRatio,
		CodecAllocs:  codecAllocs,
		WallP99WireS: wireRes.P99Ms,
		GroupCommit:  groupCommit,
	}
	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		t.Fatalf("marshal baseline: %v", err)
	}
	if err := os.WriteFile("../../BENCH_serve.json", append(data, '\n'), 0o644); err != nil {
		t.Fatalf("write BENCH_serve.json: %v", err)
	}
}
