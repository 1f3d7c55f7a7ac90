package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Load-generator shape, fixed for every workload (bench/README.md).
const (
	loadConns      = 2                // = nproc of the sizing host; one writer + one reader goroutine each
	sendTick       = time.Millisecond // open phases: writers wake on this grid
	closedWindow   = 64               // outstanding requests per connection
	closedBurst    = 16               // the window is refilled this many slots at a time
	closedRounds   = 12               // closed rounds per run
	closedTimeout  = time.Second
	answerGrace    = 2 * time.Second
	censoredMs     = 1000.0
	okLimitMs      = 20.0
	maxGenLagP99Ms = 5.0
	minSentShare   = 0.98
	maxWindows     = 24 // open-phase windows per run, at most
	setupRepeats   = 15 // setup_s is the median of this many spawn→ready cycles, fewer in a run under 15 s
	streamFrames   = 1 << 15
	parkCompute    = 1_000_000 * time.Second
	parkDeadline   = 100_000_000 * time.Second
	serverProcs    = 2
	// Two Ps run the reader goroutines; the other two stay attached to the
	// writer threads while those sit in nanosleep, or a reader that is
	// ready to run waits for the runtime's monitor to take a P back.
	clientProcs = 4
	// tracedCrossShare is the share of transactions touching both shards
	// that the traced run of a sharded workload mixes into its streams
	// below the front-end and into the cross probe. No traffic sent to
	// the measured rtserve touches two shards (see knownFailures).
	tracedCrossShare = 0.10
)

// commonServerFlags are passed to every rtserve the benchmark spawns.
var commonServerFlags = []string{
	"-policy", "cca", "-admission", "admit-all", "-max-inflight", "4096", "-dbsize", "8192",
}

// workloadSpec holds one workload's constants. BENCHMARK.json carries
// only the name and the reason; the numbers live here because the
// builder's contract fixes that file's keys.
type workloadSpec struct {
	Name   string
	Rate   float64 // open-phase Poisson arrivals per second
	Shards int
	Speed  float64 // rtserve -speed: simulated seconds per wall second
	WAL    bool

	Items      int // accesses per transaction
	ItemLo     int // foreground items are drawn from [ItemLo, ItemHi)
	ItemHi     int
	ReadProb   float64 // per-access probability of a shared-lock read (0 = all writes)
	HotItems   int     // size of the hot set (0 = none)
	HotProb    float64 // per-access probability of drawing from the hot set
	Compute    time.Duration
	DeadlineLo time.Duration // relative deadline, uniform in [Lo, Hi]
	DeadlineHi time.Duration

	// Parked is the standing backlog submitted during set-up: one-item
	// transactions on items [0, Parked) that stay live for the whole run.
	Parked int
}

var workloads = []workloadSpec{
	{
		Name: "wire_open", Rate: 4000, Shards: 1, Speed: 100000,
		Items: 2, ItemLo: 0, ItemHi: 8192,
		Compute: 50 * time.Microsecond, DeadlineLo: time.Minute, DeadlineHi: time.Minute,
	},
	{
		Name: "wal_open", Rate: 4000, Shards: 1, Speed: 100000, WAL: true,
		Items: 2, ItemLo: 0, ItemHi: 8192,
		Compute: 50 * time.Microsecond, DeadlineLo: time.Minute, DeadlineHi: time.Minute,
	},
	{
		Name: "backlog_open", Rate: 1000, Shards: 1, Speed: 100000,
		Items: 2, ItemLo: 1024, ItemHi: 8192,
		Compute: 50 * time.Microsecond, DeadlineLo: time.Minute, DeadlineHi: time.Minute,
		Parked: 1024,
	},
	{
		Name: "shard_aligned", Rate: 8000, Shards: 2, Speed: 1000,
		Items: 4, ItemLo: 0, ItemHi: 8192, ReadProb: 0.5, HotItems: 16, HotProb: 0.5,
		Compute: time.Millisecond, DeadlineLo: 20 * time.Millisecond, DeadlineHi: 180 * time.Millisecond,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// serverFlags returns the rtserve arguments of the workload, without
// the listen addresses and the WAL directory.
func (w workloadSpec) serverFlags() []string {
	f := append([]string(nil), commonServerFlags...)
	f = append(f, "-speed", fmt.Sprint(w.Speed))
	if w.Shards > 1 {
		f = append(f, "-shards", fmt.Sprint(w.Shards))
	}
	if w.Parked > 0 {
		// The parked backlog never finishes; without this the SIGTERM
		// drain would wait its default five seconds before wounding it.
		f = append(f, "-drain-timeout", "200ms")
	}
	return f
}

// knownFailure is a defect of the measured program that the benchmark
// sees and reports instead of hiding (bench/README.md, "Known failures").
type knownFailure struct {
	Workload string `json:"workload"`
	Symptom  string `json:"symptom"`
	Cause    string `json:"cause"`
	Expected string `json:"expected"`
}

var knownFailures = []knownFailure{{
	Workload: "shard_aligned",
	Symptom:  "over the wire with -shards 2, a cross-shard request goes unanswered and some other correlation ID receives a second committed frame",
	Cause:    "shard.Service.SubmitBatch reads subs[i].Done from a goroutine after it has returned, and server.batcher reuses that slice for the next batch",
	Expected: "shard.cross_fail_share well above 0 and cross_probe.dup_answers > 0 in the traced run's cross probe. The builder's contract wants workloads on which no operation fails, so no request sent to the measured rtserve touches two shards: the cross-shard path and the epoch barrier are under no end-to-end metric until the defect is fixed and a later benchmark PR adds a cross-shard workload",
}}

// --- BENCHMARK.json ------------------------------------------------------

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// regressionFloors are the absolute amounts, in each metric's unit, that
// -compare lets a metric worsen by whatever share of its value that is:
// 3 ms of process spawn is 50 % of a 6 ms set-up and says nothing.
// BENCHMARK.json holds only the relative bounds because the builder's
// contract fixes its keys.
var regressionFloors = map[string]float64{
	"p50_ms":  0.05,
	"p99_ms":  0.3,
	"rss_mb":  4,
	"setup_s": 0.25,
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

func (bf *benchmarkFile) decl(name string) (metricDecl, bool) {
	for _, list := range [][]metricDecl{bf.EndToEnd, bf.PerLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDecl{}, false
}
