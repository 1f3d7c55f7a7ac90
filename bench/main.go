// Command bench is the repository's serving benchmark: it builds
// cmd/rtserve, runs it as a child process, drives it over the wire
// protocol with an open-loop and a closed-loop phase, verifies every
// answer, and (with -trace 1) attributes time to layers in a traced
// in-process run. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// environment is where the benchmark runs and what it runs against.
type environment struct {
	root    string // repository checkout
	outDir  string // bench/out: binaries, WAL directories, results, traces
	rtserve string
	bf      *benchmarkFile
	buildS  float64
}

func main() {
	if os.Getenv(warmChildEnv) != "" {
		os.Exit(keepWarmChild())
	}
	os.Exit(run())
}

func run() int {
	var (
		root     = flag.String("root", ".", "repository checkout (holds BENCHMARK.json and cmd/rtserve)")
		workload = flag.String("workload", "", "run one workload (default: all four)")
		seed     = flag.Int64("seed", 1, "workload seed: same seed, same request stream")
		seconds  = flag.Int("seconds", 0, "measuring time per run (default: run_seconds of BENCHMARK.json)")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics from the untraced run; 1: per-layer metrics with the traced in-process run")
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	)
	flag.Parse()
	runtime.GOMAXPROCS(clientProcs)

	abs, err := filepath.Abs(*root)
	if err != nil {
		return fail(err)
	}
	env := &environment{root: abs, outDir: filepath.Join(abs, "bench", "out")}
	if env.bf, err = loadBenchmarkFile(abs); err != nil {
		return fail(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("usage: bench -compare a.json b.json"))
		}
		return compareFiles(env.bf, flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if *traced != 0 && *traced != 1 {
		return fail(fmt.Errorf("-trace takes 0 or 1"))
	}
	if *seconds <= 0 {
		*seconds = env.bf.RunSeconds
	}
	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	for _, n := range names {
		if _, ok := findWorkload(n); !ok {
			return fail(fmt.Errorf("unknown workload %q", n))
		}
	}
	if err := env.build(); err != nil {
		return fail(err)
	}
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		killChildren() // the keep-warm process goes when this one does
		os.Exit(130)
	}()

	file := newResultFile(env, *seed, *seconds)
	var last *workloadResult
	for _, n := range names {
		w, _ := findWorkload(n)
		wr, err := runWorkload(env, &w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", n, err))
		}
		wr.print(os.Stdout)
		file.Workloads = append(file.Workloads, wr)
		last = wr
	}
	if err := file.write(env.outDir, *traced == 1); err != nil {
		return fail(err)
	}
	// The builder's contract: the last line of standard output is one
	// JSON object describing the (last) workload run.
	fmt.Println(last.contractLine(env.bf, *traced == 1))
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

// build compiles cmd/rtserve from the checkout into bench/out/bin.
func (env *environment) build() error {
	env.rtserve = filepath.Join(env.outDir, "bin", "rtserve")
	if err := os.MkdirAll(filepath.Dir(env.rtserve), 0o755); err != nil {
		return err
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", env.rtserve, "./cmd/rtserve")
	cmd.Dir = env.root
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build ./cmd/rtserve: %w", err)
	}
	env.buildS = time.Since(t0).Seconds()
	return nil
}

// --- results ---------------------------------------------------------------

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is one workload's section of the result file.
type workloadResult struct {
	Name         string `json:"name"`
	StreamSHA256 string `json:"stream_sha256"`
	Invalid      string `json:"invalid,omitempty"`
	// KeepWarmThreads is how many idle-priority threads kept the CPUs
	// from idling while the workload was measured (warm.go).
	KeepWarmThreads int                    `json:"keep_warm_threads"`
	Attempted       int                    `json:"attempted"`
	Failed          int                    `json:"failed"`
	EndToEnd        map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer        map[string]metricValue `json:"per_layer,omitempty"`
	CrossProbe      *crossProbe            `json:"cross_probe,omitempty"`
	TraceFile       string                 `json:"trace_file,omitempty"`
}

// withUnits attaches each metric's unit. A metric with no number - a
// percentile of no samples - is left out, like a bypassed layer's.
func withUnits(bf *benchmarkFile, m map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(m))
	for name, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		d, _ := bf.decl(name)
		out[name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out
}

// runWorkload measures one workload. Untraced, the out-of-process run
// takes the whole budget and gives the end-to-end metrics; traced, the
// budget is split between a shorter out-of-process run (for the
// per-layer numbers only it can see) and the traced in-process run.
func runWorkload(env *environment, w *workloadSpec, seed int64, budget time.Duration, traced bool) (*workloadResult, error) {
	warmThreads := 0
	if !w.WAL { // see warm.go for why not with the log on
		warm, err := startKeepWarm()
		if err != nil {
			return nil, err
		}
		defer warm.stop()
		warmThreads = warm.threads
	}
	oopBudget := budget
	if traced {
		oopBudget = budget / 2
	}
	oop, err := runOutOfProcess(env, w, seed, splitSeconds(oopBudget))
	if err != nil {
		return nil, err
	}
	wr := &workloadResult{
		Name: w.Name, StreamSHA256: oop.hash, Invalid: oop.invalid(),
		Attempted: oop.attempted(), Failed: oop.failed(), KeepWarmThreads: warmThreads,
	}
	if !traced {
		wr.EndToEnd = withUnits(env.bf, oop.endToEnd())
		return wr, nil
	}
	layers := oop.layerMetrics()
	tr, err := runTraced(env, w, seed, budget/2)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	for k, v := range tr.metrics {
		layers[k] = v
	}
	wr.PerLayer = withUnits(env.bf, layers)
	wr.CrossProbe = tr.probe
	wr.TraceFile = tr.file
	return wr, nil
}

// print lists every metric by name with its unit.
func (wr *workloadResult) print(out *os.File) {
	fmt.Fprintf(out, "workload %s  attempted %d  failed %d  stream %s\n", wr.Name, wr.Attempted, wr.Failed, wr.StreamSHA256[:12])
	if wr.Invalid != "" {
		fmt.Fprintf(out, "  INVALID: %s\n", wr.Invalid)
	}
	for _, set := range []map[string]metricValue{wr.EndToEnd, wr.PerLayer} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(out, "  %-34s %14.4f %s\n", n, set[n].Value, set[n].Unit)
		}
	}
}

// contractLine renders the builder contract's result object: untraced
// every end-to-end metric, traced every per-layer metric. The contract
// wants a number for each, so a metric the result leaves out (a layer
// the workload bypasses, a percentile of no samples) reads 0 there.
func (wr *workloadResult) contractLine(bf *benchmarkFile, traced bool) string {
	decls, have := bf.EndToEnd, wr.EndToEnd
	if traced {
		decls, have = bf.PerLayer, wr.PerLayer
	}
	metrics := make(map[string]metricValue, len(decls))
	for _, d := range decls {
		metrics[d.Name] = metricValue{Value: have[d.Name].Value, Unit: d.Unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{wr.Failed == 0, wr.Attempted, wr.Failed, metrics})
	return string(b)
}
