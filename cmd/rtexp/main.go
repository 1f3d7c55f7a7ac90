// Command rtexp reproduces the paper's evaluation: every table and figure,
// or any single one.
//
// Usage:
//
//	rtexp -list                 # list experiments and the figures they produce
//	rtexp -exp mm-rate          # run one sweep (all its figures)
//	rtexp -exp 4a               # run the sweep containing figure 4.a
//	rtexp -exp all              # run everything, including ablations
//	rtexp -exp paper            # run exactly the paper's figures
//	rtexp -exp table1           # print a parameter table (no simulation)
//
// Flags -seeds and -count shrink runs for quick looks; -format selects
// text (default), md or csv.
//
// Adaptive precision: -target-ci 0.05 keeps adding seeds per (point,
// variant) cell until the 95% confidence half-width is within 5% of the
// mean (or -max-seeds runs have been spent). Every run is a pure function
// of its configuration and seed, so the same flags always print the same
// tables; Ctrl-C lets in-flight runs finish and exits 130.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, executes, and returns
// the process exit code (0 success, 1 runtime error, 2 usage error, 130
// interrupted).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rtexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp        = fs.String("exp", "", "experiment or figure ID to run (or 'all', 'paper', 'table1', 'table2')")
		list       = fs.Bool("list", false, "list available experiments")
		seeds      = fs.Int("seeds", 0, "override seeds per point (0 = paper fidelity; adaptive mode: initial batch)")
		count      = fs.Int("count", 0, "override transactions per run (0 = paper fidelity)")
		workers    = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		format     = fs.String("format", "text", "output format: text, md or csv")
		plots      = fs.Bool("plot", false, "also render ASCII charts of the figures")
		outDir     = fs.String("out", "", "also write one CSV file per figure into this directory")
		quiet      = fs.Bool("q", false, "suppress progress output")
		targetCI   = fs.Float64("target-ci", 0, "adaptive precision: run each cell until CI95 <= this fraction of the mean (0 = fixed seeds)")
		maxSeeds   = fs.Int("max-seeds", 0, "adaptive precision: per-cell seed cap (0 = 4x the initial batch)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file on exit")

		oracle    = fs.Bool("oracle", false, "run every simulation under the runtime safety oracle (a violated paper invariant fails the run)")
		faultSpec = fs.String("fault", "", "fault-injection plan applied to every run: inline JSON ({...}) or a path to a JSON file")
		admission = fs.String("admission", "", "admission mode applied to every run: reject-newest or reject-infeasible (empty = per-experiment default)")
		admMax    = fs.Int("admission-max", 0, "live-set cap for -admission (required for reject-newest)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch *format {
	case "text", "md", "csv":
	default:
		fmt.Fprintf(stderr, "rtexp: unknown -format %q (want text, md or csv)\n", *format)
		return 2
	}
	var faultPlan rtdbs.FaultPlan
	if *faultSpec != "" {
		data := []byte(*faultSpec)
		if (*faultSpec)[0] != '{' {
			var err error
			data, err = os.ReadFile(*faultSpec)
			if err != nil {
				fmt.Fprintf(stderr, "rtexp: %v\n", err)
				return 2
			}
		}
		var err error
		faultPlan, err = rtdbs.ParseFaultPlan(data)
		if err != nil {
			fmt.Fprintf(stderr, "rtexp: %v\n", err)
			return 2
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "rtexp: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "rtexp: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "rtexp: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "rtexp: %v\n", err)
			}
		}()
	}

	if *list {
		listExperiments(stdout)
		return 0
	}
	if *exp == "" {
		fs.Usage()
		return 2
	}

	switch *exp {
	case "table1":
		emit(stdout, rtdbs.Table1(), *format)
		return 0
	case "table2":
		emit(stdout, rtdbs.Table2(), *format)
		return 0
	}

	var defs []rtdbs.Experiment
	switch *exp {
	case "all":
		defs = rtdbs.Experiments()
	case "paper":
		for _, d := range rtdbs.Experiments() {
			if !strings.HasPrefix(d.ID, "ablation-") {
				defs = append(defs, d)
			}
		}
	default:
		d, ok := rtdbs.ExperimentByID(*exp)
		if !ok {
			fmt.Fprintf(stderr, "rtexp: unknown experiment %q; valid IDs:\n", *exp)
			for _, d := range rtdbs.Experiments() {
				fmt.Fprintf(stderr, "  %s\n", d.ID)
			}
			fmt.Fprintln(stderr, "  all, paper, table1, table2 (or a figure ID like 4a; see -list)")
			return 1
		}
		defs = []rtdbs.Experiment{d}
	}

	// SIGINT/SIGTERM cancel the sweep: in-flight runs drain, then we exit
	// with the conventional interrupt code.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *exp == "all" || *exp == "paper" {
		emit(stdout, rtdbs.Table1(), *format)
		fmt.Fprintln(stdout)
		emit(stdout, rtdbs.Table2(), *format)
		fmt.Fprintln(stdout)
	}

	allStart := time.Now()
	totalRuns := 0
	failedRuns := 0
	for _, def := range defs {
		opt := rtdbs.ExperimentOptions{
			Seeds: *seeds, Count: *count, Workers: *workers,
			TargetCI: *targetCI, MaxSeeds: *maxSeeds,
			Oracle: *oracle, Fault: faultPlan,
			Admission: rtdbs.AdmissionConfig{Mode: rtdbs.AdmissionMode(*admission), MaxLive: *admMax},
		}
		cells := len(def.Xs) * len(def.Variants)
		cellsFinal := 0
		// CellDone and Progress both run on Run's collector goroutine
		// while this goroutine blocks in RunExperimentContext, so plain
		// variables are safe.
		opt.CellDone = func(xi, vi, n int, converged bool) { cellsFinal++ }
		defRuns := 0
		start := time.Now()
		opt.Progress = func(done, total int) {
			defRuns = total
			if *quiet {
				return
			}
			line := fmt.Sprintf("\r   %d/%d runs", done, total)
			if *targetCI > 0 {
				line += fmt.Sprintf(", %d/%d cells final", cellsFinal, cells)
			}
			if done > 0 && done < total {
				eta := time.Duration(float64(time.Since(start)) / float64(done) * float64(total-done))
				line += fmt.Sprintf(", ETA %v", eta.Round(time.Second))
			}
			fmt.Fprintf(stderr, "%-60s", line)
		}
		if !*quiet {
			fmt.Fprintf(stderr, "== %s: %s\n", def.ID, def.Title)
		}
		res, err := rtdbs.RunExperimentContext(ctx, def, opt)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintf(stderr, "\nrtexp: interrupted\n")
				return 130
			}
			fmt.Fprintf(stderr, "rtexp: %v\n", err)
			return 1
		}
		totalRuns += defRuns
		if !*quiet {
			fmt.Fprintf(stderr, "\r   done in %v%s\n", time.Since(start).Round(time.Millisecond), strings.Repeat(" ", 40))
			if *targetCI > 0 {
				converged := 0
				for xi := range res.Converged {
					for _, ok := range res.Converged[xi] {
						if ok {
							converged++
						}
					}
				}
				fmt.Fprintf(stderr, "   %d/%d cells converged to ±%.3g relative CI95 (cap %s)\n",
					converged, cells, *targetCI, seedCap(*maxSeeds, &def, *seeds))
			}
		}
		// Failed seeds did not abort the sweep, but their cells aggregate
		// fewer runs; list each so the exact run can be reproduced.
		if len(res.Failures) > 0 {
			failedRuns += len(res.Failures)
			fmt.Fprintf(stderr, "   %d run(s) failed and were excluded from their cells:\n", len(res.Failures))
			for _, f := range res.Failures {
				fmt.Fprintf(stderr, "     %s at %s=%v seed %d: %s\n",
					f.Variant, def.XLabel, f.X, f.Seed, f.Message)
			}
		}
		tables := res.Tables()
		for _, tbl := range tables {
			emit(stdout, tbl, *format)
			fmt.Fprintln(stdout)
		}
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fmt.Fprintf(stderr, "rtexp: %v\n", err)
				return 1
			}
			for i, tbl := range tables {
				name := filepath.Join(*outDir, fmt.Sprintf("%s-%s.csv", def.ID, def.Figures[i].ID))
				if err := os.WriteFile(name, []byte(tbl.CSV()), 0o644); err != nil {
					fmt.Fprintf(stderr, "rtexp: %v\n", err)
					return 1
				}
			}
		}
		if *plots {
			for _, ch := range res.Charts() {
				fmt.Fprintln(stdout, ch.Render())
			}
		}
	}
	if *exp == "all" {
		elapsed := time.Since(allStart)
		rps := 0.0
		if elapsed > 0 {
			rps = float64(totalRuns) / elapsed.Seconds()
		}
		fmt.Fprintf(stderr, "== all experiments: %d runs in %v (%.1f runs/sec)\n",
			totalRuns, elapsed.Round(time.Millisecond), rps)
	}
	if failedRuns > 0 {
		fmt.Fprintf(stderr, "rtexp: %d run(s) failed (see above); their cells aggregate the remaining seeds\n", failedRuns)
		return 1
	}
	return 0
}

// seedCap formats the effective per-cell seed cap for the summary line.
func seedCap(maxSeeds int, def *rtdbs.Experiment, seeds int) string {
	if maxSeeds > 0 {
		return fmt.Sprintf("%d seeds", maxSeeds)
	}
	initial := def.Seeds
	if seeds > 0 {
		initial = seeds
	}
	if initial < 2 {
		initial = 2
	}
	return fmt.Sprintf("%d seeds", 4*initial)
}

func listExperiments(w io.Writer) {
	for _, d := range rtdbs.Experiments() {
		fmt.Fprintf(w, "%-20s %s\n", d.ID, d.Title)
		for _, f := range d.Figures {
			fmt.Fprintf(w, "    %-10s %s\n", f.ID, f.Title)
		}
	}
	fmt.Fprintf(w, "%-20s %s\n", "table1", "Table 1 — base parameters (main memory)")
	fmt.Fprintf(w, "%-20s %s\n", "table2", "Table 2 — base parameters (disk resident)")
}

// emit renders a table in a format run has already checked.
func emit(w io.Writer, t *rtdbs.Table, format string) {
	switch format {
	case "md":
		fmt.Fprint(w, t.Markdown())
	case "csv":
		fmt.Fprint(w, t.CSV())
	default:
		fmt.Fprint(w, t.Text())
	}
}
