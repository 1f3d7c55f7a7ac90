// Command rtsim runs a single real-time transaction scheduling simulation
// and prints its metrics — the quickest way to poke at the system.
//
// Usage examples:
//
//	rtsim -policy cca -rate 8
//	rtsim -policy edf-hp -rate 5 -disk -seeds 30
//	rtsim -policy cca -rate 8 -weight 5 -dbsize 300 -count 2000
//	rtsim -policy cca -rate 2 -count 5 -trace        # event-by-event trace
//
// SIGINT/SIGTERM interrupt a multi-seed run between seeds: the summary
// over the seeds that did complete is still printed, then rtsim exits
// with the conventional interrupt code 130.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"repro"
	"repro/internal/shard"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, executes, and returns
// the process exit code (0 success, 1 runtime error, 2 usage error, 130
// interrupted).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rtsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		policy  = fs.String("policy", "cca", "scheduling policy, one of: "+strings.Trim(fmt.Sprint(rtdbs.Policies()), "[]"))
		rate    = fs.Float64("rate", 5, "arrival rate (transactions/second)")
		count   = fs.Int("count", 0, "transactions per run (0 = paper default)")
		dbsize  = fs.Int("dbsize", 0, "database size (0 = paper default)")
		disk    = fs.Bool("disk", false, "disk-resident configuration (Table 2) instead of main memory (Table 1)")
		weight  = fs.Float64("weight", 1, "CCA penalty-weight w")
		cpus    = fs.Int("cpus", 1, "number of CPUs (extension)")
		reads   = fs.Float64("reads", 0, "fraction of accesses taking shared locks (extension)")
		seeds   = fs.Int("seeds", 1, "number of seeds to average over")
		seed    = fs.Int64("seed", 1, "first seed")
		trace   = fs.Bool("trace", false, "print the event trace (single seed only)")
		verbose = fs.Bool("v", false, "print per-seed results")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = fs.String("memprofile", "", "write a heap profile to this file on exit")

		faultSpec = fs.String("fault", "", "fault-injection plan: inline JSON ({...}) or a path to a JSON file")
		oracle    = fs.Bool("oracle", false, "enable the runtime safety oracle (fails the run on the first violated paper invariant)")
		watchdog  = fs.Int("watchdog", 0, "watchdog budget: max same-instant events before declaring a stall (0 = default, <0 = off)")
		admission = fs.String("admission", "", "admission mode: reject-newest or reject-infeasible (empty = admit all)")
		admMax    = fs.Int("admission-max", 0, "live-set cap for the admission controller (required for reject-newest)")
		shardsN   = fs.Int("shards", 1, "engine shards (item i on shard i%N) with deterministic cross-shard epochs (extension)")
		epochIv   = fs.Duration("epoch", 0, "cross-shard epoch interval in simulated time (0 = default; with -shards > 1)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(stderr, "rtsim: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "rtsim: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(stderr, "rtsim: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "rtsim: %v\n", err)
			}
		}()
	}

	var cfg rtdbs.Config
	if *disk {
		cfg = rtdbs.DiskConfig(rtdbs.PolicyKind(*policy), *seed)
	} else {
		cfg = rtdbs.MainMemoryConfig(rtdbs.PolicyKind(*policy), *seed)
	}
	cfg.Workload.ArrivalRate = *rate
	cfg.PenaltyWeight = *weight
	cfg.NumCPUs = *cpus
	cfg.Workload.ReadFraction = *reads
	if *count > 0 {
		cfg.Workload.Count = *count
	}
	if *dbsize > 0 {
		cfg.Workload.DBSize = *dbsize
	}
	if *faultSpec != "" {
		plan, err := loadFaultPlan(*faultSpec)
		if err != nil {
			fmt.Fprintf(stderr, "rtsim: %v\n", err)
			return 2
		}
		cfg.Fault = plan
	}
	cfg.WatchdogBudget = *watchdog
	cfg.Admission = rtdbs.AdmissionConfig{Mode: rtdbs.AdmissionMode(*admission), MaxLive: *admMax}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(stderr, "rtsim: %v\n", err)
		return 2
	}

	if *shardsN > 1 && *trace {
		fmt.Fprintln(stderr, "rtsim: -trace is per-engine; use it with -shards 1")
		return 2
	}

	if *trace {
		e, err := rtdbs.New(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "rtsim: %v\n", err)
			return 1
		}
		e.SetTrace(func(format string, args ...any) {
			fmt.Fprintf(stdout, format+"\n", args...)
		})
		if *oracle {
			e.EnableOracle()
		}
		res, err := e.Run()
		if err != nil {
			fmt.Fprintf(stderr, "rtsim: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "\n%s\n", res)
		return 0
	}

	// SIGINT/SIGTERM interrupt the seed loop between seeds: the current
	// seed finishes, the summary over the completed seeds is still
	// printed, and rtsim exits 130.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	agg := &rtdbs.Aggregate{}
	completed := 0
	interrupted := false
	for s := *seed; s < *seed+int64(*seeds); s++ {
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		c := cfg
		c.Seed = s
		var res rtdbs.Result
		if *shardsN > 1 {
			wl, err := rtdbs.GenerateWorkload(c.Workload, s)
			if err != nil {
				fmt.Fprintf(stderr, "rtsim: seed %d: %v\n", s, err)
				return 1
			}
			r, err := shard.New(c, wl, shard.Options{Shards: *shardsN, Epoch: *epochIv})
			if err != nil {
				fmt.Fprintf(stderr, "rtsim: seed %d: %v\n", s, err)
				return 1
			}
			if *oracle {
				for _, e := range r.Engines() {
					e.EnableOracle()
				}
			}
			sres, err := r.Run()
			if err != nil {
				fmt.Fprintf(stderr, "rtsim: seed %d: %v\n", s, err)
				return 1
			}
			res = sres.Metrics
			if *verbose {
				fmt.Fprintf(stdout, "seed %-3d %s\n", s, res)
				fmt.Fprintf(stdout, "         cross: %d total, %d committed, %d missed, %d partial, %d epochs\n",
					sres.Cross.Total, sres.Cross.Committed, sres.Cross.Missed, sres.Cross.Partial, sres.Epochs)
			}
		} else {
			e, err := rtdbs.New(c)
			if err != nil {
				fmt.Fprintf(stderr, "rtsim: seed %d: %v\n", s, err)
				return 1
			}
			if *oracle {
				e.EnableOracle()
			}
			res, err = e.Run()
			if err != nil {
				fmt.Fprintf(stderr, "rtsim: seed %d: %v\n", s, err)
				return 1
			}
			if *verbose {
				fmt.Fprintf(stdout, "seed %-3d %s\n", s, res)
			}
		}
		agg.Add(res)
		completed++
	}
	if interrupted {
		fmt.Fprintf(stderr, "rtsim: interrupted after %d/%d seeds\n", completed, *seeds)
		if completed == 0 {
			return 130
		}
	}
	sum := agg.Summary()
	fmt.Fprintf(stdout, "policy=%s rate=%.2g seeds=%d\n", cfg.Policy, *rate, completed)
	fmt.Fprintf(stdout, "  miss        = %6.2f%%  (±%.2f)\n", sum.MissPercent, agg.MissPercent.CI95())
	fmt.Fprintf(stdout, "  lateness    = %6.2f ms (±%.2f)\n", sum.MeanLatenessMs, agg.MeanLatenessMs.CI95())
	fmt.Fprintf(stdout, "  restarts/txn= %6.3f   (±%.3f)\n", sum.RestartsPerTxn, agg.RestartsPerTxn.CI95())
	fmt.Fprintf(stdout, "  cpu util    = %6.1f%%\n", 100*sum.CPUUtilization)
	if sum.DiskUtilization > 0 {
		fmt.Fprintf(stdout, "  disk util   = %6.1f%%\n", 100*sum.DiskUtilization)
	}
	fmt.Fprintf(stdout, "  avg P-list  = %6.2f\n", sum.AvgPListSize)
	if sum.LockWaits > 0 || sum.Deadlocks > 0 {
		fmt.Fprintf(stdout, "  lock waits  = %d, deadlocks = %d\n", sum.LockWaits, sum.Deadlocks)
	}
	if sum.Admitted > 0 || sum.Rejected > 0 {
		fmt.Fprintf(stdout, "  admitted    = %d, rejected = %d\n", sum.Admitted, sum.Rejected)
	}
	if sum.RetriedIO > 0 || sum.FaultAborts > 0 {
		fmt.Fprintf(stdout, "  io retries  = %d, fault aborts = %d\n", sum.RetriedIO, sum.FaultAborts)
	}
	if interrupted {
		return 130
	}
	return 0
}

// loadFaultPlan parses a fault plan given inline ("{...}") or as a path to
// a JSON file.
func loadFaultPlan(spec string) (rtdbs.FaultPlan, error) {
	data := []byte(spec)
	if len(spec) == 0 || spec[0] != '{' {
		var err error
		data, err = os.ReadFile(spec)
		if err != nil {
			return rtdbs.FaultPlan{}, err
		}
	}
	return rtdbs.ParseFaultPlan(data)
}
