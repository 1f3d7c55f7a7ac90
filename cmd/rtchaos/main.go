// Command rtchaos runs a deterministic chaos TCP proxy in front of a
// target service (typically rtserve's wire listener or status port). Every
// accepted connection is relayed to the target through a fault schedule
// drawn from (-seed, accept index): connection resets after a byte
// budget, blackhole windows, byte-rate throttling, delayed and truncated
// writes. The same seed and plan always produce the same fault schedule
// per accept index, so a chaos run is replayable.
//
// Usage examples:
//
//	rtchaos -listen :9344 -target 127.0.0.1:8344 -seed 7 \
//	    -plan '{"reset_prob":0.2,"throttle_prob":0.3}'
//	rtchaos -listen :9345 -target 127.0.0.1:8345 -plan '{}'   # plain relay
//
// SIGINT/SIGTERM stop the proxy: accepting ends, every relayed
// connection is severed, and the final fault counters are printed as
// JSON to stderr before a clean exit 0. With -report-json the same
// counters are also written to a file, so harnesses (the kill-9 soak in
// CI) can scrape them without parsing stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/chaos"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is the testable entry point: it parses args, relays until a
// signal, and returns the process exit code (0 clean stop, 1 runtime
// error, 2 usage error).
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("rtchaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen     = fs.String("listen", "127.0.0.1:9344", "proxy listen address")
		target     = fs.String("target", "", "target address to relay to (required)")
		seed       = fs.Int64("seed", 1, "fault-schedule seed; same seed and plan replay the same faults")
		planJSON   = fs.String("plan", "{}", "fault plan as JSON (see internal/chaos.Plan); {} relays faithfully")
		reportJSON = fs.String("report-json", "", "write the final fault counters as JSON to this file on shutdown")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *target == "" {
		fmt.Fprintln(stderr, "rtchaos: -target is required")
		return 2
	}
	plan, err := chaos.ParsePlan(*planJSON)
	if err != nil {
		fmt.Fprintf(stderr, "rtchaos: %v\n", err)
		return 2
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(stderr, "rtchaos: %v\n", err)
		return 1
	}
	p, err := chaos.NewProxy(ln, *target, *seed, plan)
	if err != nil {
		ln.Close()
		fmt.Fprintf(stderr, "rtchaos: %v\n", err)
		return 1
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	fmt.Fprintf(stderr, "rtchaos: relaying %s -> %s (seed %d, zero-plan=%v)\n",
		p.Addr(), *target, *seed, plan.Zero())

	serveErr := make(chan error, 1)
	go func() { serveErr <- p.Serve() }()

	var runErr error
	select {
	case <-sig:
		runErr = p.Close()
		<-serveErr
	case runErr = <-serveErr:
		p.Close()
	}

	c := p.Counters()
	b, _ := json.Marshal(c)
	fmt.Fprintf(stderr, "rtchaos: counters %s\n", b)
	if *reportJSON != "" {
		if err := os.WriteFile(*reportJSON, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "rtchaos: %v\n", err)
			if runErr == nil {
				runErr = err
			}
		}
	}
	if runErr != nil {
		fmt.Fprintf(stderr, "rtchaos: %v\n", runErr)
		return 1
	}
	fmt.Fprintln(stderr, "rtchaos: shutdown complete")
	return 0
}
