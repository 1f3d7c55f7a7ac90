// Command rtserve runs the CCA engine as a wall-clock transaction service
// behind the binary wire protocol (internal/wire).
//
// Clients submit transaction requests (access list, per-item compute, a
// relative deadline) over -wire-addr — rtload is the command-line client —
// and get back commit/abort/missed-deadline plus the engine-clock timings.
// The service degrades gracefully under overload: the admission controller
// turns infeasible arrivals into fast rejections with a retry hint, the
// inflight bounds shed excess concurrency before it queues, departed
// clients have their transactions wounded, and SIGTERM/SIGINT drain the
// service — new work is refused, in-flight transactions finish or are
// wounded at the drain deadline, and the final metrics snapshot is flushed
// to stderr. -addr is a GET-only status port: /healthz, /metrics and the
// runtime's profiles under /debug/pprof/.
//
// Usage examples:
//
//	rtserve -addr :8344 -wire-addr :8345
//	rtserve -policy cca -admission reject-infeasible -oracle
//	rtserve -disk -drain-timeout 10s -max-inflight 512
//
//	rtload -target 127.0.0.1:8345 -mode closed -workers 4 -duration 2s
//	curl -s localhost:8344/metrics
//	curl -s localhost:8344/healthz
//	go tool pprof http://localhost:8344/debug/pprof/profile?seconds=10
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/wal"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, serves until a signal
// or an engine failure, and returns the process exit code (0 clean drain,
// 1 runtime/engine error, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rtserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "127.0.0.1:8344", "listen address (IP:port) of the GET-only status port: /healthz, /metrics, /debug/pprof/")
		policy    = fs.String("policy", "cca", "scheduling policy, one of: "+strings.Trim(fmt.Sprint(core.Policies()), "[]"))
		disk      = fs.Bool("disk", false, "disk-resident configuration (Table 2) instead of main memory (Table 1)")
		dbsize    = fs.Int("dbsize", 0, "database size (0 = paper default)")
		cpus      = fs.Int("cpus", 1, "number of CPUs")
		weight    = fs.Float64("weight", 1, "CCA penalty-weight w")
		seed      = fs.Int64("seed", 1, "engine seed (disk service times)")
		admission = fs.String("admission", "reject-infeasible", "admission mode: reject-newest, reject-infeasible or admit-all (load shedding)")
		admMax    = fs.Int("admission-max", 0, "live-set cap for the admission controller (required for reject-newest)")

		wireAddr    = fs.String("wire-addr", "127.0.0.1:8345", "listen address (IP:port) of the binary wire protocol (internal/wire), the one way to submit; empty disables it")
		maxInflight = fs.Int("max-inflight", 0, "bound on each wire connection's unanswered submissions and on each shard's inbox (0 = default 256); past it the server sheds")
		drain       = fs.Duration("drain-timeout", 5*time.Second, "graceful-shutdown budget for in-flight transactions before they are wounded")
		speed       = fs.Float64("speed", 1, "simulated seconds per wall second (>1 compresses engine time; for demos and tests)")
		oracle      = fs.Bool("oracle", false, "run under the live safety oracle: a violated paper invariant fails /healthz and stops the service")
		shards      = fs.Int("shards", 1, "engine shards (item i lives on shard i%N); single-shard submissions route directly, cross-shard ones batch at epoch boundaries")
		epoch       = fs.Duration("epoch", 0, "cross-shard epoch interval in simulated time (0 = default; only with -shards > 1)")
		supervise   = fs.Bool("supervise", false, "contain shard-driver failures: a panicking shard fails its inflight transactions and degrades /healthz instead of killing the process")
		restart     = fs.Bool("restart-shards", false, "with -supervise: replace a failed shard with a fresh engine (up to -max-restarts times)")
		maxRestarts = fs.Int("max-restarts", 0, "with -restart-shards: per-shard restart budget (0 = default)")
		wireIdle    = fs.Duration("wire-idle-timeout", 0, "close wire connections idle between frames for this long (slow-loris guard; 0 = default, negative disables)")

		walDir     = fs.String("wal-dir", "", "directory for the durable submission log; empty disables durability")
		walSync    = fs.Duration("wal-sync", 0, "WAL group-commit coalescing interval; 0 (the default) fsyncs as soon as appends are pending, so batches grow only under load")
		walSegment = fs.Int64("wal-segment", 0, "WAL segment rotation size in bytes (0 = default 64MiB)")
		walRetain  = fs.Int("wal-retain", 0, "fully-resolved WAL segments to keep before deletion (0 = default)")
		recoverWAL = fs.Bool("recover", false, "replay unresolved WAL submissions through the engine at startup (requires -wal-dir); without it they are resolved as aborted")
		walDump    = fs.Bool("wal-dump", false, "scan the WAL at -wal-dir, print every record as JSON lines plus a summary, and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *walDump {
		return dumpWAL(*walDir, stdout, stderr)
	}
	if *recoverWAL && *walDir == "" {
		fmt.Fprintln(stderr, "rtserve: -recover requires -wal-dir")
		return 2
	}

	var cfg core.Config
	if *disk {
		cfg = core.DiskConfig(core.PolicyKind(*policy), *seed)
	} else {
		cfg = core.MainMemoryConfig(core.PolicyKind(*policy), *seed)
	}
	cfg.PenaltyWeight = *weight
	cfg.NumCPUs = *cpus
	if *dbsize > 0 {
		cfg.Workload.DBSize = *dbsize
	}
	mode := core.AdmissionMode(*admission)
	if *admission == "admit-all" {
		mode = core.AdmitAll
	}
	cfg.Admission = core.AdmissionConfig{Mode: mode, MaxLive: *admMax}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(stderr, "rtserve: %v\n", err)
		return 2
	}

	srv, err := server.New(server.Options{
		Core:    cfg,
		Service: core.ServiceOptions{Speed: *speed, Oracle: *oracle},
		Shards:  *shards,
		Epoch:   *epoch,
		Supervise: shard.SuperviseOptions{
			Enabled:     *supervise,
			Restart:     *restart,
			MaxRestarts: *maxRestarts,
		},
		MaxInflight:     *maxInflight,
		DrainTimeout:    *drain,
		WireIdleTimeout: *wireIdle,
		WALDir:          *walDir,
		WALSync:         *walSync,
		WALSegmentBytes: *walSegment,
		WALRetain:       *walRetain,
		Recover:         *recoverWAL,
	})
	if err != nil {
		fmt.Fprintf(stderr, "rtserve: %v\n", err)
		return 1
	}
	if rec := srv.Recovery(); rec != nil {
		fmt.Fprintf(stderr, "rtserve: wal: scanned %d segments, %d records, %d unresolved (truncated=%v zero_tail_bytes=%d)\n",
			rec.Segments, rec.Records, len(rec.Unresolved), rec.Truncated, rec.ZeroTailBytes)
		if len(rec.Unresolved) > 0 && !*recoverWAL {
			fmt.Fprintf(stderr, "rtserve: wal: resolving %d unresolved submissions as aborted (run with -recover to replay them)\n", len(rec.Unresolved))
		}
	}

	ln, err := listen(*addr)
	if err != nil {
		fmt.Fprintf(stderr, "rtserve: %v\n", err)
		return 1
	}
	var wireLn net.Listener
	if *wireAddr != "" {
		wireLn, err = listen(*wireAddr)
		if err != nil {
			ln.Close()
			fmt.Fprintf(stderr, "rtserve: %v\n", err)
			return 1
		}
	}

	// SIGINT/SIGTERM start the graceful drain; a second signal kills the
	// process the usual way (the handler is reset once ctx fires).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(stderr, "rtserve: serving %s policy, status port on %s (admission %s, drain %v)\n",
		*policy, ln.Addr(), orDefault(*admission, "admit-all"), *drain)
	if wireLn != nil {
		fmt.Fprintf(stderr, "rtserve: wire protocol on %s\n", wireLn.Addr())
	}

	serveErr := srv.ServeListeners(ctx, ln, wireLn)
	stop()

	if srv.WAL() != nil {
		ws := srv.WAL().Stats()
		rs := srv.ReplayStats()
		fmt.Fprintf(stderr, "rtserve: wal: %d submits, %d outcomes, %d syncs, %d unresolved; replay replayed=%d aborted=%d failed=%d\n",
			ws.Submits, ws.Outcomes, ws.Syncs, ws.Unresolved, rs.Replayed, rs.Aborted, rs.Failed)
	}

	// Flush the final metrics snapshot taken during drain.
	if st, ok := srv.Final(); ok {
		r := st.Result
		fmt.Fprintf(stderr, "rtserve: drained: committed=%d dropped=%d rejected=%d miss=%.1f%% mean_response=%.2fms restarts/txn=%.3f\n",
			r.Committed, r.Dropped, r.Rejected, r.MissPercent, r.MeanResponseMs, r.RestartsPerTxn)
	}
	if serveErr != nil {
		fmt.Fprintf(stderr, "rtserve: %v\n", serveErr)
		return 1
	}
	fmt.Fprintln(stderr, "rtserve: shutdown complete")
	return 0
}

// listen opens a TCP listener on addr, whose host must be empty or an IP
// address: the server looks no name up, so it links no resolver.
func listen(addr string) (net.Listener, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, err
	}
	pn, err := strconv.ParseUint(port, 10, 16)
	if err != nil {
		return nil, fmt.Errorf("listen %s: port must be a number", addr)
	}
	var ip netip.Addr
	if host != "" {
		if ip, err = netip.ParseAddr(host); err != nil {
			return nil, fmt.Errorf("listen %s: host must be an IP address", addr)
		}
	}
	return net.ListenTCP("tcp", net.TCPAddrFromAddrPort(netip.AddrPortFrom(ip, uint16(pn))))
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// dumpWAL scans the log at dir read-only and prints every valid record
// as one JSON object per line on stdout — submits, outcomes, then a
// final {"type":"summary",...} line carrying the scan totals. The
// crash-soak harness reconciles this output against rtload's
// client-side outcome journal.
func dumpWAL(dir string, stdout, stderr io.Writer) int {
	if dir == "" {
		fmt.Fprintln(stderr, "rtserve: -wal-dump requires -wal-dir")
		return 2
	}
	fsys, err := wal.NewDirFS(dir)
	if err != nil {
		fmt.Fprintf(stderr, "rtserve: %v\n", err)
		return 1
	}
	type submitLine struct {
		Type        string  `json:"type"`
		Seq         uint64  `json:"seq"`
		Items       []int32 `json:"items"`
		ComputeMs   float64 `json:"compute_ms"`
		DeadlineMs  float64 `json:"deadline_ms"`
		Criticality int     `json:"criticality,omitempty"`
		Class       int     `json:"class,omitempty"`
	}
	type outcomeLine struct {
		Type     string `json:"type"`
		Seq      uint64 `json:"seq"`
		State    string `json:"state"`
		Missed   bool   `json:"missed"`
		Replayed bool   `json:"replayed,omitempty"`
		Aborted  bool   `json:"aborted,omitempty"`
		Restarts uint32 `json:"restarts,omitempty"`
	}
	msf := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	enc := json.NewEncoder(stdout)
	rec, err := wal.Scan(fsys, func(h wal.Header, sub *wal.SubmitRecord, out *wal.OutcomeRecord) error {
		switch h.Type {
		case wal.RecSubmit:
			return enc.Encode(submitLine{
				Type:        "submit",
				Seq:         sub.Seq,
				Items:       sub.Items,
				ComputeMs:   msf(sub.Compute),
				DeadlineMs:  msf(sub.Deadline),
				Criticality: sub.Criticality,
				Class:       sub.Class,
			})
		case wal.RecOutcome:
			return enc.Encode(outcomeLine{
				Type:     "outcome",
				Seq:      out.Seq,
				State:    core.State(out.State).String(),
				Missed:   out.Missed,
				Replayed: out.Replayed(),
				Aborted:  out.Aborted(),
				Restarts: out.Restarts,
			})
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(stderr, "rtserve: wal scan: %v\n", err)
		return 1
	}
	summary := struct {
		Type string `json:"type"`
		*wal.Recovery
		Unresolved int `json:"unresolved"`
	}{Type: "summary", Recovery: rec, Unresolved: len(rec.Unresolved)}
	if err := enc.Encode(summary); err != nil {
		fmt.Fprintf(stderr, "rtserve: %v\n", err)
		return 1
	}
	return 0
}
