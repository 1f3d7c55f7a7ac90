// Command rtload drives a running rtserve with a measured transaction
// load over the binary wire protocol and reports client-side latency and
// outcome statistics. It is the load half of the wire-speed serving path:
// rtserve answers, rtload asks — in either of the two canonical load
// shapes:
//
//   - open loop (-mode open): arrivals are a Poisson process at -rate
//     requests/second, independent of response times — the honest way
//     to probe an overloaded server, since a slow server does not slow
//     the arrival process down (no coordinated omission);
//   - closed loop (-mode closed): -workers synchronous loops, each
//     submitting back-to-back — the classic saturation probe.
//
// A rate-targeted soak is an open-loop run with a long -duration: the
// report then shows whether the server held the target rate, what the
// latency distribution looked like, and how much was shed.
//
// Usage examples:
//
//	rtload -target 127.0.0.1:8345 -mode closed -workers 8 -duration 5s
//	rtload -target 127.0.0.1:8345 -mode open -rate 2000 -duration 30s
//	rtload -report json   # machine-readable report on stdout
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/txn"
	"repro/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// loadOptions is everything a run needs, parsed from flags.
type loadOptions struct {
	target   string
	mode     string
	rate     float64
	workers  int
	conns    int
	duration time.Duration
	maxOut   int

	items    int
	dbsize   int
	compute  time.Duration
	deadline time.Duration
	readFrac float64
	seed     int64

	retries    int
	retryMax   time.Duration
	reqTimeout time.Duration

	report  string
	journal string
}

// tally accumulates outcomes across workers.
type tally struct {
	sent      atomic.Int64
	committed atomic.Int64
	missed    atomic.Int64 // committed after the deadline
	rejected  atomic.Int64
	shed      atomic.Int64
	dropped   atomic.Int64
	invalid   atomic.Int64
	errors    atomic.Int64
	overflow  atomic.Int64 // open loop: outstanding cap hit, request not sent
	retried   atomic.Int64 // resubmissions after an overload signal (shed/rejected) or a provably-unsent failure
	abandoned atomic.Int64 // requests still shed/rejected after the retry budget

	// The error split that matters for crash reconciliation: a request
	// abandoned on wire.ErrNotSent provably never reached the server (no
	// effects possible, safe to have retried), while an ambiguous failure
	// — reset after the frame went out, response timeout — may have been
	// admitted and must be checked against the server's WAL.
	abandonedUnsent    atomic.Int64
	abandonedAmbiguous atomic.Int64

	mu   sync.Mutex
	hist metrics.Histogram // wall latency of answered requests, ms
}

func (tl *tally) observe(d time.Duration) {
	tl.mu.Lock()
	tl.hist.Observe(float64(d) / float64(time.Millisecond))
	tl.mu.Unlock()
}

// Report is the machine-readable run summary (-report json).
type Report struct {
	Mode       string  `json:"mode"`
	TargetRate float64 `json:"target_rate,omitempty"`
	Duration   float64 `json:"duration_s"`
	Sent       int64   `json:"sent"`
	Throughput float64 `json:"throughput_rps"`
	Committed  int64   `json:"committed"`
	Missed     int64   `json:"missed"`
	Rejected   int64   `json:"rejected"`
	Shed       int64   `json:"shed"`
	Dropped    int64   `json:"dropped"`
	Invalid    int64   `json:"invalid"`
	Errors     int64   `json:"errors"`
	Overflow   int64   `json:"overflow"`
	Retried    int64   `json:"retried"`
	// Abandoned is the sum of the three ways a request ends without a
	// server answer the client trusts: still shed/rejected after the
	// retry budget, provably never sent, or ambiguously lost.
	Abandoned          int64   `json:"abandoned"`
	AbandonedUnsent    int64   `json:"abandoned_unsent"`
	AbandonedAmbiguous int64   `json:"abandoned_ambiguous"`
	P50Ms              float64 `json:"p50_ms"`
	P95Ms              float64 `json:"p95_ms"`
	P99Ms              float64 `json:"p99_ms"`
	MaxMs              float64 `json:"max_ms"`
	MeanMs             float64 `json:"mean_ms"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rtload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o loadOptions
	fs.StringVar(&o.target, "target", "127.0.0.1:8345", "server wire address (host:port)")
	fs.StringVar(&o.mode, "mode", "closed", "load shape: open (Poisson at -rate) or closed (-workers back-to-back loops)")
	fs.Float64Var(&o.rate, "rate", 1000, "open loop: target arrival rate, requests/second")
	fs.IntVar(&o.workers, "workers", 8, "closed loop: concurrent synchronous submitters")
	fs.IntVar(&o.conns, "conns", 4, "pipelined connections to spread load over")
	fs.DurationVar(&o.duration, "duration", 5*time.Second, "how long to drive load")
	fs.IntVar(&o.maxOut, "max-outstanding", 4096, "open loop: cap on unanswered requests before arrivals are counted as overflow")
	fs.IntVar(&o.items, "items", 2, "items accessed per transaction")
	fs.IntVar(&o.dbsize, "dbsize", 30, "item space to draw from (match the server's -dbsize)")
	fs.DurationVar(&o.compute, "compute", 100*time.Microsecond, "per-item compute time submitted")
	fs.DurationVar(&o.deadline, "deadline", 50*time.Millisecond, "relative deadline submitted")
	fs.Float64Var(&o.readFrac, "read-frac", 0, "fraction of items flagged as reads")
	fs.Int64Var(&o.seed, "seed", 1, "workload RNG seed")
	fs.IntVar(&o.retries, "retries", 2, "resubmissions of a shed/rejected request, with jittered backoff honoring the server's Retry-After hint (0 disables)")
	fs.DurationVar(&o.retryMax, "retry-max", 2*time.Second, "cap on any single retry backoff sleep")
	fs.DurationVar(&o.reqTimeout, "req-timeout", 30*time.Second, "per-request timeout")
	fs.StringVar(&o.report, "report", "text", "report format on stdout: text or json")
	fs.StringVar(&o.journal, "journal", "", "write a JSONL outcome journal (one line per attempt, with the server's WAL seq) for crash reconciliation")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.mode != "open" && o.mode != "closed" {
		fmt.Fprintf(stderr, "rtload: unknown -mode %q\n", o.mode)
		return 2
	}
	if o.items < 1 || o.dbsize < o.items {
		fmt.Fprintf(stderr, "rtload: need 1 <= -items <= -dbsize\n")
		return 2
	}

	var jn *journal
	if o.journal != "" {
		j, err := openJournal(o.journal)
		if err != nil {
			fmt.Fprintf(stderr, "rtload: %v\n", err)
			return 1
		}
		jn = j
	}

	submit, closeFn, err := newSubmitter(&o, jn)
	if err != nil {
		jn.close()
		fmt.Fprintf(stderr, "rtload: %v\n", err)
		return 1
	}
	defer closeFn()

	var tl tally
	submit = withRetry(&o, &tl, submit)
	start := time.Now()
	switch o.mode {
	case "closed":
		runClosed(&o, &tl, submit)
	case "open":
		runOpen(&o, &tl, submit)
	}
	elapsed := time.Since(start)

	if err := jn.close(); err != nil {
		fmt.Fprintf(stderr, "rtload: journal: %v\n", err)
		return 1
	}

	rep := buildReport(&o, &tl, elapsed)
	switch o.report {
	case "json":
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
	default:
		printText(stdout, rep)
	}
	if tl.errors.Load() > 0 && tl.committed.Load() == 0 {
		return 1
	}
	return 0
}

// outcome is the client-side classification of one answered request.
type outcome int

const (
	outCommitted outcome = iota
	outMissed
	outRejected
	outShed
	outDropped
	outInvalid
	outErrUnsent // wire.ErrNotSent: provably never reached the server
	outError     // ambiguous failure: the server may have admitted it
)

// label is the outcome's journal spelling.
func (o outcome) label() string {
	switch o {
	case outCommitted:
		return "committed"
	case outMissed:
		return "missed"
	case outRejected:
		return "rejected"
	case outShed:
		return "shed"
	case outDropped:
		return "dropped"
	case outInvalid:
		return "invalid"
	case outErrUnsent:
		return "error_unsent"
	default:
		return "error_ambiguous"
	}
}

// journal persists one JSONL line per submit attempt (-journal): the
// client's half of crash reconciliation. Every line whose seq is
// non-zero is a server ack under that WAL sequence — after a kill-9 and
// a -recover restart, `rtserve -wal-dump` must show exactly one
// terminal outcome for each. Lines with seq 0 never got an ack; the
// error_unsent ones provably left no server-side trace, while
// error_ambiguous ones may appear in the dump as unresolved or replayed
// work. Attempts, not requests, are journaled: each retry is its own
// server-side submission with its own seq.
type journal struct {
	mu sync.Mutex
	f  *os.File
	w  *bufio.Writer
}

// journalEntry is one JSONL journal line.
type journalEntry struct {
	Seq     uint64 `json:"seq,omitempty"` // server WAL sequence of the ack, 0 when unacked
	Outcome string `json:"outcome"`
	Missed  bool   `json:"missed,omitempty"` // committed past its deadline
}

func openJournal(path string) (*journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &journal{f: f, w: bufio.NewWriter(f)}, nil
}

// record appends one attempt. A nil journal records nothing, so the
// submit paths call it unconditionally.
func (j *journal) record(seq uint64, out outcome) {
	if j == nil {
		return
	}
	b, _ := json.Marshal(journalEntry{Seq: seq, Outcome: out.label(), Missed: out == outMissed})
	j.mu.Lock()
	j.w.Write(b)
	j.w.WriteByte('\n')
	j.mu.Unlock()
}

func (j *journal) close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.w.Flush(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

// submitFn issues one request built from the worker's RNG and reports
// how it ended, plus the server's Retry-After hint in seconds (0 when
// the answer carried none).
type submitFn func(rng *rand.Rand) (outcome, int)

// withRetry wraps a submitFn with the client-side overload protocol: a
// shed or rejected answer — or a provably-unsent failure, which cannot
// have server-side effects — is resubmitted up to o.retries times after
// a jittered backoff honoring the server's Retry-After hint (full
// jitter: a uniform draw up to the hint, capped at o.retryMax).
// Ambiguous failures are never retried here: the server may have
// admitted the transaction, and blind resubmission would create the
// duplicate effects the recovery harness exists to rule out. Each extra
// attempt counts in tl.retried; a request still shed/rejected when the
// budget runs out counts in tl.abandoned and keeps its final outcome.
func withRetry(o *loadOptions, tl *tally, submit submitFn) submitFn {
	if o.retries <= 0 {
		return submit
	}
	return func(rng *rand.Rand) (outcome, int) {
		out, hint := submit(rng)
		for attempt := 1; attempt <= o.retries && (out == outShed || out == outRejected || out == outErrUnsent); attempt++ {
			ceiling := time.Duration(hint) * time.Second
			if ceiling <= 0 {
				// No hint: exponential base so blind retries still spread out.
				ceiling = 50 * time.Millisecond << (attempt - 1)
			}
			if ceiling > o.retryMax {
				ceiling = o.retryMax
			}
			time.Sleep(time.Duration(rng.Int63n(int64(ceiling) + 1)))
			tl.retried.Add(1)
			out, hint = submit(rng)
		}
		if out == outShed || out == outRejected {
			tl.abandoned.Add(1)
		}
		return out, hint
	}
}

// newSubmitter builds the submit function over o.conns resilient wire
// clients. The returned function is safe for concurrent use. Every attempt
// is recorded in jn (nil when -journal is unset) with the server's WAL
// sequence when the answer carried one.
func newSubmitter(o *loadOptions, jn *journal) (submitFn, func(), error) {
	gen := func(rng *rand.Rand) ([]txn.Item, []bool) {
		items := make([]txn.Item, 0, o.items)
		seen := make(map[int]bool, o.items)
		for len(items) < o.items {
			it := rng.Intn(o.dbsize)
			if !seen[it] {
				seen[it] = true
				items = append(items, txn.Item(it))
			}
		}
		var reads []bool
		if o.readFrac > 0 {
			reads = make([]bool, len(items))
			for i := range reads {
				reads[i] = rng.Float64() < o.readFrac
			}
		}
		return items, reads
	}

	// Eager probe: the resilient client dials lazily and retries, so
	// without this a dead target would burn the whole run in redial
	// loops instead of failing fast at startup.
	probe, err := wire.Dial(o.target, 5*time.Second)
	if err != nil {
		return nil, nil, err
	}
	probe.Close()
	clients := make([]*wire.Resilient, o.conns)
	for i := range clients {
		clients[i] = wire.NewResilient(o.target, wire.ResilientOptions{
			DialTimeout: 5 * time.Second,
			Client:      wire.ClientOptions{RequestTimeout: o.reqTimeout},
			Seed:        o.seed + int64(i),
		})
	}
	var next atomic.Int64
	fn := func(rng *rand.Rand) (outcome, int) {
		items, reads := gen(rng)
		c := clients[int(next.Add(1))%len(clients)]
		resp, err := c.Submit(&wire.SubmitReq{
			Items: items, Reads: reads,
			Compute: o.compute, Deadline: o.deadline,
		})
		if err != nil {
			out := outError
			if errors.Is(err, wire.ErrNotSent) {
				out = outErrUnsent
			}
			jn.record(0, out)
			return out, 0
		}
		out, hint := outInvalid, 0
		switch resp.Status {
		case wire.StatusCommitted:
			out = outCommitted
			if resp.Missed {
				out = outMissed
			}
		case wire.StatusRejected:
			out, hint = outRejected, int(resp.RetryAfter)
		case wire.StatusShed:
			out, hint = outShed, int(resp.RetryAfter)
		case wire.StatusDropped:
			out = outDropped
		case wire.StatusFailed:
			// The server answered but could not vouch for the outcome
			// (engine or log failure): ambiguous, like a lost answer.
			out = outError
		}
		jn.record(resp.Seq, out)
		return out, hint
	}
	closeFn := func() {
		for _, c := range clients {
			c.Close()
		}
	}
	return fn, closeFn, nil
}

func record(tl *tally, out outcome, d time.Duration) {
	tl.sent.Add(1)
	if out != outError && out != outShed {
		tl.observe(d)
	}
	switch out {
	case outCommitted:
		tl.committed.Add(1)
	case outMissed:
		tl.committed.Add(1)
		tl.missed.Add(1)
	case outRejected:
		tl.rejected.Add(1)
	case outShed:
		tl.shed.Add(1)
	case outDropped:
		tl.dropped.Add(1)
	case outInvalid:
		tl.invalid.Add(1)
	case outErrUnsent:
		tl.errors.Add(1)
		tl.abandonedUnsent.Add(1)
	default:
		tl.errors.Add(1)
		tl.abandonedAmbiguous.Add(1)
	}
}

// runClosed: -workers synchronous loops until the clock runs out.
func runClosed(o *loadOptions, tl *tally, submit submitFn) {
	stop := time.Now().Add(o.duration)
	var wg sync.WaitGroup
	for w := 0; w < o.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(o.seed + int64(w)*7919))
			for time.Now().Before(stop) {
				t0 := time.Now()
				out, _ := submit(rng)
				record(tl, out, time.Since(t0))
			}
		}(w)
	}
	wg.Wait()
}

// runOpen: Poisson arrivals at -rate; each arrival gets its own
// goroutine so a slow server never slows the arrival process down
// (bounded by -max-outstanding, beyond which arrivals count as
// overflow instead of silently stretching inter-arrival gaps).
func runOpen(o *loadOptions, tl *tally, submit submitFn) {
	stop := time.Now().Add(o.duration)
	rng := rand.New(rand.NewSource(o.seed))
	sem := make(chan struct{}, o.maxOut)
	var wg sync.WaitGroup
	var seq int64
	for {
		now := time.Now()
		if !now.Before(stop) {
			break
		}
		// Exponential inter-arrival gap for a Poisson process.
		gap := time.Duration(rng.ExpFloat64() / o.rate * float64(time.Second))
		time.Sleep(gap)
		if !time.Now().Before(stop) {
			break
		}
		select {
		case sem <- struct{}{}:
		default:
			tl.overflow.Add(1)
			continue
		}
		seq++
		wg.Add(1)
		go func(seq int64) {
			defer wg.Done()
			defer func() { <-sem }()
			wrng := rand.New(rand.NewSource(o.seed ^ seq*2654435761))
			t0 := time.Now()
			out, _ := submit(wrng)
			record(tl, out, time.Since(t0))
		}(seq)
	}
	wg.Wait()
}

func buildReport(o *loadOptions, tl *tally, elapsed time.Duration) Report {
	rep := Report{
		Mode:               o.mode,
		Duration:           elapsed.Seconds(),
		Sent:               tl.sent.Load(),
		Committed:          tl.committed.Load(),
		Missed:             tl.missed.Load(),
		Rejected:           tl.rejected.Load(),
		Shed:               tl.shed.Load(),
		Dropped:            tl.dropped.Load(),
		Invalid:            tl.invalid.Load(),
		Errors:             tl.errors.Load(),
		Overflow:           tl.overflow.Load(),
		Retried:            tl.retried.Load(),
		AbandonedUnsent:    tl.abandonedUnsent.Load(),
		AbandonedAmbiguous: tl.abandonedAmbiguous.Load(),
	}
	rep.Abandoned = tl.abandoned.Load() + rep.AbandonedUnsent + rep.AbandonedAmbiguous
	if o.mode == "open" {
		rep.TargetRate = o.rate
	}
	if elapsed > 0 {
		rep.Throughput = float64(rep.Sent) / elapsed.Seconds()
	}
	tl.mu.Lock()
	if tl.hist.Count() > 0 {
		rep.P50Ms = tl.hist.Quantile(0.50)
		rep.P95Ms = tl.hist.Quantile(0.95)
		rep.P99Ms = tl.hist.Quantile(0.99)
		rep.MaxMs = tl.hist.Max()
		rep.MeanMs = tl.hist.Mean()
	}
	tl.mu.Unlock()
	rep.round()
	return rep
}

// round trims float noise for stable, readable reports.
func (r *Report) round() {
	f := func(v float64) float64 { return math.Round(v*1000) / 1000 }
	r.Duration = f(r.Duration)
	r.Throughput = f(r.Throughput)
	r.P50Ms = f(r.P50Ms)
	r.P95Ms = f(r.P95Ms)
	r.P99Ms = f(r.P99Ms)
	r.MaxMs = f(r.MaxMs)
	r.MeanMs = f(r.MeanMs)
}

func printText(w io.Writer, r Report) {
	fmt.Fprintf(w, "rtload: %s %.1fs", r.Mode, r.Duration)
	if r.TargetRate > 0 {
		fmt.Fprintf(w, " (target %.0f rps)", r.TargetRate)
	}
	fmt.Fprintf(w, "\n  sent %d (%.0f rps)\n", r.Sent, r.Throughput)
	type line struct {
		name string
		n    int64
	}
	lines := []line{
		{"committed", r.Committed}, {"missed", r.Missed}, {"rejected", r.Rejected},
		{"shed", r.Shed}, {"dropped", r.Dropped}, {"invalid", r.Invalid},
		{"errors", r.Errors}, {"overflow", r.Overflow},
		{"retried", r.Retried}, {"abandoned", r.Abandoned},
		{"abandoned_unsent", r.AbandonedUnsent},
		{"abandoned_ambiguous", r.AbandonedAmbiguous},
	}
	sort.SliceStable(lines, func(i, j int) bool { return lines[i].n > lines[j].n })
	for _, l := range lines {
		if l.n > 0 {
			fmt.Fprintf(w, "  %-19s %d\n", l.name, l.n)
		}
	}
	if r.P50Ms > 0 || r.MaxMs > 0 {
		fmt.Fprintf(w, "  latency ms: p50 %.3f  p95 %.3f  p99 %.3f  max %.3f  mean %.3f\n",
			r.P50Ms, r.P95Ms, r.P99Ms, r.MaxMs, r.MeanMs)
	}
}
