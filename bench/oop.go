package main

import (
	"fmt"
	"strings"
	"time"
)

// phases is how one run's measuring time is split, and how many set-up
// cycles go before it.
type phases struct {
	warm, open, closed time.Duration
	setups             int
}

// splitSeconds shortens the issue's 3 s + 20 s + 10 s shape to the
// run's budget, keeping the proportions.
func splitSeconds(total time.Duration) phases {
	return phases{
		warm: total / 10, open: total * 6 / 10, closed: total * 3 / 10,
		// One cycle per second of budget, so that a short run is not mostly set-up.
		setups: min(max(int(total/time.Second), 3), setupRepeats),
	}
}

// openWindows is how many equal windows the open phase's p99 is taken
// over: as many as leave each window about 500 samples, between 4 and
// maxWindows. Many short windows beat few long ones: a slow spell of the
// host spoils the windows it falls in, and p99_ms is taken over the
// quietest of them.
func openWindows(due [][]int64) int {
	n := 0
	for _, d := range due {
		n += len(d)
	}
	return min(max(n/500, 4), maxWindows)
}

// session is one spawned server with its connections dialled.
type session struct {
	srv   *serverProc
	ctl   *ctlConn
	conns []*loadConn
}

// setUp spawns rtserve and makes it ready for load: healthy (which
// implies the WAL is open: rtserve opens it before it listens), the
// backlog parked, connections dialled.
func setUp(env *environment, w *workloadSpec, streams []*stream) (s *session, err error) {
	s = &session{}
	if s.srv, err = spawnServer(env.rtserve, env.outDir, w); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			s.abandon()
		}
	}()
	if s.ctl, err = dialCtl(s.srv.wireAddr); err != nil {
		return nil, err
	}
	if err = s.ctl.health(); err != nil {
		return nil, err
	}
	if w.Parked > 0 {
		if err = s.ctl.park(w); err != nil {
			return nil, err
		}
	}
	for i, st := range streams {
		c, err := dialLoad(s.srv.wireAddr, i, st)
		if err != nil {
			return nil, err
		}
		s.conns = append(s.conns, c)
	}
	return s, nil
}

func (s *session) closeConns() {
	for _, c := range s.conns {
		c.close()
	}
	if s.ctl != nil {
		s.ctl.close() // wounds the parked backlog, so the drain is short
	}
}

// tearDown closes the connections, sends SIGTERM and requires exit 0.
func (s *session) tearDown() error {
	s.closeConns()
	return s.srv.terminate()
}

func (s *session) abandon() {
	s.closeConns()
	s.srv.kill()
}

// oopResult is everything one out-of-process run measured.
type oopResult struct {
	setups       []float64 // seconds, one per set-up cycle
	warm         phaseResult
	open         phaseResult
	closed       phaseResult
	closedRates  []float64  // correct answers per second, one per round
	closedCPUs   []float64  // server CPU microseconds per correct answer, one per round
	proc0, proc1 procSample // open-phase boundaries
	m0, m1       *serverMetrics
	rssMB        float64
	dupAnswers   int64
	hash         string
}

func runOutOfProcess(env *environment, w *workloadSpec, seed int64, ph phases) (*oopResult, error) {
	res := &oopResult{}
	streams := make([]*stream, loadConns)
	for c := range streams {
		streams[c] = genStream(w, seed, c, 0)
	}
	warmDue := genSchedule(seed, 0, w.Rate, ph.warm, loadConns)
	openDue := genSchedule(seed, 1, w.Rate, ph.open, loadConns)
	res.hash = streamHash(genParked(w), streams, openDue)

	var s *session
	for r := 0; r < ph.setups; r++ {
		if s != nil {
			if err := s.tearDown(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if s, err = setUp(env, w, streams); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())
	}
	defer func() {
		if s != nil {
			s.abandon()
		}
	}()

	var err error
	if _, res.warm, err = openPhase(s.conns, phaseWarm, warmDue, ph.warm, answerGrace, 0); err != nil {
		return nil, err
	}
	if res.m0, err = s.ctl.metrics(); err != nil {
		return nil, err
	}
	if res.proc0, err = sampleProc(s.srv.pid()); err != nil {
		return nil, err
	}
	// The CPU sample closes the phase before the grace wait, so it is
	// taken by a timer, not after openPhase returns.
	procEnd := make(chan procSample, 1)
	time.AfterFunc(ph.open, func() {
		p, _ := sampleProc(s.srv.pid())
		procEnd <- p
	})
	_, res.open, err = openPhase(s.conns, phaseOpen, openDue, ph.open, answerGrace, openWindows(openDue))
	if err != nil {
		return nil, err
	}
	res.proc1 = <-procEnd
	if res.m1, err = s.ctl.metrics(); err != nil {
		return nil, err
	}

	// Closed phase, in rounds: throughput under a full window settles
	// into a batching pattern that can hold for seconds, and every round
	// starts from an idle server and draws a new one. Tables are sized
	// for a rate no server reaches.
	round := ph.closed / closedRounds
	for k := 0; k < closedRounds; k++ {
		tables := make([]*table, len(s.conns))
		for c := range tables {
			tables[c] = &table{entries: make([]entry, int(150_000*round.Seconds())+closedWindow)}
		}
		before, err := sampleProc(s.srv.pid())
		if err != nil {
			return nil, err
		}
		start := nanos()
		for _, t := range tables {
			t.start = start
		}
		if err = runPhase(s.conns, func(c *loadConn) error { return c.runClosed(tables[c.id], phaseClosed+k, round) }); err != nil {
			return nil, err
		}
		// Every request of the round counts, over the time to the last
		// answer: the window's worth still in flight when the round's time
		// is up is part of the work done.
		r := settle(tables, round, closedTimeout, 0)
		after, err := sampleProc(s.srv.pid())
		if err != nil {
			return nil, err
		}
		res.closedRates = append(res.closedRates, ratio(float64(r.ok), float64(r.lastRecv-start)/1e9))
		res.closedCPUs = append(res.closedCPUs, ratio(float64((after.cpu-before.cpu).Nanoseconds())/1e3, float64(r.ok)))
		res.closed.add(r)
	}

	res.rssMB = float64(statusField(fmt.Sprintf("/proc/%d/status", s.srv.pid()), "VmHWM:")) / 1024
	for _, c := range s.conns {
		res.dupAnswers += c.dupAnswers.Load()
	}
	err = s.tearDown()
	s = nil
	return res, err
}

// attempted and failed count every foreground request of the run.
func (r *oopResult) attempted() int { return r.warm.sent + r.open.sent + r.closed.sent }
func (r *oopResult) failed() int {
	return r.attempted() - r.warm.ok - r.open.ok - r.closed.ok
}

// invalid explains why the generator did not offer the load it was
// asked to, or returns "".
func (r *oopResult) invalid() string {
	var why []string
	if lag := percentile(r.open.lag, 0.99); lag > maxGenLagP99Ms {
		why = append(why, fmt.Sprintf("client.gen_lag_p99_ms %.2f > %.0f", lag, maxGenLagP99Ms))
	}
	if share := ratio(float64(r.open.sent), float64(r.open.due)); share < minSentShare {
		why = append(why, fmt.Sprintf("client.sent_rate_share %.4f < %.2f", share, minSentShare))
	}
	return strings.Join(why, "; ")
}

// endToEnd computes the seven end-to-end metrics. p50_ms and ok_share
// are over every request of the open phase; p99_ms, capacity_tps and
// cpu_us_per_txn are over the quietest windows and rounds (stats.go).
func (r *oopResult) endToEnd() map[string]float64 {
	okFast := 0
	for _, l := range r.open.lat {
		if l <= okLimitMs {
			okFast++
		}
	}
	var p99s []float64
	for _, lats := range r.open.latByWindow {
		p99s = append(p99s, percentile(lats, 0.99))
	}
	return map[string]float64{
		"p50_ms":         percentile(r.open.lat, 0.50),
		"p99_ms":         quietest(p99s, false),
		"ok_share":       ratio(float64(okFast), float64(r.open.due)),
		"capacity_tps":   quietest(r.closedRates, true),
		"cpu_us_per_txn": quietest(r.closedCPUs, false),
		"rss_mb":         r.rssMB,
		"setup_s":        percentile(r.setups, 0.50),
	}
}

// layerMetrics computes the per-layer metrics the out-of-process run
// can see: the generator's own, /proc, and open-phase deltas of the
// wire metrics frame.
func (r *oopResult) layerMetrics() map[string]float64 {
	wall := r.proc1.at.Sub(r.proc0.at).Seconds()
	m := map[string]float64{
		"client.gen_lag_p99_ms":  percentile(r.open.lag, 0.99),
		"client.sent_rate_share": ratio(float64(r.open.sent), float64(r.open.due)),
		"client.rtt_p50_ms":      percentile(r.open.rtt, 0.50),
		"client.rtt_p99_ms":      percentile(r.open.rtt, 0.99),
		"client.p999_ms":         percentile(r.open.lat, 0.999),
		"client.unanswered":      float64(r.warm.unanswered + r.open.unanswered + r.closed.unanswered),
		"client.dup_answers":     float64(r.dupAnswers),
		"client.wrong_status":    float64(r.warm.wrong + r.open.wrong + r.closed.wrong),
		"proc.cpu_util":          ratio((r.proc1.cpu - r.proc0.cpu).Seconds(), wall),
		"proc.ctxsw_per_txn":     ratio(float64(r.proc1.ctxsw-r.proc0.ctxsw), float64(r.open.ok)),
	}
	e0, e1 := r.m0.Engine, r.m1.Engine
	w0, w1 := r.m0.Wire, r.m1.Wire
	m["wire.shed_share"] = ratio(float64(w1.Shed-w0.Shed), float64(w1.Submits-w0.Submits+w1.Shed-w0.Shed))
	m["wire.bad_frames"] = float64(w1.BadFrames - w0.BadFrames)
	m["core.restarts_per_txn"] = ratio(float64(e1.Restarts-e0.Restarts), float64(e1.Committed-e0.Committed))
	missed := func(e *serverMetrics) float64 {
		return e.Engine.MissPercent / 100 * float64(e.Engine.Committed+e.Engine.Dropped)
	}
	m["core.miss_share"] = ratio(missed(r.m1)-missed(r.m0), float64(e1.Committed+e1.Dropped-e0.Committed-e0.Dropped))
	// The engine reports time averages since its start; the open phase's
	// own average is the difference of the two areas over the elapsed
	// simulated time between the snapshots.
	span := e1.ElapsedNs - e0.ElapsedNs
	m["core.avg_live_txns"] = ratio(e1.AvgLiveTxns*e1.ElapsedNs-e0.AvgLiveTxns*e0.ElapsedNs, span)
	m["core.avg_plist_size"] = ratio(e1.AvgPListSize*e1.ElapsedNs-e0.AvgPListSize*e0.ElapsedNs, span)
	m["core.sim_cpu_util"] = ratio(e1.CPUUtilization*e1.ElapsedNs-e0.CPUUtilization*e0.ElapsedNs, span)
	if l0, l1 := r.m0.WAL, r.m1.WAL; l0 != nil && l1 != nil {
		syncs := float64(l1.Syncs - l0.Syncs)
		m["wal.appends_per_sync"] = ratio(float64(l1.Submits-l0.Submits+l1.Outcomes-l0.Outcomes), syncs)
		m["wal.bytes_per_txn"] = ratio(float64(l1.Bytes-l0.Bytes), float64(l1.Outcomes-l0.Outcomes))
		m["wal.syncs_per_s"] = ratio(syncs, r.m1.at.Sub(r.m0.at).Seconds())
	}
	return m
}
