package main

// The traced run: the same request streams driven through the layers
// in-process, with spans recorded from this file around calls into the
// repository's public functions. Every use of repro/internal/{core,
// shard,server,wal} by the benchmark is in this file and trace.go, so a
// change to those APIs has one place to follow.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/wire"
)

// crossProbe is what the cross-shard probe of a sharded workload saw:
// the full in-process stack under the workload's stream with
// tracedCrossShare of it touching both shards (see knownFailures).
type crossProbe struct {
	Sent            int   `json:"sent"`
	CrossSent       int   `json:"cross_sent"`
	CrossOK         int   `json:"cross_ok"`
	Unanswered      int   `json:"unanswered"`
	WrongStatus     int   `json:"wrong_status"`
	DuplicateFrames int64 `json:"dup_answers"`
}

// probeGrace is how long the cross probe waits for answers after each
// of its phases. A cross-shard answer takes an epoch (1 ms); the ones
// the defect loses never come, so the whole wait is always spent.
const probeGrace = 200 * time.Millisecond

type tracedResult struct {
	metrics map[string]float64
	probe   *crossProbe
	file    string
}

func runTraced(env *environment, w *workloadSpec, seed int64, budget time.Duration) (*tracedResult, error) {
	rec := &recorder{}
	m := map[string]float64{}
	part := func(f float64) time.Duration { return time.Duration(float64(budget) * f) }

	// (1) The full stack, untraced and with the stamping listener and the
	// timed WAL filesystem; the difference in round-trip time is the
	// tracing overhead. The order plain, traced, traced, plain keeps a
	// drift of the host's speed out of that difference.
	var plain, wrapped stackResult
	for _, traced := range []bool{false, true, true, false} {
		into, r := &plain, (*recorder)(nil)
		if traced {
			into, r = &wrapped, rec
			rec.run++
		}
		if err := runStack(env, w, seed, part(0.1), r, 0, answerGrace, into); err != nil {
			return nil, fmt.Errorf("stack (traced %v): %w", traced, err)
		}
	}
	rec.run = 0
	rttP50 := percentile(wrapped.rttUs, 0.50)
	resP50 := percentile(wrapped.residenceUs, 0.50)
	netP50 := percentile(wrapped.residualUs, 0.50)
	m["server.residence_p50_us"] = resP50
	m["server.residence_p99_us"] = percentile(wrapped.residenceUs, 0.99)
	m["server.frames_per_read"] = ratio(float64(wrapped.framesIn), float64(wrapped.reads))
	m["server.frames_per_write"] = ratio(float64(wrapped.framesOut), float64(wrapped.writes))
	m["net.residual_p50_us"] = netP50
	m["trace.overhead_share"] = ratio(rttP50-percentile(plain.rttUs, 0.50), percentile(plain.rttUs, 0.50))
	if w.WAL {
		syncs := rec.durations("wal.fsync")
		m["wal.fsync_p50_us"] = percentile(syncs, 0.50)
		m["wal.fsync_p99_us"] = percentile(syncs, 0.99)
		m["wal.write_bytes_per_sync"] = ratio(float64(rec.bytes("wal.write")), float64(len(syncs)))
	}

	// (2) The same stream straight into the service below the front-end.
	direct, err := runDirect(w, seed, part(0.2), rec)
	if err != nil {
		return nil, fmt.Errorf("direct: %w", err)
	}
	stdP50 := percentile(direct.alignedUs, 0.50)
	m["core.submit_to_done_p50_us"] = stdP50
	m["core.submit_to_done_p99_us"] = percentile(direct.alignedUs, 0.99)
	m["core.submit_call_us"] = direct.callUsPerTxn
	// The two medians come from different runs; where the front-end's
	// own share is smaller than the host's noise the difference can come
	// out negative, and is then left out.
	if self := resP50 - stdP50; self >= 0 {
		m["server.self_p50_us"] = self
	}
	// net.residual + server.self + submit_to_done; the last two are the residence.
	m["trace.unattributed_share"] = ratio(math.Abs(rttP50-(netP50+resP50)), rttP50)

	res := &tracedResult{metrics: m}
	switch {
	case w.Shards > 1:
		m["shard.submit_to_done_p50_us"] = stdP50
		m["shard.cross_to_done_p50_us"] = percentile(direct.crossUs, 0.50)
		m["shard.cross_share"] = ratio(float64(len(direct.crossUs)+direct.crossBad), float64(direct.sent))
		var probe stackResult
		if err := runStack(env, w, seed, part(0.15), nil, tracedCrossShare, probeGrace, &probe); err != nil {
			return nil, fmt.Errorf("cross probe: %w", err)
		}
		res.probe = &probe.probe
		m["shard.cross_fail_share"] = ratio(float64(probe.probe.CrossSent-probe.probe.CrossOK), float64(probe.probe.CrossSent))
	case w.Parked > 0:
		// The growth curve of scheduling cost against the live set.
		curve, err := backlogCurve(w, seed, max(part(0.06), minCurveLevel))
		if err != nil {
			return nil, fmt.Errorf("backlog curve: %w", err)
		}
		for live, us := range curve {
			m[fmt.Sprintf("core.txn_us_live%d", live)] = us
		}
	case w.WAL:
		// (3) The log alone.
		durable, err := walDirect(env, w, seed, part(0.15), rec)
		if err != nil {
			return nil, fmt.Errorf("wal direct: %w", err)
		}
		m["wal.append_to_durable_p50_us"] = percentile(durable, 0.50)
		m["wal.append_to_durable_p99_us"] = percentile(durable, 0.99)
	}

	// (4) The codecs alone.
	codec, err := codecLoop(w, seed)
	if err != nil {
		return nil, err
	}
	for k, v := range codec {
		m[k] = v
	}

	res.file = filepath.Join(env.outDir, "trace-"+w.Name+".json")
	if err := rec.write(res.file, w.Name, seed); err != nil {
		return nil, err
	}
	return res, nil
}

// --- (1) full stack -----------------------------------------------------------

// coreConfig is the engine configuration rtserve builds from the
// benchmark's common flags.
func coreConfig(dbSize int) core.Config {
	cfg := core.MainMemoryConfig(core.CCA, 1)
	cfg.Workload.DBSize = dbSize
	cfg.Admission = core.AdmissionConfig{Mode: core.AdmitAll}
	return cfg
}

// stackResult adds up over the runStack calls it is passed to.
type stackResult struct {
	rttUs, residenceUs, residualUs []float64
	framesIn, reads                int // request frames and the Read calls that delivered them
	framesOut, writes              int
	probe                          crossProbe
}

// runStack serves the workload from an in-process server.Server on
// loopback listeners and drives it with the out-of-process run's
// client. With rec set, the wire listener stamps frames and the WAL
// filesystem times its calls. crossShare > 0 mixes cross-shard
// transactions into the stream (the cross probe). Results are added to res.
func runStack(env *environment, w *workloadSpec, seed int64, dur time.Duration, rec *recorder, crossShare float64, grace time.Duration, res *stackResult) error {
	opts := server.Options{
		Core:         coreConfig(8192),
		Service:      core.ServiceOptions{Speed: w.Speed},
		Shards:       w.Shards,
		MaxInflight:  4096,
		DrainTimeout: 200 * time.Millisecond,
	}
	if w.WAL {
		dir, err := os.MkdirTemp(env.outDir, "wal-stack-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		opts.WALDir = dir
		if rec != nil {
			fsys, err := wal.NewDirFS(dir)
			if err != nil {
				return err
			}
			opts.WALFS = timedFS{fsys, rec}
		}
	}
	srv, err := server.New(opts)
	if err != nil {
		return err
	}
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	tcpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		httpLn.Close()
		return err
	}
	wireLn := tcpLn
	var stamps *stampListener
	if rec != nil {
		stamps = &stampListener{Listener: tcpLn}
		wireLn = stamps
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.ServeListeners(ctx, httpLn, wireLn) }()
	stop := func() error {
		cancel()
		return <-served
	}

	streams := make([]*stream, loadConns)
	for c := range streams {
		streams[c] = genStream(w, seed, c, crossShare)
	}
	sess := &session{}
	fail := func(err error) error {
		sess.closeConns()
		stop()
		return err
	}
	addr := tcpLn.Addr().String()
	if sess.ctl, err = dialCtl(addr); err != nil {
		return fail(err)
	}
	if err = sess.ctl.health(); err != nil {
		return fail(err)
	}
	if w.Parked > 0 {
		if err = sess.ctl.park(w); err != nil {
			return fail(err)
		}
	}
	for c, st := range streams {
		lc, err := dialLoad(addr, c, st)
		if err != nil {
			return fail(err)
		}
		sess.conns = append(sess.conns, lc)
	}
	warm := dur / 5
	if _, _, err = openPhase(sess.conns, phaseWarm, genSchedule(seed, 10, w.Rate, warm, loadConns), warm, grace, 0); err != nil {
		return fail(err)
	}
	tables, open, err := openPhase(sess.conns, phaseOpen, genSchedule(seed, 11, w.Rate, dur-warm, loadConns), dur-warm, grace, 0)
	if err != nil {
		return fail(err)
	}
	res.probe.Sent += open.sent
	res.probe.Unanswered += open.unanswered
	res.probe.WrongStatus += open.wrong
	for _, c := range sess.conns {
		res.probe.DuplicateFrames += c.dupAnswers.Load()
	}
	sess.closeConns()
	if err := stop(); err != nil {
		return err
	}

	// The server has stopped: its connection goroutines are done with
	// the stamps.
	type serverTimes struct{ read, written int64 }
	times := map[uint64]*serverTimes{}
	if stamps != nil {
		for _, sc := range stamps.conns {
			res.framesIn += len(sc.in.stamps)
			res.reads += sc.in.calls
			res.framesOut += len(sc.out.stamps)
			res.writes += sc.out.calls
			for _, s := range sc.in.stamps {
				times[s.id] = &serverTimes{read: s.at}
			}
			for _, s := range sc.out.stamps {
				if t := times[s.id]; t != nil && t.written == 0 {
					t.written = s.at
				}
			}
		}
	}
	for c, t := range tables {
		for i := range t.entries {
			e := &t.entries[i]
			st := e.state.Load()
			if st == stIdle {
				continue
			}
			if streams[c].cross[i%streams[c].n()] {
				res.probe.CrossSent++
				if st == stOK {
					res.probe.CrossOK++
				}
			}
			if st != stOK {
				continue
			}
			id := makeID(phaseOpen, c, i)
			sent, recv := e.sent.Load(), e.recv.Load()
			res.rttUs = append(res.rttUs, float64(recv-sent)/1e3)
			if tm := times[id]; tm != nil && tm.written != 0 {
				res.residenceUs = append(res.residenceUs, float64(tm.written-tm.read)/1e3)
				res.residualUs = append(res.residualUs, float64(recv-sent-(tm.written-tm.read))/1e3)
				rec.add(
					span{Name: "client.request", ID: id, Start: sent, End: recv},
					span{Name: "server.residence", ID: id, Start: tm.read, End: tm.written, Parent: "client.request"},
				)
			}
		}
	}
	return nil
}

// --- (2) below the front-end ---------------------------------------------------

// batchService is what core.Service and shard.Service share.
type batchService interface {
	Run(ctx context.Context) error
	SubmitBatch(subs []core.Submission) []core.SubmitHandle
	Stats() (core.ServiceStats, bool)
}

func newService(w *workloadSpec, dbSize int) (batchService, error) {
	opt := core.ServiceOptions{Speed: w.Speed}
	if w.Shards > 1 {
		return shard.NewService(coreConfig(dbSize), shard.ServiceOptions{Shards: w.Shards, Core: opt})
	}
	return core.NewService(coreConfig(dbSize), opt)
}

func serviceRequest(r *wire.SubmitReq) core.ServiceRequest {
	// The stream's slices are never written after generation, so the
	// engine may keep them.
	return core.ServiceRequest{Items: r.Items, Reads: r.Reads, Compute: r.Compute, Deadline: r.Deadline}
}

// startService runs svc; stop cancels it and waits for Run to return.
func startService(svc batchService) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		svc.Run(ctx)
	}()
	return func() {
		cancel()
		<-done
	}
}

// parkDirect parks one-item transactions on items [from, to) and waits
// until the live set holds them.
func parkDirect(svc batchService, from, to int) error {
	subs := make([]core.Submission, 0, to-from)
	for j := from; j < to; j++ {
		subs = append(subs, core.Submission{
			Req:  core.ServiceRequest{Items: []txn.Item{txn.Item(j)}, Compute: parkCompute, Deadline: parkDeadline},
			Done: func(core.ServiceOutcome, error) {},
		})
	}
	svc.SubmitBatch(subs)
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, ok := svc.Stats()
		if ok && st.Live >= to {
			return nil
		}
		if !ok || time.Now().After(deadline) {
			return fmt.Errorf("parked backlog: %d live, want %d", st.Live, to)
		}
		time.Sleep(time.Millisecond)
	}
}

type directResult struct {
	alignedUs, crossUs []float64 // call → Done, committed requests
	crossBad           int
	sent               int
	callUsPerTxn       float64
}

// runDirect paces the workload's stream (on a sharded workload with
// tracedCrossShare of it touching both shards) into SubmitBatch on the out-of-process run's grid and times call →
// Done. Each batch gets a fresh slice: the service may read it after
// SubmitBatch returns.
func runDirect(w *workloadSpec, seed int64, dur time.Duration, rec *recorder) (*directResult, error) {
	svc, err := newService(w, 8192)
	if err != nil {
		return nil, err
	}
	stop := startService(svc)
	defer stop()
	if w.Parked > 0 {
		if err := parkDirect(svc, 0, w.Parked); err != nil {
			return nil, err
		}
	}
	crossShare := 0.0
	if w.Shards > 1 {
		crossShare = tracedCrossShare
	}
	st := genStream(w, seed, 0, crossShare)
	due := genSchedule(seed, 20, w.Rate, dur, 1)[0]
	called := make([]int64, len(due))
	doneAt := make([]atomic.Int64, len(due)) // 0 pending, <0 failed
	var callNs int64

	paceOnGrid(due, nanos(), 0, dur, func(i, j int) error {
		subs := make([]core.Submission, 0, j-i)
		for k := i; k < j; k++ {
			k := k
			subs = append(subs, core.Submission{
				Req: serviceRequest(&st.reqs[k%st.n()]),
				Done: func(o core.ServiceOutcome, err error) {
					at := nanos()
					if err != nil || o.State != core.StateCommitted {
						at = -1
					}
					doneAt[k].Store(at)
				},
			})
		}
		t0 := nanos()
		for k := i; k < j; k++ {
			called[k] = t0
		}
		svc.SubmitBatch(subs)
		callNs += nanos() - t0
		return nil
	})
	time.Sleep(100 * time.Millisecond) // the last submissions' Done: a cross-shard one waits an epoch (1 ms)

	res := &directResult{}
	for k := range due {
		if called[k] == 0 {
			break // due at the very end: its grid point lay past dur
		}
		res.sent++
		at, cross := doneAt[k].Load(), st.cross[k%st.n()]
		switch {
		case at > 0 && cross:
			res.crossUs = append(res.crossUs, float64(at-called[k])/1e3)
			rec.add(span{Name: "shard.cross_to_done", ID: uint64(k), Start: called[k], End: at})
		case at > 0:
			res.alignedUs = append(res.alignedUs, float64(at-called[k])/1e3)
			rec.add(span{Name: "core.submit_to_done", ID: uint64(k), Start: called[k], End: at})
		case cross:
			res.crossBad++
		}
	}
	res.callUsPerTxn = ratio(float64(callNs)/1e3, float64(res.sent))
	return res, nil
}

// backlogLevels are the parked-backlog sizes of the growth curve.
var backlogLevels = []int{16, 128, 1024, 8192}

// minCurveLevel is the least time a level is measured for: at 8192 live
// a transaction takes milliseconds, and a level needs some to commit.
const minCurveLevel = 150 * time.Millisecond

// backlogCurve measures mean wall microseconds per committed foreground
// transaction in a saturated closed loop over each parked-backlog size.
// The database is twice the usual size so the foreground keeps items of
// its own at the largest backlog.
func backlogCurve(w *workloadSpec, seed int64, per time.Duration) (map[int]float64, error) {
	const dbSize = 16384
	fg := *w
	fg.ItemLo, fg.ItemHi = dbSize/2, dbSize
	svc, err := newService(&fg, dbSize)
	if err != nil {
		return nil, err
	}
	stop := startService(svc)
	defer stop()
	st := genStream(&fg, seed, 0, 0)

	curve := map[int]float64{}
	parked, next := 0, 0
	for _, live := range backlogLevels {
		if err := parkDirect(svc, parked, live); err != nil {
			return nil, err
		}
		parked = live
		var outstanding, committed atomic.Int64
		wake := make(chan struct{}, 1)
		t0 := time.Now()
		// For per, and on until something has committed: under the race
		// detector a transaction over 8192 live ones outlasts a short per.
		for e := time.Duration(0); e < per || (committed.Load() == 0 && e < 10*time.Second); e = time.Since(t0) {
			free := closedWindow - int(outstanding.Load())
			if free < closedBurst {
				select {
				case <-wake:
				case <-time.After(10 * time.Millisecond):
				}
				continue
			}
			subs := make([]core.Submission, free)
			for k := range subs {
				subs[k] = core.Submission{
					Req: serviceRequest(&st.reqs[next%st.n()]),
					Done: func(o core.ServiceOutcome, err error) {
						if err == nil && o.State == core.StateCommitted {
							committed.Add(1)
						}
						if closedWindow-int(outstanding.Add(-1)) >= closedBurst {
							select {
							case wake <- struct{}{}:
							default:
							}
						}
					},
				}
				next++
			}
			outstanding.Add(int64(free))
			svc.SubmitBatch(subs)
		}
		elapsed := time.Since(t0)
		n := committed.Load()
		if n == 0 {
			return nil, fmt.Errorf("backlog %d: no foreground transaction committed in %v", live, elapsed)
		}
		curve[live] = float64(elapsed.Microseconds()) / float64(n)
		if live == backlogLevels[len(backlogLevels)-1] {
			break // stop abandons what is still outstanding
		}
		// The next level starts from an empty foreground.
		for deadline := time.Now().Add(10 * time.Second); outstanding.Load() > 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	return curve, nil
}

// --- (3) the log alone -----------------------------------------------------------

// walDirect paces the stream's records into a wal.Logger on the grid:
// a submit record, then its outcome record, timing append → durable.
func walDirect(env *environment, w *workloadSpec, seed int64, dur time.Duration, rec *recorder) ([]float64, error) {
	dir, err := os.MkdirTemp(env.outDir, "wal-direct-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fsys, err := wal.NewDirFS(dir)
	if err != nil {
		return nil, err
	}
	log, _, err := wal.Open(wal.Options{FS: fsys})
	if err != nil {
		return nil, err
	}
	st := genStream(w, seed, 0, 0)
	due := genSchedule(seed, 30, w.Rate, dur, 1)[0]
	appended := make([]int64, len(due))
	durableAt := make([]atomic.Int64, len(due))

	err = paceOnGrid(due, nanos(), 0, dur, func(i, j int) error {
		for k := i; k < j; k++ {
			k, req := k, &st.reqs[k%st.n()]
			sub := wal.SubmitRecord{Compute: req.Compute, Deadline: req.Deadline}
			for _, it := range req.Items {
				sub.Items = append(sub.Items, int32(it))
			}
			appended[k] = nanos()
			seq, err := log.AppendSubmit(&sub)
			if err != nil {
				return err
			}
			out := wal.OutcomeRecord{Seq: seq, State: uint8(core.StateCommitted)}
			if err := log.AppendOutcome(&out, func(err error) {
				if err == nil {
					durableAt[k].Store(nanos())
				}
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		log.Close()
		return nil, err
	}
	if err := log.Close(); err != nil { // flushes: every callback has fired
		return nil, err
	}
	var us []float64
	sent := 0
	for k := range due {
		if appended[k] == 0 {
			break // due at the very end: its grid point lay past dur
		}
		sent++
		if at := durableAt[k].Load(); at > 0 {
			us = append(us, float64(at-appended[k])/1e3)
			rec.add(span{Name: "wal.append_to_durable", ID: uint64(k), Start: appended[k], End: at})
		}
	}
	if len(us) != sent {
		return nil, fmt.Errorf("%d of %d records became durable", len(us), sent)
	}
	return us, nil
}

// --- (4) the codecs alone ---------------------------------------------------------

// codecLoop times each codec call over the workload's own requests and
// their answers, and FrameReader.Next over an in-memory stream.
func codecLoop(w *workloadSpec, seed int64) (map[string]float64, error) {
	const laps = 8
	st := genStream(w, seed, 0, 0)
	n := st.n()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	perOp := func(fn func(i int)) float64 {
		t0 := time.Now()
		for lap := 0; lap < laps; lap++ {
			for i := 0; i < n; i++ {
				fn(i)
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(laps*n)
	}
	var buf []byte
	var req wire.SubmitReq
	resp := wire.SubmitResp{Status: wire.StatusCommitted, Arrival: time.Second, Finish: 2 * time.Second, Deadline: time.Minute, Response: time.Second}
	respFrame := wire.AppendSubmitResp(nil, 1, &resp)
	failed := 0

	m := map[string]float64{}
	m["wire.encode_req_ns"] = perOp(func(i int) { buf = wire.AppendSubmit(buf[:0], uint64(i), &st.reqs[i]) })
	m["wire.decode_req_ns"] = perOp(func(i int) {
		if wire.DecodeSubmit(st.frame(i)[wire.HeaderLen:], &req) != nil {
			failed++
		}
	})
	m["wire.encode_resp_ns"] = perOp(func(i int) { buf = wire.AppendSubmitResp(buf[:0], uint64(i), &resp) })
	m["wire.decode_resp_ns"] = perOp(func(i int) {
		if wire.DecodeSubmitResp(respFrame[wire.HeaderLen:], &resp) != nil {
			failed++
		}
	})
	rd := bytes.NewReader(st.frames)
	fr := wire.NewFrameReader(rd, 0)
	m["wire.frame_next_ns"] = perOp(func(i int) {
		if i == 0 {
			rd.Reset(st.frames)
		}
		if _, p, err := fr.Next(); err != nil || len(p) == 0 {
			failed++
		}
	})
	runtime.ReadMemStats(&ms1)
	m["wire.codec_allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(5*laps*n)
	if failed != 0 {
		return nil, fmt.Errorf("codec loop: %d calls failed on the codecs' own output", failed)
	}
	return m, nil
}
