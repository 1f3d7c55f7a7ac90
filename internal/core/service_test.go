package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/txn"
)

// startService builds and runs a wall-clock service at heavily compressed
// time, returning it plus a shutdown func that stops the driver and waits
// for Run to return.
func startService(t testing.TB, cfg Config, opt ServiceOptions) (*Service, func()) {
	t.Helper()
	if opt.Speed == 0 {
		opt.Speed = 5000 // 1ms simulated ≈ 200ns wall
	}
	s, err := NewService(cfg, opt)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	return s, func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("service Run did not return after cancel")
		}
	}
}

// simpleReq builds a small all-write main-memory transaction.
func simpleReq(items ...txn.Item) ServiceRequest {
	return ServiceRequest{
		Items:    items,
		Compute:  time.Millisecond,
		Deadline: 500 * time.Millisecond,
	}
}

// TestServiceCommits submits concurrent transactions against the
// wall-clock CCA engine and checks they all commit with coherent timings.
func TestServiceCommits(t *testing.T) {
	s, stop := startService(t, MainMemoryConfig(CCA, 1), ServiceOptions{})
	defer stop()

	const n = 24
	var wg sync.WaitGroup
	outcomes := make([]ServiceOutcome, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			outcomes[i], errs[i] = s.Submit(context.Background(), simpleReq(txn.Item(i%7), txn.Item(15+i%11)))
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("submit %d: %v", i, errs[i])
		}
		o := outcomes[i]
		if o.State != StateCommitted {
			t.Fatalf("submit %d finished %v, want committed", i, o.State)
		}
		if o.Finish < o.Arrival || o.Response != o.Finish-o.Arrival {
			t.Fatalf("submit %d has incoherent timing: %+v", i, o)
		}
	}
	st, ok := s.Stats()
	if !ok {
		t.Fatal("Stats after commits: service reported stopped")
	}
	if st.Result.Committed != n {
		t.Fatalf("stats report %d commits, want %d", st.Result.Committed, n)
	}
	if st.Live != 0 {
		t.Fatalf("stats report %d live after all commits", st.Live)
	}
}

// TestServiceValidation checks that malformed requests are refused before
// they reach the engine.
func TestServiceValidation(t *testing.T) {
	s, stop := startService(t, MainMemoryConfig(CCA, 2), ServiceOptions{})
	defer stop()

	bad := []ServiceRequest{
		{Compute: time.Millisecond, Deadline: time.Second},                                              // no items
		{Items: []txn.Item{100000}, Compute: time.Millisecond, Deadline: time.Second},                   // out of range
		{Items: []txn.Item{1}, Compute: 0, Deadline: time.Second},                                       // no compute
		{Items: []txn.Item{1}, Compute: time.Millisecond, Deadline: 0},                                  // no deadline
		{Items: []txn.Item{1}, Compute: time.Millisecond, Deadline: time.Second, Reads: []bool{}},       // flag length
		{Items: []txn.Item{1}, Compute: time.Millisecond, Deadline: time.Second, NeedsIO: []bool{true}}, // IO without disks
	}
	bad[4].Reads = []bool{true, false}
	for i, req := range bad {
		if _, err := s.Submit(context.Background(), req); err == nil {
			t.Fatalf("bad request %d was accepted", i)
		}
	}
}

// TestValidateRejectsRepeatedItem: a request naming an item twice is
// refused at the boundary — a transaction holds each item once, in the one
// mode its spec gives it — on the pairwise path for a few items and on the
// set path for a long list.
func TestValidateRejectsRepeatedItem(t *testing.T) {
	cfg := MainMemoryConfig(CCA, 2)
	cfg.Workload.DBSize = 64
	long := make([]txn.Item, 40)
	for i := range long {
		long[i] = txn.Item(i)
	}
	for _, items := range [][]txn.Item{{3, 3}, {1, 2, 1}, append(long[:40:40], 39)} {
		req := ServiceRequest{Items: items, Compute: time.Millisecond, Deadline: time.Second}
		if err := req.Validate(&cfg); err == nil {
			t.Errorf("%d items with a repeat accepted", len(items))
		}
	}
	for _, items := range [][]txn.Item{{3}, {1, 2, 3}, long} {
		req := ServiceRequest{Items: items, Compute: time.Millisecond, Deadline: time.Second}
		if err := req.Validate(&cfg); err != nil {
			t.Errorf("%d distinct items refused: %v", len(items), err)
		}
	}
}

// TestServiceAdmissionSheds checks that the reject-infeasible admission
// controller surfaces shedding as a StateRejected outcome, not an error.
func TestServiceAdmissionSheds(t *testing.T) {
	cfg := MainMemoryConfig(CCA, 3)
	cfg.Admission = AdmissionConfig{Mode: RejectInfeasible}
	s, stop := startService(t, cfg, ServiceOptions{})
	defer stop()

	// 25 updates × 1ms compute on one CPU cannot finish in 2ms.
	req := ServiceRequest{
		Items:    make([]txn.Item, 25),
		Compute:  time.Millisecond,
		Deadline: 2 * time.Millisecond,
	}
	for i := range req.Items {
		req.Items[i] = txn.Item(i)
	}
	o, err := s.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if o.State != StateRejected || !o.Missed {
		t.Fatalf("infeasible request finished %+v, want rejected+missed", o)
	}

	// A feasible one still commits.
	o, err = s.Submit(context.Background(), simpleReq(3))
	if err != nil {
		t.Fatalf("Submit feasible: %v", err)
	}
	if o.State != StateCommitted {
		t.Fatalf("feasible request finished %v, want committed", o.State)
	}
}

// TestServiceClientCancel checks that a departed client's transaction is
// wounded: the outcome is a drop and the ctx error is surfaced.
func TestServiceClientCancel(t *testing.T) {
	// Slow things down so the transaction is reliably still in flight when
	// the client cancels: 1 simulated second of compute at Speed 50 is
	// 20ms of wall time.
	cfg := MainMemoryConfig(CCA, 4)
	s, stop := startService(t, cfg, ServiceOptions{Speed: 50})
	defer stop()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	o, err := s.Submit(ctx, ServiceRequest{
		Items:    []txn.Item{1, 2, 3},
		Compute:  time.Second,
		Deadline: time.Hour,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit returned err %v, want context.Canceled", err)
	}
	if o.State != StateDropped {
		t.Fatalf("cancelled transaction finished %v, want dropped", o.State)
	}
}

// TestServiceDrain checks graceful drain: new submissions are refused,
// in-flight work is wounded when the drain deadline expires, and the live
// set is empty afterwards.
func TestServiceDrain(t *testing.T) {
	cfg := MainMemoryConfig(CCA, 5)
	s, stop := startService(t, cfg, ServiceOptions{Speed: 50})
	defer stop()

	started := make(chan struct{})
	result := make(chan ServiceOutcome, 1)
	go func() {
		close(started)
		o, _ := s.Submit(context.Background(), ServiceRequest{
			Items:    []txn.Item{1, 2, 3, 4, 5},
			Compute:  time.Second,
			Deadline: time.Hour,
		})
		result <- o
	}()
	<-started
	time.Sleep(5 * time.Millisecond) // let the submission reach the engine

	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer dcancel()
	if err := s.Drain(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain returned %v, want deadline exceeded (wounded stragglers)", err)
	}

	if _, err := s.Submit(context.Background(), simpleReq(9)); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit during drain returned %v, want ErrDraining", err)
	}

	select {
	case o := <-result:
		if o.State != StateDropped {
			t.Fatalf("drained transaction finished %v, want dropped", o.State)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drained transaction never reported its outcome")
	}
	if st, ok := s.Stats(); !ok || st.Live != 0 {
		t.Fatalf("after drain: stats ok=%v live=%d, want ok live=0", ok, st.Live)
	}
}

// TestServiceDrainClean checks that a drain with no in-flight work (or
// work that finishes in time) returns nil.
func TestServiceDrainClean(t *testing.T) {
	s, stop := startService(t, MainMemoryConfig(CCA, 6), ServiceOptions{})
	defer stop()
	if _, err := s.Submit(context.Background(), simpleReq(1)); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain of an idle service: %v", err)
	}
}

// TestServiceDrainWaitsForLive: Drain returns nil only once the work
// accepted before it has finished, even when the driver idled with nothing
// live before that work arrived.
func TestServiceDrainWaitsForLive(t *testing.T) {
	s, stop := startService(t, MainMemoryConfig(CCA, 6), ServiceOptions{Speed: 50})
	defer stop()
	time.Sleep(10 * time.Millisecond) // the driver parks with nothing live
	result := make(chan ServiceOutcome, 1)
	s.Enqueue(Submission{
		Req:  ServiceRequest{Items: []txn.Item{1}, Compute: 100 * time.Millisecond, Deadline: time.Hour},
		Done: func(o ServiceOutcome, _ error) { result <- o },
	}, nil, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	select {
	case o := <-result:
		if o.State != StateCommitted {
			t.Fatalf("drained transaction finished %v, want committed", o.State)
		}
	default:
		t.Fatal("Drain returned before the live transaction finished")
	}
}

// TestServiceStoppedSubmit checks that submissions against a stopped
// service fail with ErrServiceStopped.
func TestServiceStoppedSubmit(t *testing.T) {
	s, stop := startService(t, MainMemoryConfig(CCA, 7), ServiceOptions{})
	stop()
	if _, err := s.Submit(context.Background(), simpleReq(1)); !errors.Is(err, ErrServiceStopped) {
		t.Fatalf("Submit after stop returned %v, want ErrServiceStopped", err)
	}
	if _, ok := s.Stats(); ok {
		t.Fatal("Stats after stop reported ok")
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain after stop: %v", err)
	}
}

// TestServiceIDRecycling checks that a long sequential request stream
// reuses transaction IDs so the engine's tables stay bounded by the peak
// live set instead of the request count.
func TestServiceIDRecycling(t *testing.T) {
	s, stop := startService(t, MainMemoryConfig(CCA, 8), ServiceOptions{})
	defer stop()
	for i := 0; i < 200; i++ {
		if _, err := s.Submit(context.Background(), simpleReq(txn.Item(i%30))); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	n := make(chan int, 1)
	if err := s.call(func() { n <- len(s.e.all) }); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if got := <-n; got > 16 {
		t.Fatalf("transaction table grew to %d entries over 200 sequential requests; IDs are not recycled", got)
	}
}

// TestServiceOracleLive checks that the live oracle observes a healthy run
// without tripping, and that enabling it disables ID recycling (the
// history keys operations by transaction ID).
func TestServiceOracleLive(t *testing.T) {
	s, stop := startService(t, MainMemoryConfig(CCA, 9), ServiceOptions{Oracle: true})
	defer stop()
	for i := 0; i < 30; i++ {
		o, err := s.Submit(context.Background(), simpleReq(txn.Item(i%5), txn.Item(20+i%3)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if o.State != StateCommitted {
			t.Fatalf("submit %d finished %v", i, o.State)
		}
	}
	if err := s.failure(); err != nil {
		t.Fatalf("oracle tripped on a healthy run: %v", err)
	}
	n := make(chan int, 1)
	if err := s.call(func() { n <- len(s.e.all) }); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if got := <-n; got != 30 {
		t.Fatalf("oracle run recycled IDs: table has %d entries, want 30", got)
	}
}

// TestServiceWatchdogStopsDriver: the wall-clock driver fires events
// through the engine's own step, so a same-instant livelock started by an
// injected call trips Config.WatchdogBudget and stops Run with the engine's
// stall dump.
func TestServiceWatchdogStopsDriver(t *testing.T) {
	cfg := MainMemoryConfig(CCA, 1)
	cfg.WatchdogBudget = 64
	s, err := NewService(cfg, ServiceOptions{Speed: 1000})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	if err := s.call(func() {
		var spin func()
		spin = func() { s.e.sim.After(0, spin) }
		s.e.sim.After(0, spin)
	}); err != nil {
		t.Fatalf("Call: %v", err)
	}
	select {
	case err := <-done:
		for _, want := range []string{"core: watchdog", "calendar stalled", "budget 64", "0 finished, 0 live"} {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Run returned %v, want an error containing %q", err, want)
			}
		}
		if s.failure() != err {
			t.Fatalf("failure() = %v, want the Run error", s.failure())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("driver did not stop on a same-instant livelock")
	}
}

// TestServiceStepErrorStops: a failure an injected call leaves behind
// (here a forged oracle violation, with nothing on the calendar) surfaces
// at the catch-up that follows the call batch, and stops Run with the
// step's error.
func TestServiceStepErrorStops(t *testing.T) {
	s, err := NewService(MainMemoryConfig(CCA, 1), ServiceOptions{Speed: 1000, Oracle: true})
	if err != nil {
		t.Fatal(err)
	}
	done, cancel := runService(s)
	defer cancel()
	if err := s.InjectEvent(trace.Event{Kind: trace.Wound, Txn: 1, Other: 2, Priority: 1, OtherPriority: 5}); err != nil {
		t.Fatalf("InjectEvent: %v", err)
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "core: oracle") {
			t.Fatalf("Run returned %v, want the oracle's step error", err)
		}
		if s.failure() != err {
			t.Fatalf("failure() = %v, want the Run error", s.failure())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("driver did not stop on a failing step")
	}
}

// TestServiceSpeedValidation: a negative or non-finite speed is refused at
// construction (it would map no wall instant to a simulated one), and 0
// means real time.
func TestServiceSpeedValidation(t *testing.T) {
	for _, c := range []struct {
		speed float64
		ok    bool
	}{
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
		{-1, false},
		{0, true},
		{1, true},
		{1000, true},
	} {
		_, err := NewService(MainMemoryConfig(CCA, 1), ServiceOptions{Speed: c.speed})
		if (err == nil) != c.ok {
			t.Errorf("speed %v: NewService error %v, want ok=%v", c.speed, err, c.ok)
		}
	}
}

// runService starts Run on s and returns its result channel and a cancel
// for its context.
func runService(s *Service) (<-chan error, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	return done, cancel
}

// TestServiceFiresInOrder: events already on the calendar when Run starts
// fire in calendar order at compressed wall pace, and cancelling Run
// returns context.Canceled.
func TestServiceFiresInOrder(t *testing.T) {
	s, err := NewService(MainMemoryConfig(CCA, 1), ServiceOptions{Speed: 100})
	if err != nil {
		t.Fatal(err)
	}
	var fired []int
	all := make(chan struct{})
	for i := 1; i <= 5; i++ {
		i := i
		s.e.sim.After(time.Duration(i)*time.Millisecond, func() {
			fired = append(fired, i)
			if len(fired) == 5 {
				close(all)
			}
		})
	}
	done, cancel := runService(s)
	select {
	case <-all:
	case <-time.After(5 * time.Second):
		t.Fatal("events did not fire in time")
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	for i, v := range fired {
		if v != i+1 {
			t.Fatalf("fired order %v, want ascending", fired)
		}
	}
}

// TestServiceRunsCallsQueuedBeforeRun: a call queued before Run runs once
// Run starts, a call can schedule an event that then fires, and a call
// after Run has returned is refused with ErrServiceStopped.
func TestServiceRunsCallsQueuedBeforeRun(t *testing.T) {
	s, err := NewService(MainMemoryConfig(CCA, 1), ServiceOptions{Speed: 1000})
	if err != nil {
		t.Fatal(err)
	}
	early := make(chan struct{})
	if err := s.call(func() { close(early) }); err != nil {
		t.Fatalf("call before Run: %v", err)
	}
	done, cancel := runService(s)
	select {
	case <-early:
	case <-time.After(5 * time.Second):
		t.Fatal("call queued before Run never ran")
	}
	fired := make(chan struct{})
	if err := s.call(func() { s.e.sim.After(time.Millisecond, func() { close(fired) }) }); err != nil {
		t.Fatalf("call: %v", err)
	}
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("event scheduled by a call never fired")
	}
	cancel()
	<-done
	if err := s.call(func() {}); !errors.Is(err, ErrServiceStopped) {
		t.Fatalf("call after stop returned %v, want ErrServiceStopped", err)
	}
}

// TestServiceCancelDuringBackoff is the shutdown regression for the
// wall-clock path: with the only pending event an hour away (the shape of
// a disk's transient-error retry backoff), cancelling the context must
// interrupt the driver's sleep at once — shutdown never blocks on a
// sleeping retry timer.
func TestServiceCancelDuringBackoff(t *testing.T) {
	s, err := NewService(MainMemoryConfig(CCA, 1), ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.e.sim.After(time.Hour, func() { t.Error("backoff event fired") })
	done, cancel := runService(s)
	time.Sleep(20 * time.Millisecond) // let the driver reach its sleep
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("shutdown took %v; a sleeping timer blocked it", waited)
	}
}

// TestServiceIdleWakeup: a driver with an empty calendar parks rather than
// spins, and an Enqueue wakes it.
func TestServiceIdleWakeup(t *testing.T) {
	s, stop := startService(t, MainMemoryConfig(CCA, 1), ServiceOptions{Speed: 1000})
	defer stop()
	time.Sleep(10 * time.Millisecond) // idle park
	answered := make(chan error, 1)
	s.Enqueue(Submission{
		Req:  simpleReq(3),
		Done: func(_ ServiceOutcome, err error) { answered <- err },
	}, nil, 0)
	select {
	case err := <-answered:
		if err != nil {
			t.Fatalf("submission answered %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("idle driver never woke for an Enqueue")
	}
}

// TestServiceDiskIO runs the disk-resident configuration with IO-bearing
// requests through the wall-clock path.
func TestServiceDiskIO(t *testing.T) {
	cfg := DiskConfig(CCA, 10)
	s, stop := startService(t, cfg, ServiceOptions{})
	defer stop()
	req := ServiceRequest{
		Items:    []txn.Item{5, 25},
		NeedsIO:  []bool{true, true},
		Compute:  time.Millisecond,
		Deadline: 2 * time.Second,
	}
	o, err := s.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if o.State != StateCommitted {
		t.Fatalf("IO transaction finished %v, want committed", o.State)
	}
	if st, ok := s.Stats(); !ok || st.Result.Committed != 1 {
		t.Fatalf("stats after IO commit: ok=%v %+v", ok, st.Result)
	}
}

// failure returns the failure that stopped (or is about to stop) the
// service: an engine panic, a watchdog stall, or an oracle violation. nil
// while healthy and after a clean cancellation.
func (s *Service) failure() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
