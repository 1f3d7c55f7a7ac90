package shard

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

// startManualEpochs boots an n-shard service whose epoch ticker never fires
// within a test's lifetime, so the test decides when the cross-shard queue
// flushes by calling s.flush() itself (nothing else does).
func startManualEpochs(t *testing.T, cfg core.Config, opt ServiceOptions) (*Service, context.CancelFunc, chan struct{}) {
	t.Helper()
	cfg.Workload.DBSize = 1000
	opt.Epoch = 1000 * time.Hour
	opt.Core.Speed = 200
	s, err := NewService(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() { _ = s.Run(ctx); close(stopped) }()
	t.Cleanup(func() {
		cancel()
		select {
		case <-stopped:
		case <-time.After(10 * time.Second):
			t.Error("sharded service did not stop")
		}
	})
	return s, cancel, stopped
}

// counted is one submission whose Done counts its calls and keeps the
// first answer.
type counted struct {
	calls atomic.Int32
	ch    chan struct{}
	o     core.ServiceOutcome
	err   error
}

func crossSub(c *counted, compute time.Duration, items ...int) core.Submission {
	c.ch = make(chan struct{}, 4)
	return core.Submission{
		Req: core.ServiceRequest{Items: itemList(items...), Compute: compute, Deadline: time.Hour},
		Done: func(o core.ServiceOutcome, err error) {
			if c.calls.Add(1) == 1 {
				c.o, c.err = o, err
			}
			c.ch <- struct{}{}
		},
	}
}

func (c *counted) wait(t *testing.T, what string) {
	t.Helper()
	select {
	case <-c.ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: never answered", what)
	}
}

// TestCrossOrderMatchesQueueOrder: cross requests queued in one epoch reach
// every shard in queue order. Under FCFS on one CPU per shard, with every
// request touching the same two items, each shard then executes them
// strictly in that order, so the logical finish times increase along the
// queue. (The per-request fan-out goroutines this replaced raced each
// other to the shard drivers, so the two shards could disagree.)
func TestCrossOrderMatchesQueueOrder(t *testing.T) {
	s, _, _ := startManualEpochs(t, core.MainMemoryConfig(core.FCFS, 1), ServiceOptions{Shards: 2})
	const n = 8
	reqs := make([]counted, n)
	subs := make([]core.Submission, n)
	for i := range subs {
		subs[i] = crossSub(&reqs[i], time.Millisecond, 0, 1)
	}
	s.SubmitBatch(subs)
	s.flush()
	var prev time.Duration
	for i := range reqs {
		reqs[i].wait(t, "cross request")
		o, err := reqs[i].o, reqs[i].err
		if err != nil || o.State != core.StateCommitted {
			t.Fatalf("request %d: outcome %+v err %v, want committed", i, o, err)
		}
		if o.Finish <= prev {
			t.Fatalf("request %d finished at %v, not after its queue predecessor's %v", i, o.Finish, prev)
		}
		prev = o.Finish
	}
}

// TestCrossAnsweredExactlyOnce drives one cross-shard submission down every
// way it can end and checks Done fires exactly once, with the documented
// answer.
func TestCrossAnsweredExactlyOnce(t *testing.T) {
	long := 10 * time.Minute // simulated compute no test run reaches
	cases := []struct {
		name string
		sup  SuperviseOptions
		// act ends the submission; h is its handle.
		act  func(t *testing.T, s *Service, h core.SubmitHandle, cancel context.CancelFunc, stopped chan struct{})
		want func(o core.ServiceOutcome, err error) bool
	}{
		{
			name: "cancel before flush",
			act: func(t *testing.T, s *Service, h core.SubmitHandle, _ context.CancelFunc, _ chan struct{}) {
				h.Cancel()
				s.flush()
			},
			want: func(o core.ServiceOutcome, err error) bool { return err == nil && o.State == core.StateDropped },
		},
		{
			name: "cancel after flush",
			act: func(t *testing.T, s *Service, h core.SubmitHandle, _ context.CancelFunc, _ chan struct{}) {
				s.flush()
				h.Cancel()
				h.Cancel() // idempotent
			},
			want: func(o core.ServiceOutcome, err error) bool { return err == nil && o.State == core.StateDropped },
		},
		{
			name: "drain with the entry queued",
			act: func(t *testing.T, s *Service, _ core.SubmitHandle, _ context.CancelFunc, _ chan struct{}) {
				dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer dcancel()
				if err := s.Drain(dctx); err != nil {
					t.Errorf("Drain: %v", err)
				}
				s.flush() // nothing left to flush
			},
			want: func(_ core.ServiceOutcome, err error) bool { return errors.Is(err, core.ErrDraining) },
		},
		{
			name: "panic on one participant",
			sup:  SuperviseOptions{Enabled: true},
			act: func(t *testing.T, s *Service, _ core.SubmitHandle, _ context.CancelFunc, _ chan struct{}) {
				s.flush()
				if err := s.InjectShardPanic(1, "cross exactly-once"); err != nil {
					t.Errorf("InjectShardPanic: %v", err)
				}
				// The surviving part would run for ten simulated minutes:
				// wait for the failure, then end it too.
				for deadline := time.Now().Add(10 * time.Second); !s.Degraded(); {
					if time.Now().After(deadline) {
						t.Error("shard 1 never failed")
						return
					}
					time.Sleep(time.Millisecond)
				}
				dctx, dcancel := context.WithTimeout(context.Background(), time.Millisecond)
				defer dcancel()
				_ = s.Drain(dctx)
			},
			want: func(o core.ServiceOutcome, err error) bool {
				return errors.Is(err, core.ErrEngineFailed) && o.State == core.StateDropped
			},
		},
		{
			name: "service stop with the entry queued",
			act: func(t *testing.T, s *Service, _ core.SubmitHandle, cancel context.CancelFunc, stopped chan struct{}) {
				cancel()
				<-stopped
			},
			want: func(_ core.ServiceOutcome, err error) bool { return errors.Is(err, core.ErrServiceStopped) },
		},
		{
			name: "service stop with the parts in flight",
			act: func(t *testing.T, s *Service, _ core.SubmitHandle, cancel context.CancelFunc, stopped chan struct{}) {
				s.flush()
				cancel()
				<-stopped
			},
			want: func(_ core.ServiceOutcome, err error) bool { return errors.Is(err, core.ErrServiceStopped) },
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s, cancel, stopped := startManualEpochs(t, core.MainMemoryConfig(core.CCA, 1), ServiceOptions{Shards: 2, Supervise: tc.sup})
			var c counted
			h := s.SubmitBatch([]core.Submission{crossSub(&c, long, 0, 1)})[0]
			tc.act(t, s, h, cancel, stopped)
			c.wait(t, tc.name)
			if !tc.want(c.o, c.err) {
				t.Errorf("answered with outcome %+v err %v", c.o, c.err)
			}
			// A second answer would come from a part finishing, a sweep or the
			// stop path; all of those have run or run within milliseconds.
			cancel()
			<-stopped
			time.Sleep(20 * time.Millisecond)
			if n := c.calls.Load(); n != 1 {
				t.Errorf("Done fired %d times, want exactly once", n)
			}
		})
	}

	t.Run("submitted after stop", func(t *testing.T) {
		s, cancel, stopped := startManualEpochs(t, core.MainMemoryConfig(core.CCA, 1), ServiceOptions{Shards: 2})
		cancel()
		<-stopped
		var c counted
		subs := []core.Submission{crossSub(&c, long, 0, 1)}
		s.SubmitBatch(subs)
		c.wait(t, "submission after stop")
		if !errors.Is(c.err, core.ErrServiceStopped) || c.calls.Load() != 1 {
			t.Errorf("answered %d times with err %v, want once with ErrServiceStopped", c.calls.Load(), c.err)
		}
		// SubmitBatch consumes subs[i].Done on every branch, the refusal
		// included: a caller that reuses the slice must not find an
		// already-answered Done in it.
		if subs[0].Done != nil {
			t.Error("the refusal path answered the entry and left its Done set")
		}
	})
}

// TestCrossQueueSpawnsNoGoroutines: a queued cross-shard submission is an
// entry in a slice, not a parked goroutine (it used to be one per
// submission while queued, and 2 + parts more once flushed).
func TestCrossQueueSpawnsNoGoroutines(t *testing.T) {
	s, _, _ := startManualEpochs(t, core.MainMemoryConfig(core.CCA, 1), ServiceOptions{Shards: 2})
	const n = 1000
	reqs := make([]counted, n)
	subs := make([]core.Submission, n)
	for i := range subs {
		subs[i] = crossSub(&reqs[i], 10*time.Microsecond, 2*(i%500), 2*(i%500)+1)
	}
	// Both drivers (and so every goroutine Run starts) are live once each
	// shard has answered something.
	for shard := 0; shard < 2; shard++ {
		if _, err := submitTo(s, shard); err != nil {
			t.Fatal(err)
		}
	}
	before := runtime.NumGoroutine()
	s.SubmitBatch(subs)
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before queuing %d cross submissions, %d after", before, n, after)
	}
	s.flush()
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before the flush of %d cross submissions, %d after", before, n, after)
	}
	for i := range reqs {
		reqs[i].wait(t, "cross request")
		if reqs[i].err != nil || reqs[i].o.State != core.StateCommitted {
			t.Fatalf("request %d: outcome %+v err %v, want committed", i, reqs[i].o, reqs[i].err)
		}
	}
}

// TestSubmitBatchValidatesBeforeLogging: core/wal.go's contract is that the
// submit record is appended after validation. A malformed request — single
// shard or cross-shard by its footprint, or touching no shard at all — must
// be answered with its validation error and leave nothing in the log (it
// used to cost a submit and an abort record).
func TestSubmitBatchValidatesBeforeLogging(t *testing.T) {
	log, _, err := wal.Open(wal.Options{FS: wal.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	s, _, _ := startManualEpochs(t, core.MainMemoryConfig(core.CCA, 1), ServiceOptions{Shards: 2, WAL: log})

	bad := []struct {
		name  string
		items []int
	}{
		{"no items", nil},
		{"empty list", []int{}},
		{"all items negative", []int{-1, -3}},
		{"item out of range, one shard", []int{2, 5000}},
		{"item out of range, two shards", []int{1, 5000}},
		{"item named twice, one shard", []int{3, 3}},
		{"item named twice, two shards", []int{1, 2, 1}},
	}
	reqs := make([]counted, len(bad))
	subs := make([]core.Submission, len(bad))
	for i, b := range bad {
		subs[i] = crossSub(&reqs[i], time.Millisecond, b.items...)
	}
	before := log.Stats()
	s.SubmitBatch(subs)
	s.flush()
	for i, b := range bad {
		reqs[i].wait(t, b.name)
		err := reqs[i].err
		if err == nil || errors.Is(err, core.ErrLogFailed) || errors.Is(err, core.ErrDraining) || errors.Is(err, core.ErrServiceStopped) {
			t.Errorf("%s: answered with err %v, want a validation error", b.name, err)
		}
	}
	if after := log.Stats(); after.Submits != before.Submits || after.Outcomes != before.Outcomes {
		t.Errorf("malformed requests reached the log: submits %d -> %d, outcomes %d -> %d",
			before.Submits, after.Submits, before.Outcomes, after.Outcomes)
	}

	// The log still works: a valid request is appended and acked with its seq.
	var ok counted
	s.SubmitBatch([]core.Submission{crossSub(&ok, time.Millisecond, 4)})
	ok.wait(t, "valid request")
	if ok.err != nil || ok.o.Seq == 0 {
		t.Errorf("valid request: outcome %+v err %v, want a durable seq", ok.o, ok.err)
	}
	if after := log.Stats(); after.Submits != before.Submits+1 {
		t.Errorf("valid request appended %d submit records, want 1", after.Submits-before.Submits)
	}
}

// TestBorrowedListsCrossShard: a cross-shard request's lists are borrowed
// for the Enqueue call, although the request waits in the queue until the
// next flush. The caller overwrites its Items and Reads as soon as Enqueue
// returns; each part still runs on the original items in the original
// modes, and the submit record logs them. Two FCFS CPUs per shard make the
// items visible in the lock waits: request q, queued behind r on the same
// items, read-locks both, so it waits only on shard 1, where r writes.
// With r's overwritten items it would wait on neither shard, with its
// overwritten flags on shard 0 only.
func TestBorrowedListsCrossShard(t *testing.T) {
	cfg := core.MainMemoryConfig(core.FCFS, 1)
	cfg.NumCPUs = 2
	memfs := wal.NewMemFS()
	log, _, err := wal.Open(wal.Options{FS: memfs})
	if err != nil {
		t.Fatal(err)
	}
	s, _, _ := startManualEpochs(t, cfg, ServiceOptions{Shards: 2, WAL: log})

	var r, q counted
	rsub := crossSub(&r, time.Second, 0, 1)
	items, reads := rsub.Req.Items, []bool{true, false}
	rsub.Req.Reads = reads
	s.Enqueue(rsub, 0)
	items[0], items[1] = 2, 3
	reads[0], reads[1] = false, true
	qsub := crossSub(&q, time.Second, 0, 1)
	qsub.Req.Reads = []bool{true, true}
	s.Enqueue(qsub, 0)
	s.flush()
	for _, c := range []*counted{&r, &q} {
		c.wait(t, "cross request")
		if c.err != nil || c.o.State != core.StateCommitted {
			t.Fatalf("outcome %+v, err %v; want committed", c.o, c.err)
		}
	}

	for sh, want := range []int{0, 1} {
		run, _, _, ok := s.shard(sh).RunSnapshot()
		if !ok {
			t.Fatalf("shard %d stopped", sh)
		}
		if run.LockWaits != want {
			t.Errorf("shard %d: %d lock waits, want %d", sh, run.LockWaits, want)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	var first *wal.SubmitRecord
	if _, err := wal.Scan(memfs, func(h wal.Header, sr *wal.SubmitRecord, _ *wal.OutcomeRecord) error {
		if h.Type == wal.RecSubmit && first == nil {
			// The scan reuses the record's lists.
			rec := *sr
			rec.Items, rec.Reads = slices.Clone(sr.Items), slices.Clone(sr.Reads)
			first = &rec
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if first == nil || len(first.Items) != 2 || first.Items[0] != 0 || first.Items[1] != 1 ||
		len(first.Reads) != 2 || !first.Reads[0] || first.Reads[1] {
		t.Errorf("first submit record %+v, want items [0 1], reads [true false]", first)
	}
}
