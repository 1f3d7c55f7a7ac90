package wal

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gateFile holds every Sync until the test releases it, and counts the
// Syncs that have returned.
type gateFile struct {
	File
	entered chan struct{}
	release chan struct{}
	synced  *atomic.Int64
}

func (f gateFile) Sync() error {
	f.entered <- struct{}{}
	<-f.release
	err := f.File.Sync()
	f.synced.Add(1)
	return err
}

// tellLog records, for each waiter, every time it was told, in the order
// the waiters were told.
type tellLog struct {
	mu     sync.Mutex
	order  []int
	synced []int64 // Syncs returned when each tell happened
	errs   []error
	told   sync.WaitGroup
}

type recWaiter struct {
	i   int
	log *tellLog
	now func() int64 // Syncs returned so far; nil when the test does not ask
}

func (w *recWaiter) Durable(err error) {
	var synced int64
	if w.now != nil {
		synced = w.now()
	}
	w.log.mu.Lock()
	w.log.order = append(w.log.order, w.i)
	w.log.synced = append(w.log.synced, synced)
	w.log.errs = append(w.log.errs, err)
	w.log.mu.Unlock()
	w.log.told.Done()
}

// appendWaited logs a submit and an outcome record waited on by w.
func appendWaited(t *testing.T, l *Logger, w Waiter) {
	t.Helper()
	seq, err := l.AppendSubmit(&SubmitRecord{Items: []int32{1}, Compute: time.Millisecond, Deadline: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendOutcomeWaiter(&OutcomeRecord{Seq: seq, State: 3}, w); err != nil {
		t.Fatal(err)
	}
}

// TestWaitersToldOnceAfterSyncInOrder: a waiter is told exactly once, only
// after the Sync of its own batch has returned, and waiters are told in
// append order across batches.
func TestWaitersToldOnceAfterSyncInOrder(t *testing.T) {
	var synced atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	l, _ := openMem(t, NewMemFS(), func(o *Options) {
		o.SyncEvery = time.Hour // only the test's Sync calls flush
		o.WrapFile = func(_ string, f File) File {
			return gateFile{File: f, entered: entered, release: release, synced: &synced}
		}
	})
	tl := &tellLog{}
	const perBatch, batches = 5, 3
	tl.told.Add(perBatch * batches)
	for b := 0; b < batches; b++ {
		for i := 0; i < perBatch; i++ {
			appendWaited(t, l, &recWaiter{i: b*perBatch + i, log: tl, now: synced.Load})
		}
		done := make(chan error, 1)
		go func() { done <- l.Sync() }()
		<-entered
		time.Sleep(10 * time.Millisecond) // a waiter told early would show now
		tl.mu.Lock()
		if got := len(tl.order); got != b*perBatch {
			t.Fatalf("batch %d: %d waiters told while its Sync was held, want %d", b, got, b*perBatch)
		}
		tl.mu.Unlock()
		release <- struct{}{}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	tl.told.Wait()
	for k, i := range tl.order {
		if i != k {
			t.Fatalf("waiters told in order %v, want append order", tl.order)
		}
		if batch := int64(i/perBatch) + 1; tl.synced[k] < batch || tl.errs[k] != nil {
			t.Fatalf("waiter %d told (%v) with %d Syncs returned; its batch's is Sync %d", i, tl.errs[k], tl.synced[k], batch)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if len(tl.order) != perBatch*batches {
		t.Fatalf("%d tells for %d waiters", len(tl.order), perBatch*batches)
	}
}

// brokenFile fails its Write or its Sync.
type brokenFile struct {
	File
	write, sync *atomic.Bool
}

func (f brokenFile) Write(p []byte) (int, error) {
	if f.write.Load() {
		return 0, errors.New("injected write failure")
	}
	return f.File.Write(p)
}

func (f brokenFile) Sync() error {
	if f.sync.Load() {
		return errors.New("injected sync failure")
	}
	return f.File.Sync()
}

// TestFailedFlushTellsEveryWaiter: a failing write or Sync hands its error
// to every waiter of the batch, and the logger refuses every later append.
func TestFailedFlushTellsEveryWaiter(t *testing.T) {
	for _, name := range []string{"write", "sync"} {
		t.Run(name, func(t *testing.T) {
			var failWrite, failSync atomic.Bool
			l, _ := openMem(t, NewMemFS(), func(o *Options) {
				o.SyncEvery = time.Hour
				o.WrapFile = func(_ string, f File) File { return brokenFile{File: f, write: &failWrite, sync: &failSync} }
			})
			defer l.Close()
			appendWaited(t, l, nil) // a healthy batch first
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if name == "write" {
				failWrite.Store(true)
			} else {
				failSync.Store(true)
			}
			tl := &tellLog{}
			const n = 4
			tl.told.Add(n)
			for i := 0; i < n; i++ {
				appendWaited(t, l, &recWaiter{i: i, log: tl})
			}
			ferr := l.Sync()
			if ferr == nil {
				t.Fatal("Sync reported no error")
			}
			tl.told.Wait()
			for k, err := range tl.errs {
				if err == nil || err.Error() != ferr.Error() {
					t.Fatalf("waiter %d told %v, want the flush's error %v", tl.order[k], err, ferr)
				}
			}
			if _, err := l.AppendSubmit(&SubmitRecord{Items: []int32{2}, Compute: 1, Deadline: 1}); err == nil {
				t.Fatal("submit append accepted after the failure")
			}
			w := &recWaiter{log: tl}
			if err := l.AppendOutcomeWaiter(&OutcomeRecord{Seq: 1, State: 3}, w); err == nil {
				t.Fatal("outcome append accepted after the failure")
			}
			if len(tl.order) != n {
				t.Fatalf("%d tells for %d waiters (a refused append's waiter must not be told)", len(tl.order), n)
			}
		})
	}
}

// TestAppendOutcomeAdapter: AppendOutcome with a callback tells it once,
// as the waiter path would, and with nil buffers the record with nothing
// to tell; neither allocates once the batches are warm.
func TestAppendOutcomeAdapter(t *testing.T) {
	fs := NewMemFS()
	l, _ := openMem(t, fs, func(o *Options) { o.SyncEvery = time.Hour })
	submit := func() uint64 {
		seq, err := l.AppendSubmit(&SubmitRecord{Items: []int32{1}, Compute: 1, Deadline: 1})
		if err != nil {
			t.Fatal(err)
		}
		return seq
	}
	var calls []error
	cb := func(err error) { calls = append(calls, err) }
	if err := l.AppendOutcome(&OutcomeRecord{Seq: submit(), State: 3}, cb); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendOutcome(&OutcomeRecord{Seq: submit(), State: 3}, nil); err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	waiting := len(l.pend.waiters)
	l.mu.Unlock()
	if waiting != 1 {
		t.Fatalf("%d waiters pending, want 1: a nil callback waits on nothing", waiting)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 1 || calls[0] != nil {
		t.Fatalf("callback told %v, want once with nil", calls)
	}
	if st := l.Stats(); st.Outcomes != 2 || st.Unresolved != 0 {
		t.Fatalf("after Sync: %+v; want two outcomes, nothing unresolved", st)
	}

	// Two flushes bring both batches' arrays to the warm size.
	appendBoth := func() {
		if err := l.AppendOutcome(&OutcomeRecord{Seq: 1, State: 3}, cb); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendOutcome(&OutcomeRecord{Seq: 1, State: 3}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 2; r++ {
		for i := 0; i < 300; i++ {
			appendBoth()
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	calls = calls[:0:0]
	if allocs := testing.AllocsPerRun(200, appendBoth); allocs != 0 {
		t.Fatalf("AppendOutcome allocates %.1f times per pair of appends", allocs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 201 {
		t.Fatalf("callback told %d times for 201 appends", len(calls))
	}
	l2, rec := openMem(t, fs, nil)
	l2.Close()
	if rec.Outcomes != 2+4*300+2*201 {
		t.Fatalf("recovered %d outcome records, want %d", rec.Outcomes, 2+4*300+2*201)
	}
}

// TestRecycledBatchPinsNoWaiter: once a batch is flushed, the spare it
// becomes holds no waiter, so a finished request is not kept reachable.
func TestRecycledBatchPinsNoWaiter(t *testing.T) {
	l, _ := openMem(t, NewMemFS(), func(o *Options) { o.SyncEvery = time.Hour })
	defer l.Close()
	tl := &tellLog{}
	const n = 8
	tl.told.Add(n)
	for i := 0; i < n; i++ {
		appendWaited(t, l, &recWaiter{i: i, log: tl})
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	tl.told.Wait()
	l.mu.Lock()
	spare := l.spare.waiters[:cap(l.spare.waiters)]
	l.mu.Unlock()
	if len(spare) < n {
		t.Fatalf("spare batch has room for %d waiters, want the flushed batch's %d", len(spare), n)
	}
	for i, w := range spare {
		if w != nil {
			t.Fatalf("recycled batch still holds waiter %d: %v", i, w)
		}
	}
}
