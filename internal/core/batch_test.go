package core

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/txn"
	"repro/internal/wal"
)

// batchCollect builds a Submission whose outcome lands on a buffered
// channel (the Done contract: never block the driver).
func batchCollect(req ServiceRequest) (Submission, chan ServiceOutcome, chan error) {
	oc := make(chan ServiceOutcome, 1)
	ec := make(chan error, 1)
	return Submission{
		Req: req,
		Done: func(o ServiceOutcome, err error) {
			oc <- o
			ec <- err
		},
	}, oc, ec
}

// TestSubmitBatchCommits injects a batch in one driver call and checks
// every entry reaches a terminal outcome, including a validation failure
// answered without touching the engine.
func TestSubmitBatchCommits(t *testing.T) {
	s, stop := startService(t, MainMemoryConfig(CCA, 3), ServiceOptions{})
	defer stop()

	const n = 16
	subs := make([]Submission, 0, n+1)
	ocs := make([]chan ServiceOutcome, 0, n)
	for i := 0; i < n; i++ {
		sub, oc, _ := batchCollect(simpleReq(txn.Item(i), txn.Item(i+14)))
		subs = append(subs, sub)
		ocs = append(ocs, oc)
	}
	bad, _, badErr := batchCollect(ServiceRequest{Compute: time.Millisecond, Deadline: time.Second})
	subs = append(subs, bad)

	handles := s.SubmitBatch(subs)
	if len(handles) != n+1 {
		t.Fatalf("got %d handles, want %d", len(handles), n+1)
	}
	select {
	case err := <-badErr:
		if err == nil {
			t.Fatal("empty-items submission did not fail validation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("validation failure never reported")
	}
	for i, oc := range ocs {
		select {
		case o := <-oc:
			if o.State != StateCommitted {
				t.Fatalf("entry %d: state %v, want committed", i, o.State)
			}
			if o.Response <= 0 || o.Finish < o.Arrival {
				t.Fatalf("entry %d: incoherent timings %+v", i, o)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("entry %d never finished", i)
		}
	}
}

// TestSubmitBatchCancel wounds one batched submission via its handle and
// checks it is dropped while its batch-mates commit.
func TestSubmitBatchCancel(t *testing.T) {
	s, stop := startService(t, MainMemoryConfig(CCA, 4), ServiceOptions{})
	defer stop()

	// A transaction too long to ever finish in the test window, and a
	// short one that must be unaffected by the wound.
	long, longOC, _ := batchCollect(ServiceRequest{
		Items:    []txn.Item{1},
		Compute:  time.Hour,
		Deadline: 10 * time.Hour,
	})
	short, shortOC, _ := batchCollect(simpleReq(2))
	handles := s.SubmitBatch([]Submission{long, short})

	select {
	case o := <-shortOC:
		if o.State != StateCommitted {
			t.Fatalf("short: state %v, want committed", o.State)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("short entry never finished")
	}
	handles[0].Cancel()
	select {
	case o := <-longOC:
		if o.State != StateDropped {
			t.Fatalf("cancelled: state %v, want dropped", o.State)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled entry never reached a terminal state")
	}
	// Cancel is idempotent, including after the terminal state.
	handles[0].Cancel()
	SubmitHandle{}.Cancel() // zero handle is a no-op
}

// TestSubmitBatchDraining checks the whole-batch refusal path.
func TestSubmitBatchDraining(t *testing.T) {
	s, stop := startService(t, MainMemoryConfig(CCA, 5), ServiceOptions{})
	defer stop()
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	sub, _, ec := batchCollect(simpleReq(1))
	s.SubmitBatch([]Submission{sub})
	select {
	case err := <-ec:
		if !errors.Is(err, ErrDraining) {
			t.Fatalf("err = %v, want ErrDraining", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("draining batch never answered")
	}
}

// handleLog is a HandleSink counting, per ID, the handles it was given and
// how many of them were the no-op handle.
type handleLog struct {
	mu         sync.Mutex
	got, noops map[uint64]int
}

func (l *handleLog) OnHandle(id uint64, h SubmitHandle) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.got[id]++
	if h.svc == nil && h.cancelFn == nil {
		l.noops[id]++
	}
}

// TestInboxStopSweep: submissions waiting in the inbox when Run returns are
// answered by its sweep — the no-op handle, then ErrServiceStopped, once
// each, before Run returns — and an Enqueue after the sweep is answered
// before it returns.
func TestInboxStopSweep(t *testing.T) {
	s, err := NewService(MainMemoryConfig(CCA, 7), ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan error, 1)
	go func() { ran <- s.Run(ctx) }()
	// Hold the driver inside a call: the drain the entries below wake is
	// queued behind it, and the driver looks at ctx before running it.
	held, release := make(chan struct{}), make(chan struct{})
	if err := s.call(func() { close(held); <-release }); err != nil {
		t.Fatal(err)
	}
	<-held

	const n = 8
	sink := &handleLog{got: map[uint64]int{}, noops: map[uint64]int{}}
	answers := make(chan error, 2*n) // room for every wrong extra answer too
	sub := func(id uint64) Submission {
		return Submission{
			Req:    simpleReq(txn.Item(id)),
			Done:   func(_ ServiceOutcome, err error) { answers <- err },
			Handle: sink,
			ID:     id,
		}
	}
	for id := uint64(0); id < n; id++ {
		if !s.Enqueue(sub(id), nil, 0) {
			t.Fatalf("entry %d refused by an unbounded inbox", id)
		}
	}
	if len(answers) != 0 {
		t.Fatal("a queued entry was answered while the driver was held")
	}
	cancel()
	close(release)
	<-ran
	for i := 0; i < n; i++ {
		select {
		case err := <-answers:
			if !errors.Is(err, ErrServiceStopped) {
				t.Fatalf("swept entry answered %v, want ErrServiceStopped", err)
			}
		default:
			t.Fatalf("%d of %d queued entries answered by the time Run returned", i, n)
		}
	}

	if !s.Enqueue(sub(n), nil, 0) {
		t.Fatal("a stopped service refused instead of answering")
	}
	select {
	case err := <-answers:
		if !errors.Is(err, ErrServiceStopped) {
			t.Fatalf("entry after the sweep answered %v, want ErrServiceStopped", err)
		}
	default:
		t.Fatal("an entry after the sweep was not answered at once")
	}
	if len(answers) != 0 {
		t.Fatalf("%d extra answers", len(answers))
	}
	for id := uint64(0); id <= n; id++ {
		if sink.got[id] != 1 || sink.noops[id] != 1 {
			t.Errorf("entry %d: %d handles, %d of them no-op; want one no-op handle", id, sink.got[id], sink.noops[id])
		}
	}
}

// TestLateCancel: a cancel request reaches every handle of its submission
// exactly once, whichever side of the handoff it arrives on — before any
// handle (a submission in its shard's inbox, a cross-shard request waiting
// for its flush),
// after, in between the N parts of a cross-shard request, twice, or racing
// the arming goroutine.
func TestLateCancel(t *testing.T) {
	counting := func(n *[4]int, i int) SubmitHandle { return CancelHandle(func() { n[i]++ }) }

	t.Run("cancel before arm", func(t *testing.T) {
		var lc LateCancel
		var n [4]int
		lc.Cancel()
		lc.Arm(counting(&n, 0))
		if n[0] != 1 {
			t.Fatalf("handle armed after the cancel wounded %d times, want 1", n[0])
		}
	})
	t.Run("cancel after arm, twice", func(t *testing.T) {
		var lc LateCancel
		var n [4]int
		lc.Arm(counting(&n, 0))
		if n[0] != 0 {
			t.Fatal("Arm wounded a handle nobody cancelled")
		}
		lc.Cancel()
		lc.Cancel()
		if n[0] != 1 {
			t.Fatalf("handle wounded %d times by two Cancels, want 1", n[0])
		}
	})
	t.Run("n handles, cancel in between", func(t *testing.T) {
		var lc LateCancel
		var n [4]int
		lc.Arm(counting(&n, 0))
		lc.Arm(counting(&n, 1))
		lc.Cancel()
		lc.Arm(counting(&n, 2))
		lc.Arm(counting(&n, 3))
		if n != [4]int{1, 1, 1, 1} {
			t.Fatalf("parts wounded %v times, want each exactly once", n)
		}
	})
	t.Run("racing", func(t *testing.T) {
		for round := 0; round < 200; round++ {
			var lc LateCancel
			var wounded [4]chan struct{}
			armed := make(chan struct{})
			go func() {
				defer close(armed)
				for i := range wounded {
					ch := make(chan struct{}, 2)
					wounded[i] = ch
					lc.Arm(CancelHandle(func() { ch <- struct{}{} }))
				}
			}()
			lc.Cancel()
			<-armed
			for i, ch := range wounded {
				if len(ch) != 1 {
					t.Fatalf("round %d: part %d wounded %d times, want 1", round, i, len(ch))
				}
			}
		}
	})
}

// TestBorrowedListsAreCopied: Enqueue borrows the request's lists for the
// call only. A caller that overwrites its Items and Reads as soon as Enqueue
// returns, while the driver is still busy, changes nothing: the transaction
// runs on the lists it was given (the history's operations), and its submit
// record logs them.
func TestBorrowedListsAreCopied(t *testing.T) {
	cfg := MainMemoryConfig(CCA, 47)
	cfg.RecordHistory = true
	s, stop := startService(t, cfg, ServiceOptions{})
	defer stop()
	memfs := wal.NewMemFS()
	log, _, err := wal.Open(wal.Options{FS: memfs})
	if err != nil {
		t.Fatal(err)
	}

	held, release := make(chan struct{}), make(chan struct{})
	if err := s.call(func() { close(held); <-release }); err != nil {
		t.Fatal(err)
	}
	<-held
	items, reads := []txn.Item{3, 7}, []bool{true, false}
	sub, oc, ec := batchCollect(ServiceRequest{Items: items, Reads: reads, Compute: time.Millisecond, Deadline: time.Hour})
	if !s.Enqueue(sub, &WALHook{Log: log}, 0) {
		t.Fatal("an unbounded inbox shed")
	}
	items[0], items[1] = 11, 13
	reads[0], reads[1] = false, true
	close(release)
	if err := <-ec; err != nil {
		t.Fatal(err)
	}
	if o := <-oc; o.State != StateCommitted || o.Seq == 0 {
		t.Fatalf("outcome %+v, want a logged commit", o)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	ops, ok := onDriver(s, func() []history.Op { return s.e.hist.Ops() })
	if !ok {
		t.Fatal("the driver stopped")
	}
	want := []struct {
		item txn.Item
		kind history.Kind
	}{{3, history.Read}, {7, history.Write}}
	if len(ops) != len(want) {
		t.Fatalf("history %+v, want reads of 3 and a write of 7", ops)
	}
	for i, w := range want {
		if ops[i].Item != w.item || ops[i].Kind != w.kind {
			t.Errorf("operation %d: %v of item %d, want %v of item %d", i, ops[i].Kind, ops[i].Item, w.kind, w.item)
		}
	}
	var logged []wal.SubmitRecord
	if _, err := wal.Scan(memfs, func(h wal.Header, sr *wal.SubmitRecord, _ *wal.OutcomeRecord) error {
		if h.Type == wal.RecSubmit {
			// The scan reuses the record's lists.
			rec := *sr
			rec.Items, rec.Reads = slices.Clone(sr.Items), slices.Clone(sr.Reads)
			logged = append(logged, rec)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(logged) != 1 || len(logged[0].Items) != 2 || logged[0].Items[0] != 3 || logged[0].Items[1] != 7 ||
		len(logged[0].Reads) != 2 || !logged[0].Reads[0] || logged[0].Reads[1] {
		t.Errorf("submit records %+v, want one of items [3 7], reads [true false]", logged)
	}
}
