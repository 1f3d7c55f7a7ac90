package shard

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
)

// startService boots an n-shard wall-clock service at high speed and
// returns it with a cleanup that drains and stops it.
func startService(t *testing.T, n int) (*Service, context.CancelFunc) {
	t.Helper()
	cfg := core.MainMemoryConfig(core.CCA, 1)
	cfg.Workload.DBSize = 1000
	s, err := NewService(cfg, ServiceOptions{
		Shards: n,
		Epoch:  10 * time.Millisecond,
		Core:   core.ServiceOptions{Speed: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { _ = s.Run(ctx); close(done) }()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("sharded service did not stop")
		}
	})
	return s, cancel
}

func TestServiceSingleShardRouting(t *testing.T) {
	s, _ := startService(t, 4)
	// Items 2, 6, 10 all live on shard 2 under the 4-way partition.
	o, err := s.Submit(context.Background(), core.ServiceRequest{
		Items:    itemList(2, 6, 10),
		Compute:  100 * time.Microsecond,
		Deadline: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.State != core.StateCommitted {
		t.Fatalf("outcome %+v, want committed", o)
	}
	// Only shard 2's engine saw it.
	st, ok := s.Stats()
	if !ok || st.Result.Committed != 1 {
		t.Fatalf("merged stats = %+v ok=%v, want 1 commit", st.Result, ok)
	}
	run, _, _, ok := s.svcs[2].RunSnapshot()
	if !ok || run.Committed != 1 {
		t.Fatalf("shard 2 Committed = %d, want 1 (direct routing)", run.Committed)
	}
}

func TestServiceCrossShardEpochBatch(t *testing.T) {
	s, _ := startService(t, 4)
	// Items on shards 1 and 3: epoch-batched, one part each.
	o, err := s.Submit(context.Background(), core.ServiceRequest{
		Items:    itemList(1, 3),
		Compute:  100 * time.Microsecond,
		Deadline: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.State != core.StateCommitted {
		t.Fatalf("cross outcome %+v, want committed", o)
	}
	st, ok := s.Stats()
	if !ok || st.Result.Committed != 2 {
		t.Fatalf("merged Committed = %d, want 2 engine-level parts", st.Result.Committed)
	}
	for _, shard := range []int{1, 3} {
		run, _, _, ok := s.svcs[shard].RunSnapshot()
		if !ok || run.Committed != 1 {
			t.Fatalf("shard %d Committed = %d, want 1", shard, run.Committed)
		}
	}
}

func TestServiceDrainRefusesAndFlushesQueued(t *testing.T) {
	s, _ := startService(t, 2)
	dctx, dcancel := context.WithTimeout(context.Background(), time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain of idle service: %v", err)
	}
	if !s.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	_, err := s.Submit(context.Background(), core.ServiceRequest{
		Items:    itemList(0),
		Compute:  time.Millisecond,
		Deadline: time.Second,
	})
	if !errors.Is(err, core.ErrDraining) {
		t.Fatalf("Submit after drain: %v, want ErrDraining", err)
	}
}

// TestSubmitBatchDoesNotRetainCallerSlice: the batch slice belongs to the
// caller again the moment SubmitBatch returns — a caller may refill it
// with the next batch. A cross-shard submission is answered later, from a
// goroutine; it must answer through the callback it was submitted with,
// not through whatever the slice holds by then. (It used to read
// subs[i].Done at answer time: the original request went unanswered and
// the slot's new occupant was answered twice.)
func TestSubmitBatchDoesNotRetainCallerSlice(t *testing.T) {
	s, _ := startService(t, 2)
	const n = 32
	type answer struct {
		id  int
		o   core.ServiceOutcome
		err error
	}
	answers := make(chan answer, 2*n) // room for every wrong extra answer too
	foreign := make(chan struct{}, 2*n)
	subs := make([]core.Submission, n)
	for i := range subs {
		i := i
		items := itemList(2*i, 2*i+2) // both on shard 0
		if i%2 == 0 {
			items = itemList(2*i, 2*i+1) // shards 0 and 1: the epoch queue
		}
		subs[i] = core.Submission{
			Req:  core.ServiceRequest{Items: items, Compute: 100 * time.Microsecond, Deadline: 5 * time.Second},
			Done: func(o core.ServiceOutcome, err error) { answers <- answer{i, o, err} },
		}
	}
	s.SubmitBatch(subs)
	for i := range subs {
		subs[i] = core.Submission{Done: func(core.ServiceOutcome, error) { foreign <- struct{}{} }}
	}

	got := make([]int, n)
	timeout := time.After(10 * time.Second)
	for seen := 0; seen < n; seen++ {
		select {
		case a := <-answers:
			got[a.id]++
			if a.err != nil || a.o.State != core.StateCommitted {
				t.Errorf("submission %d: outcome %+v err %v, want committed", a.id, a.o, a.err)
			}
		case <-foreign:
			t.Fatal("a submission was answered through the slot's later occupant")
		case <-timeout:
			t.Fatalf("%d/%d submissions answered; per-submission counts %v", seen, n, got)
		}
	}
	// Every submission has answered once; a second answer to any of them,
	// or one to a later occupant, would arrive within an epoch or two.
	select {
	case a := <-answers:
		t.Fatalf("submission %d answered twice", a.id)
	case <-foreign:
		t.Fatal("a submission was answered through the slot's later occupant")
	case <-time.After(50 * time.Millisecond):
	}
	for i, c := range got {
		if c != 1 {
			t.Errorf("submission %d answered %d times, want exactly once", i, c)
		}
	}
}
