package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/txn"
)

// TestEnginePanicFailsInflight: a driver panic with submissions in
// flight must answer every waiter with ErrEngineFailed — exactly once,
// never a hang — and Run must return the panic as an error.
func TestEnginePanicFailsInflight(t *testing.T) {
	s, err := NewService(MainMemoryConfig(CCA, 5), ServiceOptions{Speed: 1})
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- s.Run(context.Background()) }()

	// Slow transactions (1s simulated compute at speed 1) so they are
	// still live when the panic lands.
	const n = 8
	var wg sync.WaitGroup
	var answers atomic.Int64
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = s.Submit(context.Background(), ServiceRequest{
				Items:    []txn.Item{txn.Item(i)},
				Compute:  time.Second,
				Deadline: time.Hour,
			})
			answers.Add(1)
		}()
	}
	// Wait until all n are live inside the engine.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, ok := s.Stats()
		if ok && st.Live == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submissions never went live")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := s.InjectPanic("chaos test"); err != nil {
		t.Fatalf("InjectPanic: %v", err)
	}

	select {
	case err := <-runDone:
		if err == nil {
			t.Fatal("Run returned nil after injected panic")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after injected panic")
	}
	wg.Wait()
	if got := answers.Load(); got != n {
		t.Fatalf("%d answers for %d submissions", got, n)
	}
	for i, err := range errs {
		if !errors.Is(err, ErrEngineFailed) {
			t.Fatalf("submit %d: err = %v, want ErrEngineFailed", i, err)
		}
	}
	if s.failure() == nil {
		t.Fatal("failure() nil after driver death")
	}

	// Post-mortem submits fail fast, not hang.
	if _, err := s.Submit(context.Background(), simpleReq(1)); err == nil {
		t.Fatal("submit to dead service succeeded")
	}
}

// TestEnginePanicFailsBatch: the batched path gets the same guarantee —
// every injected submission's Done fires exactly once with an error.
func TestEnginePanicFailsBatch(t *testing.T) {
	s, err := NewService(MainMemoryConfig(CCA, 6), ServiceOptions{Speed: 1})
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- s.Run(context.Background()) }()

	const n = 6
	var calls [n]atomic.Int64
	got := make(chan error, n)
	subs := make([]Submission, n)
	for i := 0; i < n; i++ {
		i := i
		subs[i] = Submission{
			Req: ServiceRequest{
				Items:    []txn.Item{txn.Item(i)},
				Compute:  time.Second,
				Deadline: time.Hour,
			},
			Done: func(o ServiceOutcome, err error) {
				calls[i].Add(1)
				got <- err
			},
		}
	}
	s.SubmitBatch(subs)

	deadline := time.Now().Add(10 * time.Second)
	for {
		st, ok := s.Stats()
		if ok && st.Live == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batch never went live")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := s.InjectPanic("batch chaos"); err != nil {
		t.Fatalf("InjectPanic: %v", err)
	}
	<-runDone

	for i := 0; i < n; i++ {
		select {
		case err := <-got:
			if !errors.Is(err, ErrEngineFailed) {
				t.Fatalf("batch answer %d: %v, want ErrEngineFailed", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("batch submission %d never answered", i)
		}
	}
	// Give any double-fire a moment to land, then check exactly-once.
	time.Sleep(50 * time.Millisecond)
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Fatalf("submission %d answered %d times", i, n)
		}
	}
}

// TestCancelUnaffectedByFailHook: the ordinary cancel/drain paths still
// answer exactly once with the hardening in place (regression guard for
// the completion slot).
func TestCancelUnaffectedByFailHook(t *testing.T) {
	s, stop := startService(t, MainMemoryConfig(CCA, 7), ServiceOptions{Speed: 1})
	defer stop()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, ServiceRequest{
			Items:    []txn.Item{3},
			Compute:  time.Second,
			Deadline: time.Hour,
		})
		done <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, ok := s.Stats()
		if ok && st.Live == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("submission never went live")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled submit: %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled submit hung")
	}
}
