package shard

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// startSupervised boots an n-shard service under sup; the channel carries
// Run's return.
func startSupervised(t *testing.T, n int, sup SuperviseOptions) (*Service, chan error, context.CancelFunc) {
	t.Helper()
	cfg := core.MainMemoryConfig(core.CCA, 1)
	cfg.Workload.DBSize = 1000
	s, err := NewService(cfg, ServiceOptions{
		Shards:    n,
		Epoch:     10 * time.Millisecond,
		Core:      core.ServiceOptions{Speed: 200},
		Supervise: sup,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	finished := make(chan struct{})
	go func() {
		err := s.Run(ctx)
		close(finished)
		done <- err
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-finished:
		case <-time.After(10 * time.Second):
			t.Error("supervised service did not stop")
		}
	})
	return s, done, cancel
}

func submitTo(s *Service, item int) (core.ServiceOutcome, error) {
	return s.Submit(context.Background(), core.ServiceRequest{
		Items:    itemList(item),
		Compute:  100 * time.Microsecond,
		Deadline: 2 * time.Second,
	})
}

// TestSupervisedPanicContained: one shard driver panics; its failure is
// recorded, the service reports degraded-but-healthy, and the surviving
// shards keep committing.
func TestSupervisedPanicContained(t *testing.T) {
	s, _, _ := startSupervised(t, 4, SuperviseOptions{Enabled: true})

	if s.Degraded() {
		t.Fatal("degraded before any failure")
	}
	if err := s.InjectShardPanic(2, "chaos"); err != nil {
		t.Fatalf("InjectShardPanic: %v", err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for !s.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("panic never surfaced as degraded")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Healthy overall: supervision contained the failure.
	if err := s.Err(); err != nil {
		t.Fatalf("Err() = %v after contained failure, want nil", err)
	}
	st := s.SupervisionStats()
	if !st.Enabled || st.Failures != 1 || st.Dead != 1 || st.LastFailure == "" {
		t.Fatalf("supervision stats %+v, want 1 failure, 1 dead", st)
	}

	// Other shards still serve: items 0, 1, 3 live on shards 0, 1, 3.
	for _, item := range []int{0, 1, 3} {
		o, err := submitTo(s, item)
		if err != nil {
			t.Fatalf("item %d after shard-2 death: %v", item, err)
		}
		if o.State != core.StateCommitted {
			t.Fatalf("item %d outcome %+v, want committed", item, o)
		}
	}
	// The dead shard's traffic fails fast rather than hanging.
	if _, err := submitTo(s, 2); err == nil {
		t.Fatal("submit to dead shard succeeded")
	}
	// Stats still merge across the survivors.
	if _, ok := s.Stats(); !ok {
		t.Fatal("Stats unavailable with one dead shard")
	}
}

// TestSupervisedRestart: with Restart on, a panicked shard is replaced
// by a fresh engine and its item range serves again.
func TestSupervisedRestart(t *testing.T) {
	s, _, _ := startSupervised(t, 2, SuperviseOptions{Enabled: true, Restart: true, MaxRestarts: 2})

	if err := s.InjectShardPanic(1, "restart me"); err != nil {
		t.Fatalf("InjectShardPanic: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.SupervisionStats().Restarts < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("shard never restarted: %+v", s.SupervisionStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Degraded stays sticky — the operator should still see the event.
	if !s.Degraded() {
		t.Fatal("restart cleared the degraded flag")
	}
	// The restarted shard serves its items again (retry while the fresh
	// engine comes up).
	deadline = time.Now().Add(10 * time.Second)
	for {
		o, err := submitTo(s, 1)
		if err == nil && o.State == core.StateCommitted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted shard never served: o=%+v err=%v", o, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := s.SupervisionStats(); st.Dead != 0 {
		t.Fatalf("restarted shard still counted dead: %+v", st)
	}
}

// TestSupervisedRestartBudget: past MaxRestarts the shard stays dead;
// when every shard is dead the service as a whole reports failed.
func TestSupervisedRestartBudget(t *testing.T) {
	s, done, _ := startSupervised(t, 1, SuperviseOptions{Enabled: true, Restart: true, MaxRestarts: 1})

	// First panic: restart. Second: budget exhausted, shard dies — and
	// with all shards dead, Run returns and Err() reports failure.
	if err := s.InjectShardPanic(0, "one"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.SupervisionStats().Restarts < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("no restart: %+v", s.SupervisionStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The fresh engine must be up before the second injection lands.
	for {
		if err := s.InjectShardPanic(0, "two"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second injection never accepted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Run returned nil after all shards died")
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("Run did not return with all shards dead: %+v", s.SupervisionStats())
	}
	if err := s.Err(); err == nil {
		t.Fatal("Err() nil with every shard dead")
	}
	if _, err := submitTo(s, 0); err == nil {
		t.Fatal("submit succeeded with every shard dead")
	}
}

// TestUnsupervisedPanicStillFatal: without supervision a shard panic
// keeps the pre-existing semantics — the whole service stops, Run returns
// the failure and Err names the shard and the panic.
func TestUnsupervisedPanicStillFatal(t *testing.T) {
	s, done, _ := startSupervised(t, 2, SuperviseOptions{})
	if err := s.InjectShardPanic(0, "fatal"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Run returned nil after an unsupervised shard panic")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after an unsupervised shard panic")
	}
	if err := s.Err(); err == nil || !strings.Contains(err.Error(), "shard 0") || !strings.Contains(err.Error(), "injected panic: fatal") {
		t.Fatalf("Err() = %v, want shard 0's injected panic", err)
	}
}

// TestRestartNeedsSupervision: the restart options only mean something
// under supervision, so NewService refuses them on their own instead of
// starting a service that never restarts.
func TestRestartNeedsSupervision(t *testing.T) {
	cfg := core.MainMemoryConfig(core.CCA, 1)
	for _, sup := range []SuperviseOptions{
		{Restart: true},
		{Restart: true, MaxRestarts: 2},
		{Enabled: true, MaxRestarts: 2},
		{MaxRestarts: 2},
	} {
		if _, err := NewService(cfg, ServiceOptions{Shards: 2, Supervise: sup}); err == nil {
			t.Errorf("%+v: accepted", sup)
		}
	}
	if _, err := NewService(cfg, ServiceOptions{Shards: 2, Supervise: SuperviseOptions{Enabled: true, Restart: true, MaxRestarts: 2}}); err != nil {
		t.Errorf("supervised restarts with a budget: %v", err)
	}
}
