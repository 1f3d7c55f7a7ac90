package server

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/wire"
)

// submit enqueues req the way a wire connection does, with r as the
// connection: its answer is counted through a target of its own.
func (s *Server) submit(id uint64, req core.ServiceRequest, r wire.Renderer) bool {
	b := wireBackend{s}
	return b.Enqueue(id, req, b.Answers(r))
}

// countersOf is the answer counters /metrics reports.
func countersOf(s *Server) answerTotals { return s.metricsResponse().Answers }

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("never happened: %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func liveIs(s *Server, n int) func() bool {
	return func() bool { st, ok := s.svc.Stats(); return ok && st.Live == n }
}

// TestCounterParity drives a script over the wire listener and requires the
// answer counters to agree with what the client was told: every answer that
// comes back through a counted target is tallied in one place, once. The
// script covers each status a client can be given short of an engine
// failure — commit, admission reject, validation refusal, a client that
// disconnects mid-flight (dropped), a submit during drain (shed) — and
// TestFailedParity covers that one. The script runs as the "wire" subtest,
// the one door a client has.
func TestCounterParity(t *testing.T) {
	t.Run("wire", func(t *testing.T) {
		small := core.ServiceRequest{Items: itemSeq(1, 2), Compute: time.Millisecond, Deadline: 10 * time.Second}
		long := core.ServiceRequest{Items: itemSeq(3, 4), Compute: time.Minute, Deadline: time.Hour}
		outOfRange := core.ServiceRequest{Items: itemSeq(10_000), Compute: time.Millisecond, Deadline: time.Second}
		repeated := core.ServiceRequest{Items: itemSeq(3, 3), Compute: time.Millisecond, Deadline: time.Second}

		cfg := core.MainMemoryConfig(core.CCA, 33)
		// One live transaction at a time: a parked one makes the next arrival
		// an admission reject.
		cfg.Admission = core.AdmissionConfig{Mode: core.RejectNewest, MaxLive: 1}
		s, _, wireAddr, stop := startServer(t, Options{
			Core:         cfg,
			Service:      core.ServiceOptions{Speed: 50},
			DrainTimeout: 20 * time.Second,
		})
		c := dial(t, wireAddr)
		// park submits a request that will not finish on its own, from a
		// connection of its own, and returns the func that disconnects that
		// client mid-flight.
		park := func() func() {
			pc, err := wire.Dial(wireAddr, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				pc.Submit(&wire.SubmitReq{Items: long.Items, Compute: long.Compute, Deadline: long.Deadline})
			}()
			return func() { pc.Close(); <-done }
		}
		expect := func(step string, got wire.SubmitResp, status uint8, retry bool) {
			t.Helper()
			if got.Status != status || (got.RetryAfter > 0) != retry {
				t.Errorf("%s: answered %+v, want status %d retry hint %v", step, got, status, retry)
			}
		}

		expect("commit", submit(t, c, small), wire.StatusCommitted, false)

		disconnect := park()
		waitUntil(t, "parked transaction live", liveIs(s, 1))
		expect("admission reject", submit(t, c, small), wire.StatusRejected, true)
		expect("out of range", submit(t, c, outOfRange), wire.StatusInvalid, false)
		expect("item named twice", submit(t, c, repeated), wire.StatusInvalid, false)

		disconnect()
		waitUntil(t, "disconnected client's transaction wounded and tallied", func() bool {
			return liveIs(s, 0)() && countersOf(s).Dropped == 1
		})

		disconnect = park()
		waitUntil(t, "second parked transaction live", liveIs(s, 1))
		stopped := make(chan error, 1)
		go func() { stopped <- stop() }()
		waitUntil(t, "drain begun", s.svc.Draining)
		expect("submit during drain", submit(t, c, small), wire.StatusShed, true)
		disconnect() // lets the drain finish without waiting out its budget
		if err := <-stopped; err != nil {
			t.Fatalf("drain: %v", err)
		}
		if n := c.Unmatched(); n != 0 {
			t.Errorf("wire client read %d frames nobody was waiting for", n)
		}
		want := answerTotals{Committed: 1, Dropped: 2, Rejected: 1, Shed: 1, Invalid: 2}
		if got := countersOf(s); got != want {
			t.Errorf("answer counters %+v, want %+v", got, want)
		}
	})
}

// TestFailedParity: a shard driver that panics with a submission in flight
// answers it StatusFailed on the wire, with no retry hint, and counts it
// once in answers.failed; the restarted shard takes the next submission.
func TestFailedParity(t *testing.T) {
	long := core.ServiceRequest{Items: itemSeq(3, 4), Compute: time.Minute, Deadline: time.Hour}
	s, _, wireAddr, _ := startServer(t, Options{
		Core:      core.MainMemoryConfig(core.CCA, 34),
		Service:   core.ServiceOptions{Speed: 50},
		Supervise: shard.SuperviseOptions{Enabled: true, Restart: true},
	})
	c := dial(t, wireAddr)
	for i := 1; i <= 2; i++ {
		seen := make(chan wire.SubmitResp, 1)
		go func() { seen <- submit(t, c, long) }()
		waitUntil(t, "submission live", liveIs(s, 1))
		if err := s.svc.InjectShardPanic(0, "parity"); err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-seen:
			if got.Status != wire.StatusFailed || got.RetryAfter != 0 {
				t.Errorf("round %d: answered %+v, want failed without a retry hint", i, got)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: in-flight submission never answered after the panic", i)
		}
		if got, want := countersOf(s), (answerTotals{Failed: int64(i)}); got != want {
			t.Errorf("round %d: answer counters %+v, want %+v", i, got, want)
		}
		waitUntil(t, "shard restarted", func() bool { return s.svc.SupervisionStats().Restarts == i })
	}
	if n := c.Unmatched(); n != 0 {
		t.Errorf("wire client read %d frames nobody was waiting for", n)
	}
}
