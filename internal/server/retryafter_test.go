package server

// Retry-After derivation: a shed answer's retry hint must track the
// admission state — 1 on an idle service, the estimated drain time of the
// live backlog when loaded — instead of a hardcoded 1.

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

func TestRetryAfterTracksLoad(t *testing.T) {
	// Slow service: at Speed 0.001, one 10ms-compute transaction occupies
	// the engine for ~10s of wall time, so the live set persists while we
	// probe. MaxInflight 1 makes the connection's second submission shed.
	opts := Options{
		Core:        core.MainMemoryConfig(core.CCA, 1),
		MaxInflight: 1,
	}
	opts.Service.Speed = 0.001
	s, _, wireAddr, _ := startServer(t, opts)

	// Idle: no live transactions → a shed says retry in 1s.
	if got := s.retryAfterSecs(); got != 1 {
		t.Fatalf("idle retryAfterSecs = %d, want 1", got)
	}

	// Occupy the connection's only slot (and the engine) with a long
	// transaction; closing the client at cleanup wounds it.
	c := dial(t, wireAddr)
	go c.Submit(&wire.SubmitReq{Items: itemSeq(1), Compute: 10 * time.Millisecond, Deadline: time.Hour})
	waitUntil(t, "background submission live", liveIs(s, 1))
	// Wait out the stats cache so the estimate sees the live transaction.
	time.Sleep(2 * statsCacheTTL)
	out := submit(t, c, core.ServiceRequest{Items: itemSeq(2), Compute: time.Millisecond, Deadline: time.Second})
	if out.Status != wire.StatusShed {
		t.Fatalf("probe answered %+v, want shed (pipeline full)", out)
	}
	if out.RetryAfter < 2 {
		t.Fatalf("loaded retry hint = %ds, want >= 2 seconds (live backlog at Speed 0.001)", out.RetryAfter)
	}
	// One 20-update × 4ms transaction on one CPU is ~80ms of sim work →
	// 80s of wall time at Speed 0.001, which the clamp caps at 30.
	if out.RetryAfter > 30 {
		t.Fatalf("retry hint %ds above the 30s clamp", out.RetryAfter)
	}
}
