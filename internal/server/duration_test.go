package server

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// TestDurationRejectsNonsense: a negative or zero compute time or deadline
// is refused at the wire codec with a reason, end to end — not admitted
// into the engine, not a hang, not a commit with nonsense timings — and
// the connection keeps serving.
func TestDurationRejectsNonsense(t *testing.T) {
	_, _, wireAddr, _ := startServer(t, Options{Core: core.MainMemoryConfig(core.CCA, 31)})
	c := dial(t, wireAddr)
	for _, tc := range []struct {
		compute, deadline time.Duration
		field             string
	}{
		{time.Millisecond, -7 * time.Millisecond, "deadline"},
		{time.Millisecond, 0, "deadline"},
		{-time.Millisecond, time.Second, "compute"},
		{0, time.Second, "compute"},
	} {
		out := submit(t, c, core.ServiceRequest{Items: itemSeq(1), Compute: tc.compute, Deadline: tc.deadline})
		if out.Status != wire.StatusInvalid || !strings.Contains(out.Err, tc.field) {
			t.Errorf("compute %v deadline %v: %+v, want invalid naming %s", tc.compute, tc.deadline, out, tc.field)
		}
	}
	if out := submit(t, c, core.ServiceRequest{Items: itemSeq(1), Compute: time.Millisecond, Deadline: time.Second}); out.Status != wire.StatusCommitted {
		t.Fatalf("valid submit after the refusals: %+v", out)
	}
}
