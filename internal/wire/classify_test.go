package wire

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
)

// TestClassifyAgreesWithTheOldSwitches: Classify is total over every
// core.State and every error a Submission.Done can carry, bare and wrapped,
// and answers each the way the hand-written switches it replaced did. The
// want columns are those switches, case by case:
//
//   - status, retry: the status conn.Render is handed, and whether its
//     response carries a Retry-After;
//   - counted by the server's answer counters as committed, dropped,
//     rejected, shed, invalid or failed — the same partition as status;
//   - tallied by replayWAL as replayed (nil error), failed (shed, failed) or
//     aborted (invalid) — again a function of status alone.
func TestClassifyAgreesWithTheOldSwitches(t *testing.T) {
	validation := errors.New("core: item 10000 outside database of 30 items")
	cases := []struct {
		name   string
		o      core.ServiceOutcome
		err    error
		status uint8
		retry  bool
	}{
		// err == nil: the engine answered. Only committed and rejected had
		// cases of their own; every other state fell to "default: dropped".
		{"committed", core.ServiceOutcome{State: core.StateCommitted}, nil, StatusCommitted, false},
		{"committed late", core.ServiceOutcome{State: core.StateCommitted, Missed: true}, nil, StatusCommitted, false},
		{"rejected", core.ServiceOutcome{State: core.StateRejected, Missed: true}, nil, StatusRejected, true},
		{"dropped", core.ServiceOutcome{State: core.StateDropped, Missed: true}, nil, StatusDropped, false},
		{"ready (zero outcome)", core.ServiceOutcome{}, nil, StatusDropped, false},
		{"running", core.ServiceOutcome{State: core.StateRunning}, nil, StatusDropped, false},
		{"io-wait", core.ServiceOutcome{State: core.StateIOWait}, nil, StatusDropped, false},
		{"lock-wait", core.ServiceOutcome{State: core.StateLockWait}, nil, StatusDropped, false},
		{"aborting", core.ServiceOutcome{State: core.StateAborting}, nil, StatusDropped, false},
		{"unknown state", core.ServiceOutcome{State: core.State(99)}, nil, StatusDropped, false},

		// Refused before the engine: retriable.
		{"draining", core.ServiceOutcome{}, core.ErrDraining, StatusShed, true},
		{"draining wrapped", core.ServiceOutcome{}, fmt.Errorf("shard 2: %w", core.ErrDraining), StatusShed, true},
		{"stopped", core.ServiceOutcome{}, core.ErrServiceStopped, StatusShed, true},
		{"stopped wrapped", core.ServiceOutcome{}, fmt.Errorf("shard 2: %w", core.ErrServiceStopped), StatusShed, true},

		// Outcome unknown: never a retry hint, whatever the outcome says.
		{"engine failed", core.ServiceOutcome{}, core.ErrEngineFailed, StatusFailed, false},
		{"engine failed wrapped", core.ServiceOutcome{State: core.StateDropped}, fmt.Errorf("%w: panic: boom", core.ErrEngineFailed), StatusFailed, false},
		{"log failed", core.ServiceOutcome{State: core.StateCommitted}, core.ErrLogFailed, StatusFailed, false},
		{"log failed wrapped", core.ServiceOutcome{State: core.StateCommitted}, fmt.Errorf("%w: fsync: EIO", core.ErrLogFailed), StatusFailed, false},

		// Anything else is the request's fault.
		{"validation", core.ServiceOutcome{}, validation, StatusInvalid, false},
		{"validation wrapped", core.ServiceOutcome{}, fmt.Errorf("part 1: %w", validation), StatusInvalid, false},
	}
	for _, tc := range cases {
		status := Classify(tc.o, tc.err)
		if retry := statusRetry[status]; status != tc.status || retry != tc.retry {
			t.Errorf("%s: Classify = %d (retry %v), want %d (retry %v)",
				tc.name, status, retry, tc.status, tc.retry)
		}
	}
}

// TestStatusTable pins which statuses carry a retry hint: the two overload
// answers, and never Failed, whose transaction may have run.
func TestStatusTable(t *testing.T) {
	want := map[uint8]bool{
		StatusCommitted: false,
		StatusDropped:   false,
		StatusRejected:  true,
		StatusShed:      true,
		StatusInvalid:   false,
		StatusFailed:    false,
	}
	if len(statusRetry) != len(want) {
		t.Fatalf("statusRetry has %d rows, want one per status (%d)", len(statusRetry), len(want))
	}
	for status, w := range want {
		if got := statusRetry[status]; got != w {
			t.Errorf("status %d: retry %v, want %v", status, got, w)
		}
	}
}

// TestCompleteRendersTheClassification: conn.Render, handed Classify's
// status, builds the response the old switch built — the outcome's fields on
// a nil error, the error text otherwise, the retry hint exactly where the
// table says — and counts a drain refusal in the front-end's shed counter.
func TestCompleteRendersTheClassification(t *testing.T) {
	o := core.ServiceOutcome{
		State: core.StateCommitted, Missed: true, Restarts: 3, Seq: 9,
		Arrival: time.Second, Finish: 3 * time.Second, Deadline: 2 * time.Second, Response: 2 * time.Second,
	}
	fields := SubmitResp{Missed: true, restarts: 3, Seq: 9,
		Arrival: time.Second, Finish: 3 * time.Second, Deadline: 2 * time.Second, Response: 2 * time.Second}
	withStatus := func(r SubmitResp, status uint8) SubmitResp { r.Status = status; return r }
	rejected, dropped := o, o
	rejected.State, dropped.State = core.StateRejected, core.StateDropped
	failed := fmt.Errorf("%w: panic: boom", core.ErrEngineFailed)
	cases := []struct {
		name  string
		o     core.ServiceOutcome
		err   error
		resp  SubmitResp
		retry bool
		shed  int64
	}{
		{"committed", o, nil, withStatus(fields, StatusCommitted), false, 0},
		{"rejected", rejected, nil, withStatus(fields, StatusRejected), true, 0},
		{"dropped", dropped, nil, withStatus(fields, StatusDropped), false, 0},
		{"draining", core.ServiceOutcome{}, core.ErrDraining, SubmitResp{Status: StatusShed, Err: core.ErrDraining.Error()}, true, 1},
		{"failed drops the outcome", dropped, failed, SubmitResp{Status: StatusFailed, Err: failed.Error()}, false, 0},
		{"invalid", core.ServiceOutcome{}, errors.New("bad item"), SubmitResp{Status: StatusInvalid, Err: "bad item"}, false, 0},
	}
	for _, tc := range cases {
		c := &conn{
			srv:      NewServer(&stubBackend{}, ServerOptions{}),
			out:      make(chan outFrame, 1),
			inflight: map[uint64]core.SubmitHandle{7: {}},
		}
		c.Render(7, Classify(tc.o, tc.err), tc.o, tc.err)
		f := <-c.out
		if retry := statusRetry[f.resp.Status]; f.id != 7 || f.rare != nil || f.resp != tc.resp || retry != tc.retry {
			t.Errorf("%s: frame %+v (retry %v), want id 7 resp %+v retry %v", tc.name, f, retry, tc.resp, tc.retry)
		}
		if got := c.srv.Counters().Shed; got != tc.shed {
			t.Errorf("%s: front-end shed counter %d, want %d", tc.name, got, tc.shed)
		}
		if len(c.inflight) != 0 {
			t.Errorf("%s: submission still tracked after its answer", tc.name)
		}
	}
}
