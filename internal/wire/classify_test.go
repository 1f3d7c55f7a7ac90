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
// and answers each the way the four hand-written switches it replaced did.
// The want columns are those switches, case by case:
//
//   - status, retry: the status conn.Render is handed, and whether its
//     response carries a Retry-After;
//   - http: handleSubmit's status code (retry is also its Retry-After);
//   - counted by Server.countAnswer as accepted (any nil error; rejected
//     too for StateRejected), shed, failed or bad request — the same
//     partition as status;
//   - tallied by replayWAL as replayed (nil error), failed (shed, failed) or
//     aborted (invalid) — again a function of status alone.
func TestClassifyAgreesWithTheOldSwitches(t *testing.T) {
	validation := errors.New("core: item 10000 outside database of 30 items")
	cases := []struct {
		name   string
		o      core.ServiceOutcome
		err    error
		status uint8
		http   int
		retry  bool
	}{
		// err == nil: the engine answered. Only committed and rejected had
		// cases of their own; every other state fell to "default: dropped".
		{"committed", core.ServiceOutcome{State: core.StateCommitted}, nil, StatusCommitted, 200, false},
		{"committed late", core.ServiceOutcome{State: core.StateCommitted, Missed: true}, nil, StatusCommitted, 200, false},
		{"rejected", core.ServiceOutcome{State: core.StateRejected, Missed: true}, nil, StatusRejected, 503, true},
		{"dropped", core.ServiceOutcome{State: core.StateDropped, Missed: true}, nil, StatusDropped, 503, false},
		{"ready (zero outcome)", core.ServiceOutcome{}, nil, StatusDropped, 503, false},
		{"running", core.ServiceOutcome{State: core.StateRunning}, nil, StatusDropped, 503, false},
		{"io-wait", core.ServiceOutcome{State: core.StateIOWait}, nil, StatusDropped, 503, false},
		{"lock-wait", core.ServiceOutcome{State: core.StateLockWait}, nil, StatusDropped, 503, false},
		{"aborting", core.ServiceOutcome{State: core.StateAborting}, nil, StatusDropped, 503, false},
		{"unknown state", core.ServiceOutcome{State: core.State(99)}, nil, StatusDropped, 503, false},

		// Refused before the engine: retriable.
		{"draining", core.ServiceOutcome{}, core.ErrDraining, StatusShed, 503, true},
		{"draining wrapped", core.ServiceOutcome{}, fmt.Errorf("shard 2: %w", core.ErrDraining), StatusShed, 503, true},
		{"stopped", core.ServiceOutcome{}, core.ErrServiceStopped, StatusShed, 503, true},
		{"stopped wrapped", core.ServiceOutcome{}, fmt.Errorf("shard 2: %w", core.ErrServiceStopped), StatusShed, 503, true},

		// Outcome unknown: never a retry hint, whatever the outcome says.
		{"engine failed", core.ServiceOutcome{}, core.ErrEngineFailed, StatusFailed, 500, false},
		{"engine failed wrapped", core.ServiceOutcome{State: core.StateDropped}, fmt.Errorf("%w: panic: boom", core.ErrEngineFailed), StatusFailed, 500, false},
		{"log failed", core.ServiceOutcome{State: core.StateCommitted}, core.ErrLogFailed, StatusFailed, 500, false},
		{"log failed wrapped", core.ServiceOutcome{State: core.StateCommitted}, fmt.Errorf("%w: fsync: EIO", core.ErrLogFailed), StatusFailed, 500, false},

		// Anything else is the request's fault.
		{"validation", core.ServiceOutcome{}, validation, StatusInvalid, 400, false},
		{"validation wrapped", core.ServiceOutcome{}, fmt.Errorf("part 1: %w", validation), StatusInvalid, 400, false},
	}
	for _, tc := range cases {
		status, code, retry := Classify(tc.o, tc.err)
		if status != tc.status || code != tc.http || retry != tc.retry {
			t.Errorf("%s: Classify = (%d, %d, %v), want (%d, %d, %v)",
				tc.name, status, code, retry, tc.status, tc.http, tc.retry)
		}
	}
}

// TestStatusTable pins what each status tells a client in both protocols, so
// the wire retry hint and HTTP's code / Retry-After cannot drift apart: they
// are one row of one table.
func TestStatusTable(t *testing.T) {
	want := map[uint8]struct {
		http  int
		retry bool
	}{
		StatusCommitted: {200, false},
		StatusDropped:   {503, false},
		StatusRejected:  {503, true}, // 503 + Retry-After
		StatusShed:      {503, true}, // 503 + Retry-After
		StatusInvalid:   {400, false},
		StatusFailed:    {500, false},
	}
	if len(statusMeta) != len(want) {
		t.Fatalf("statusMeta has %d rows, want one per status (%d)", len(statusMeta), len(want))
	}
	for status, w := range want {
		if got := statusMeta[status]; got.http != w.http || got.retry != w.retry {
			t.Errorf("status %d: (%d, retry %v), want (%d, retry %v)", status, got.http, got.retry, w.http, w.retry)
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
		status, _, _ := Classify(tc.o, tc.err)
		c.Render(7, status, tc.o, tc.err)
		f := <-c.out
		if retry := statusMeta[f.resp.Status].retry; f.id != 7 || f.rare != nil || f.resp != tc.resp || retry != tc.retry {
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
