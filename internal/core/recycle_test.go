package core

// Regression tests for the ID-recycling / stable-ID latch: the wall-clock
// service reuses retired transaction IDs to keep its tables bounded, but
// the oracle's theorems (and a trace recorder's event stream) key state by
// ID. The latch has two halves: attaching an ID-keyed consumer pins IDs
// for the engine's lifetime, and attaching one after an ID was already
// reused fails fast instead of silently conflating transactions.

import (
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/workload"
)

// serviceEngine builds an engine the way NewService does (no pre-generated
// workload) but driven in virtual time, so the recycle flow is exercised
// deterministically without a Realtime driver.
func serviceEngine(t *testing.T) *Engine {
	t.Helper()
	cfg := MainMemoryConfig(CCA, 1)
	e, err := NewShardEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.retires = true
	e.StartRun()
	return e
}

// submitAndFinish runs one submission to its terminal state and retires it,
// the way a service engine's answer path does.
func submitAndFinish(t *testing.T, e *Engine, item int) int {
	t.Helper()
	now := time.Duration(e.sim.Now())
	spec := &workload.Spec{
		Items:    []txn.Item{txn.Item(item)},
		Compute:  time.Millisecond,
		Arrival:  now,
		Deadline: now + 50*time.Millisecond,
	}
	tp := e.SubmitSpec(spec, func(ServiceOutcome, error) {})
	id := tp.ID()
	if err := e.StepTo(e.sim.Now() + sim.Time(100*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if tp.State() != StateCommitted {
		t.Fatalf("submission T%d ended %v, want committed", id, tp.State())
	}
	return id
}

func TestEnableOracleFailsFastAfterRecycle(t *testing.T) {
	e := serviceEngine(t)
	first := submitAndFinish(t, e, 3)
	second := submitAndFinish(t, e, 7)
	if first != second {
		t.Fatalf("expected ID reuse (got %d then %d): recycle path not exercised", first, second)
	}
	if !e.idRecycled {
		t.Fatal("idRecycled not latched after reuse")
	}
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("EnableOracle after recycling did not fail fast")
		}
		if !strings.Contains(p.(string), "recycled") {
			t.Fatalf("unexpected panic: %v", p)
		}
	}()
	e.EnableOracle()
}

func TestSetRecorderFailsFastAfterRecycle(t *testing.T) {
	e := serviceEngine(t)
	submitAndFinish(t, e, 3)
	submitAndFinish(t, e, 7)
	defer func() {
		if recover() == nil {
			t.Fatal("SetRecorder after recycling did not fail fast")
		}
	}()
	e.SetRecorder(&trace.Buffer{Cap: 4})
}

// TestOracleLatchesRecyclingOff: enable the oracle first, then submit —
// IDs must never be reused, and detaching a recorder later must not
// re-open recycling (the latch outlives the consumer).
func TestOracleLatchesRecyclingOff(t *testing.T) {
	e := serviceEngine(t)
	e.EnableOracle()
	a := submitAndFinish(t, e, 3)
	b := submitAndFinish(t, e, 7)
	if a == b {
		t.Fatalf("IDs recycled (both %d) despite the oracle", a)
	}
	if len(e.freeIDs) != 0 {
		t.Fatalf("retired IDs queued for reuse despite the oracle: %v", e.freeIDs)
	}
}

func TestRecorderDetachKeepsIDsPinned(t *testing.T) {
	e := serviceEngine(t)
	e.SetRecorder(&trace.Buffer{Cap: 64})
	a := submitAndFinish(t, e, 3)
	e.SetRecorder(nil) // detach: the latch must survive
	b := submitAndFinish(t, e, 7)
	if a == b {
		t.Fatalf("IDs recycled (both %d) after the recorder detached", a)
	}
	if !e.idsPinned {
		t.Fatal("idsPinned cleared by SetRecorder(nil)")
	}
}
