package shard

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
)

// TestServiceSubmitBatchMixed batches single-shard entries for different
// shards together with a cross-shard entry and checks they all commit —
// the single-shard ones each through its home shard's inbox, the cross one
// through the epoch queue.
func TestServiceSubmitBatchMixed(t *testing.T) {
	s, _ := startService(t, 4)
	mk := func(items ...int) (core.Submission, chan core.ServiceOutcome, chan error) {
		oc := make(chan core.ServiceOutcome, 1)
		ec := make(chan error, 1)
		return core.Submission{
			Req: core.ServiceRequest{
				Items:    itemList(items...),
				Compute:  100 * time.Microsecond,
				Deadline: 5 * time.Second,
			},
			Done: func(o core.ServiceOutcome, err error) { oc <- o; ec <- err },
		}, oc, ec
	}
	s0, oc0, _ := mk(4, 8)   // shard 0
	s1, oc1, _ := mk(5, 9)   // shard 1
	s2, oc2, _ := mk(6, 10)  // shard 2
	sx, ocx, ecx := mk(1, 2) // shards 1 and 2: cross
	bad, _, ecBad := mk()    // no items: fails validation

	s.SubmitBatch([]core.Submission{s0, s1, s2, sx, bad})
	for i, oc := range []chan core.ServiceOutcome{oc0, oc1, oc2, ocx} {
		select {
		case o := <-oc:
			if o.State != core.StateCommitted {
				t.Fatalf("entry %d: %+v, want committed", i, o)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("entry %d never finished", i)
		}
	}
	select {
	case err := <-ecBad:
		if err == nil {
			t.Fatal("empty submission did not fail")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("empty submission never answered")
	}
	select {
	case err := <-ecx:
		if err != nil {
			t.Fatalf("cross entry error: %v", err)
		}
	default:
	}

	// Shards 0..2 each saw exactly one direct commit plus the cross parts.
	st, ok := s.Stats()
	if !ok || st.Result.Committed < 4 {
		t.Fatalf("merged stats %+v ok=%v, want >= 4 commits", st.Result, ok)
	}
}

// TestServiceSubmitBatchDraining checks the batched refusal path and that
// a cross-shard handle cancels its fan-out.
func TestServiceSubmitBatchDraining(t *testing.T) {
	s, _ := startService(t, 2)
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	ec := make(chan error, 1)
	s.SubmitBatch([]core.Submission{{
		Req:  core.ServiceRequest{Items: itemList(1), Compute: time.Millisecond, Deadline: time.Second},
		Done: func(_ core.ServiceOutcome, err error) { ec <- err },
	}})
	select {
	case err := <-ec:
		if !errors.Is(err, core.ErrDraining) {
			t.Fatalf("err = %v, want ErrDraining", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("draining batch never answered")
	}
}
