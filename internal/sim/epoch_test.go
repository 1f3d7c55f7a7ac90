package sim

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestEpochScheduleBoundary(t *testing.T) {
	s := EpochSchedule{Interval: Time(10 * time.Millisecond)}
	if got := s.Boundary(1); got != Time(10*time.Millisecond) {
		t.Fatalf("Boundary(1) = %v", got)
	}
	if got := s.Boundary(7); got != Time(70*time.Millisecond) {
		t.Fatalf("Boundary(7) = %v", got)
	}
}

func TestLockstepRoundsAreBarriers(t *testing.T) {
	const n, rounds = 4, 50
	l := NewLockstep(n)
	var entered atomic.Int64
	for r := 0; r < rounds; r++ {
		err := l.Round(func(i int) error {
			entered.Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// After Round returns, every worker of this round has finished.
		if got := entered.Load(); got != int64((r+1)*n) {
			t.Fatalf("round %d: %d steps ran, want %d", r, got, (r+1)*n)
		}
	}
}

func TestLockstepLowestIndexedError(t *testing.T) {
	l := NewLockstep(4)
	e1 := errors.New("worker 1")
	e3 := errors.New("worker 3")
	for trial := 0; trial < 20; trial++ {
		err := l.Round(func(i int) error {
			switch i {
			case 1:
				return e1
			case 3:
				return e3
			}
			return nil
		})
		if err != e1 {
			t.Fatalf("trial %d: Round error = %v, want lowest-indexed %v", trial, err, e1)
		}
	}
}

func TestLockstepSingleWorkerInline(t *testing.T) {
	l := NewLockstep(1)
	ran := false
	if err := l.Round(func(i int) error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("single-worker round: ran=%v err=%v", ran, err)
	}
}
