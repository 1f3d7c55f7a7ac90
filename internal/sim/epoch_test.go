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

func TestEpochOf(t *testing.T) {
	s := EpochSchedule{Interval: Time(10 * time.Millisecond)}
	cases := []struct {
		at   Time
		want int
	}{
		{0, 1},
		{Time(1 * time.Millisecond), 1},
		{Time(10 * time.Millisecond), 1}, // exactly on the boundary
		{Time(10*time.Millisecond) + 1, 2},
		{Time(25 * time.Millisecond), 3},
	}
	for _, c := range cases {
		if got := s.epochOf(c.at); got != c.want {
			t.Errorf("epochOf(%v) = %d, want %d", c.at, got, c.want)
		}
		// Consistency: an event at t is applied no later than its epoch's
		// boundary, and after the previous one.
		k := s.epochOf(c.at)
		if b := s.Boundary(k); b < c.at {
			t.Errorf("epochOf(%v) = %d but Boundary(%d) = %v is earlier", c.at, k, k, b)
		}
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
