package main

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro"
)

// syncBuf is a goroutine-safe writer: the simulation goroutine writes
// per-seed lines while the test polls for them.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRunSummary: a short run exits 0 and prints the summary block.
func TestRunSummary(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-count", "50", "-seeds", "2"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	for _, want := range []string{"policy=cca", "seeds=2", "miss", "restarts/txn"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}
}

// TestBadFlagExitsUsage: an unknown flag is a usage error.
func TestBadFlagExitsUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

// TestBadPolicyExitsUsage: an invalid configuration is refused before any
// simulation runs.
func TestBadPolicyExitsUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-policy", "nope"}, &out, &errb); code != 2 {
		t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, errb.String())
	}
}

// TestInterruptFinishesSummary: SIGINT during a long multi-seed run stops
// between seeds, still prints the summary over the completed seeds, and
// exits 130.
func TestInterruptFinishesSummary(t *testing.T) {
	var out, errb syncBuf
	done := make(chan int, 1)
	go func() {
		// Enough seeds that the run cannot finish before the signal lands;
		// -v makes the first completed seed observable.
		done <- run([]string{"-count", "50", "-seeds", "1000000", "-v"}, &out, &errb)
	}()

	// Wait for at least one seed to complete, proving the signal handler
	// is installed and the loop is in flight.
	deadline := time.Now().Add(30 * time.Second)
	for !strings.Contains(out.String(), "seed ") {
		if time.Now().After(deadline) {
			t.Fatalf("no seed completed; stdout:\n%s", out.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatalf("kill: %v", err)
	}

	select {
	case code := <-done:
		if code != 130 {
			t.Fatalf("exit code = %d, want 130; stderr: %s", code, errb.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatal("run did not return after SIGINT")
	}
	if !strings.Contains(errb.String(), "interrupted after") {
		t.Errorf("stderr missing interrupt notice:\n%s", errb.String())
	}
	// The summary over completed seeds still printed.
	if !strings.Contains(out.String(), "policy=cca") {
		t.Errorf("stdout missing the partial summary:\n%s", out.String())
	}
}

// TestHelpNamesEveryPolicy: -policy's usage lists every policy the engine
// accepts.
func TestHelpNamesEveryPolicy(t *testing.T) {
	var out, errb bytes.Buffer
	run([]string{"-h"}, &out, &errb)
	_, usage, _ := strings.Cut(errb.String(), "-policy string\n")
	usage, _, _ = strings.Cut(usage, "\n")
	for _, p := range rtdbs.Policies() {
		if !slices.Contains(strings.Fields(usage), string(p)) {
			t.Errorf("-policy usage %q does not name %s", usage, p)
		}
	}
}
