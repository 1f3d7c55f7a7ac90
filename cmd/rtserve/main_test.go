package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"regexp"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
)

// syncBuf is a goroutine-safe writer: the server goroutine writes log
// lines while the test polls for them.
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

// TestBadFlagExitsUsage: an unknown flag is a usage error.
func TestBadFlagExitsUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

// TestBadPolicyExitsUsage: a config the engine refuses is caught before
// the listener opens.
func TestBadPolicyExitsUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-policy", "nope"}, &out, &errb); code != 2 {
		t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, errb.String())
	}
}

// TestBadFloatFlagsExit: a speed or weight the engine cannot run with is
// refused before the listener opens, with an rtserve message, not a panic
// or a server that never answers.
func TestBadFloatFlagsExit(t *testing.T) {
	for _, args := range [][]string{
		{"-speed", "-1"},
		{"-speed", "NaN"},
		{"-speed", "+Inf"},
		{"-weight", "NaN"},
	} {
		var out, errb bytes.Buffer
		code := run(append(args, "-addr", "127.0.0.1:0"), &out, &errb)
		if code == 0 || !strings.HasPrefix(errb.String(), "rtserve: ") {
			t.Errorf("%v: exit code %d, stderr %q; want non-zero and an rtserve: message", args, code, errb.String())
		}
	}
}

// TestRestartFlagsNeedSupervision: -restart-shards without -supervise, or
// -max-restarts without -restart-shards, would start a server that never
// restarts a shard; both are refused with an rtserve message.
func TestRestartFlagsNeedSupervision(t *testing.T) {
	for _, args := range [][]string{
		{"-shards", "2", "-restart-shards"},
		{"-shards", "2", "-supervise", "-max-restarts", "2"},
	} {
		var out, errb bytes.Buffer
		code := run(append(args, "-addr", "127.0.0.1:0"), &out, &errb)
		if code == 0 || !strings.HasPrefix(errb.String(), "rtserve: ") {
			t.Errorf("%v: exit code %d, stderr %q; want non-zero and an rtserve: message", args, code, errb.String())
		}
	}
}

var addrRe = regexp.MustCompile(`on (127\.0\.0\.1:\d+)`)

// TestServeSignalDrain boots the server on an ephemeral port, commits one
// transaction over HTTP, sends the process SIGTERM and checks the clean
// drain: exit code 0, the flushed metrics snapshot, and the shutdown
// message.
func TestServeSignalDrain(t *testing.T) {
	var out, errb syncBuf
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-speed", "1000", "-drain-timeout", "2s"}, &out, &errb)
	}()

	// Wait for the serving line and recover the ephemeral address.
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if m := addrRe.FindStringSubmatch(errb.String()); m != nil {
			base = "http://" + m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address; stderr:\n%s", errb.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Post(base+"/submit", "application/json",
		strings.NewReader(`{"items":[3,17],"compute":"1ms","deadline":"200ms"}`))
	if err != nil {
		t.Fatalf("POST /submit: %v", err)
	}
	var sub struct {
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || sub.State != "committed" {
		t.Fatalf("submit: status %d state %q, want 200 committed", resp.StatusCode, sub.State)
	}

	// The signal path is the real one: SIGTERM to our own process, caught
	// by the run loop's NotifyContext.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("kill: %v", err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code %d after SIGTERM, want 0; stderr:\n%s", code, errb.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("server did not drain after SIGTERM; stderr:\n%s", errb.String())
	}
	se := errb.String()
	if !strings.Contains(se, "drained: committed=1") {
		t.Errorf("stderr missing flushed metrics snapshot:\n%s", se)
	}
	if !strings.Contains(se, "shutdown complete") {
		t.Errorf("stderr missing shutdown message:\n%s", se)
	}
}

// TestHelpNamesEveryPolicy: -policy's usage lists every policy the engine
// accepts.
func TestHelpNamesEveryPolicy(t *testing.T) {
	var out, errb bytes.Buffer
	run([]string{"-h"}, &out, &errb)
	_, usage, _ := strings.Cut(errb.String(), "-policy string\n")
	usage, _, _ = strings.Cut(usage, "\n")
	for _, p := range core.Policies() {
		if !slices.Contains(strings.Fields(usage), string(p)) {
			t.Errorf("-policy usage %q does not name %s", usage, p)
		}
	}
}
