package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestUnknownExperimentListsValidIDs: a typo'd -exp must exit non-zero and
// tell the user what the valid IDs are, not just that theirs is wrong.
func TestUnknownExperimentListsValidIDs(t *testing.T) {
	code, _, stderr := runCLI(t, "-exp", "nope")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	for _, want := range []string{`unknown experiment "nope"`, "mm-rate", "disk-rate", "table1"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr)
		}
	}
}

// TestUnknownFormatExitsUsage: -format takes text, md or csv; anything
// else is a usage error (exit 2) caught before any table is printed or
// any simulation starts.
func TestUnknownFormatExitsUsage(t *testing.T) {
	for _, exp := range []string{"table1", "mm-rate"} {
		code, stdout, stderr := runCLI(t, "-exp", exp, "-format", "json")
		if code != 2 {
			t.Fatalf("-exp %s -format json: exit code = %d, want 2", exp, code)
		}
		if stdout != "" {
			t.Errorf("-exp %s -format json printed:\n%s", exp, stdout)
		}
		if !strings.Contains(stderr, `unknown -format "json"`) {
			t.Errorf("-exp %s: stderr missing the format message:\n%s", exp, stderr)
		}
	}
}

// TestBadFlagExitsUsage: an unknown flag is a usage error.
func TestBadFlagExitsUsage(t *testing.T) {
	if code, _, _ := runCLI(t, "-no-such-flag"); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

// TestListExitsZero: -list prints the registry to stdout.
func TestListExitsZero(t *testing.T) {
	code, stdout, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	for _, want := range []string{"mm-rate", "disk-rate", "table1", "table2"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("list output missing %q", want)
		}
	}
}

// TestSmallSweepHappyPath: a shrunken sweep runs to completion and renders
// its tables on stdout.
func TestSmallSweepHappyPath(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-exp", "mm-rate", "-seeds", "2", "-count", "60", "-q")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "EDF-HP miss%") || !strings.Contains(stdout, "±95% (n)") {
		t.Errorf("sweep output missing expected columns:\n%s", stdout)
	}
}

// TestAdaptiveFlagSmoke: -target-ci exercises the adaptive path end to end
// and reports the convergence summary on stderr.
func TestAdaptiveFlagSmoke(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-exp", "mm-rate", "-count", "60",
		"-target-ci", "0.2", "-seeds", "2", "-max-seeds", "4")
	if code != 0 {
		t.Fatalf("exit code = %d; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "cells converged") {
		t.Errorf("stderr missing convergence summary:\n%s", stderr)
	}
	if !strings.Contains(stdout, "(n=") {
		t.Errorf("tables missing per-cell replication counts:\n%s", stdout)
	}
}

// paperDigest is the SHA-256 of `rtexp -exp paper -format md`: every table
// and figure of the paper at full fidelity. Nothing regenerates it. A run
// that moves a paper number fails here and prints the new digest, and
// re-recording it is a reviewed decision with its reason.
const paperDigest = "94d2e50e207cc5548ede828ea131bb4cd653732c9d0f47900b153fde24b55141"

// TestPaperOutputDigest: the paper-level numbers stay fixed.
func TestPaperOutputDigest(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-exp", "paper", "-format", "md")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr:\n%s", code, stderr)
	}
	sum := sha256.Sum256([]byte(stdout))
	if got := hex.EncodeToString(sum[:]); got != paperDigest {
		t.Fatalf("paper output digest %s, recorded %s", got, paperDigest)
	}
}
