package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/txn"
	"repro/internal/wal"
)

// TestWALHookDisabledPassthrough proves the WAL-off submit path costs
// nothing: LogSubmit is (0, nil) without touching the request, and
// WrapDone hands back the very callback it was given — the same
// function value, no wrapper allocation, no indirection.
func TestWALHookDisabledPassthrough(t *testing.T) {
	var h WALHook
	if h.enabled() {
		t.Fatal("zero WALHook reports enabled")
	}
	seq, err := h.LogSubmit(&ServiceRequest{Items: []txn.Item{1}})
	if seq != 0 || err != nil {
		t.Fatalf("disabled LogSubmit = (%d, %v), want (0, nil)", seq, err)
	}
	called := false
	done := func(ServiceOutcome, error) { called = true }
	got := h.WrapDone(0, false, done)
	if reflect.ValueOf(got).Pointer() != reflect.ValueOf(done).Pointer() {
		t.Fatal("disabled WrapDone did not return the callback unchanged")
	}
	got(ServiceOutcome{}, nil)
	if !called {
		t.Fatal("returned callback is not the original")
	}
}

// TestWALHookSeqZeroPassthrough: even with a live logger, a submission
// whose submit record was never appended (seq 0) must not gain an
// outcome record — WrapDone is the identity there too.
func TestWALHookSeqZeroPassthrough(t *testing.T) {
	log, _, err := wal.Open(wal.Options{FS: wal.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	h := WALHook{Log: log}
	if !h.enabled() {
		t.Fatal("hook with logger reports disabled")
	}
	done := func(ServiceOutcome, error) {}
	if got := h.WrapDone(0, false, done); reflect.ValueOf(got).Pointer() != reflect.ValueOf(done).Pointer() {
		t.Fatal("seq-0 WrapDone did not return the callback unchanged")
	}
}

// TestRequestFromWALRoundTrip: LogSubmit's record and RequestFromWAL
// are inverses, so a replayed submission is byte-for-byte the request
// the client originally sent.
func TestRequestFromWALRoundTrip(t *testing.T) {
	memfs := wal.NewMemFS()
	log, _, err := wal.Open(wal.Options{FS: memfs})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	h := WALHook{Log: log}
	req := ServiceRequest{
		Items:       []txn.Item{4, 9, 2},
		Reads:       []bool{true, false, true},
		NeedsIO:     []bool{false, true, false},
		Compute:     3 * time.Millisecond,
		Deadline:    250 * time.Millisecond,
		Criticality: 2,
		Class:       1,
	}
	seq, err := h.LogSubmit(&req)
	if err != nil || seq == 0 {
		t.Fatalf("LogSubmit = (%d, %v)", seq, err)
	}
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	var got ServiceRequest
	found := false
	if _, err := wal.Scan(memfs, func(hd wal.Header, sub *wal.SubmitRecord, _ *wal.OutcomeRecord) error {
		if hd.Type == wal.RecSubmit && sub.Seq == seq {
			got = RequestFromWAL(sub)
			found = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatalf("seq %d not found in log", seq)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, req)
	}
}

// TestLogSubmitAllocatesNothing: the submit record is encoded straight from
// the request — no per-submit copy of the items or the flag lists.
func TestLogSubmitAllocatesNothing(t *testing.T) {
	log, _, err := wal.Open(wal.Options{FS: wal.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	h := WALHook{Log: log}
	req := ServiceRequest{
		Items:    []txn.Item{4, 9, 2, 11},
		Reads:    []bool{true, false, true, false},
		Compute:  time.Millisecond,
		Deadline: time.Second,
	}
	logSubmit := func() {
		if _, err := h.LogSubmit(&req); err != nil {
			t.Fatal(err)
		}
	}
	// Sync hands the logger's buffer back at the size the warm-up grew it
	// to; what is left to allocate is the amortised growth of the logger's
	// pending-sequence list, well under one allocation per append.
	for i := 0; i < 400; i++ {
		logSubmit()
	}
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, logSubmit); allocs != 0 {
		t.Fatalf("LogSubmit allocates %.1f times per logged submit", allocs)
	}
}
