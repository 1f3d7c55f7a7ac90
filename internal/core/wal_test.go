package core

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/txn"
	"repro/internal/wal"
)

// TestWALHookDisabledPassthrough proves the WAL-off submit path costs
// nothing: LogSubmit is (0, nil) without touching the request, and
// WrapDone leaves the submission's callback as it was — the same
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
	sub := Submission{Done: done}
	h.WrapDone(&sub, 0, false)
	if sub.Answer != nil || reflect.ValueOf(sub.Done).Pointer() != reflect.ValueOf(done).Pointer() {
		t.Fatal("disabled WrapDone did not leave the callback unchanged")
	}
	sub.Target().Complete(0, ServiceOutcome{}, nil)
	if !called {
		t.Fatal("returned callback is not the original")
	}
}

// TestWALHookSeqZeroPassthrough: even with a live logger, a submission
// whose submit record was never appended (seq 0) must not gain an
// outcome record — WrapDone leaves it alone there too.
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
	sub := Submission{Done: done}
	if h.WrapDone(&sub, 0, false); sub.Answer != nil || reflect.ValueOf(sub.Done).Pointer() != reflect.ValueOf(done).Pointer() {
		t.Fatal("seq-0 WrapDone did not leave the callback unchanged")
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

// idSink records every answer a target got.
type idSink struct {
	mu   sync.Mutex
	ids  []uint64
	seqs []uint64
	errs []error
	told sync.WaitGroup
}

func (s *idSink) Complete(id uint64, o ServiceOutcome, err error) {
	s.mu.Lock()
	s.ids = append(s.ids, id)
	s.seqs = append(s.seqs, o.Seq)
	s.errs = append(s.errs, err)
	s.mu.Unlock()
	s.told.Done()
}

// TestWALSlotsRecycled answers submission after submission through the
// hook's recycled answer slots, from several goroutines at once and a few in
// flight on each, every one with a target and an ID of its own: every target
// gets exactly its own ID and sequence number, once, whichever slot carried
// it before.
func TestWALSlotsRecycled(t *testing.T) {
	log, _, err := wal.Open(wal.Options{FS: wal.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	h := WALHook{Log: log}
	const workers, rounds, inFlight = 4, 100, 4
	sinks := make([]idSink, workers*rounds*inFlight)
	seqs := make([]uint64, len(sinks))
	var wg sync.WaitGroup
	wg.Add(workers)
	for g := 0; g < workers; g++ {
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				base := (g*rounds + r) * inFlight
				var subs [inFlight]Submission
				for j := range subs {
					k := base + j
					seq, err := h.LogSubmit(&ServiceRequest{Items: []txn.Item{txn.Item(k)}})
					if err != nil {
						t.Error(err)
						return
					}
					seqs[k] = seq
					sinks[k].told.Add(1)
					subs[j] = Submission{Answer: &sinks[k], ID: uint64(1000 + k)}
					h.WrapDone(&subs[j], seq, false)
				}
				// Answer in reverse, with an ID the slot must not pass on
				// (it answers with its own).
				for j := inFlight - 1; j >= 0; j-- {
					subs[j].Target().Complete(0, ServiceOutcome{State: StateCommitted}, nil)
				}
				for j := range subs {
					sinks[base+j].told.Wait()
				}
			}
		}(g)
	}
	wg.Wait()
	if n := len(h.free); n > workers*inFlight {
		t.Fatalf("%d slots made for %d answers at most %d at a time: delivered slots are not reused", n, len(sinks), workers*inFlight)
	}
	for k := range sinks {
		s := &sinks[k]
		if len(s.ids) != 1 || s.ids[0] != uint64(1000+k) || s.seqs[0] != seqs[k] || s.errs[0] != nil {
			t.Fatalf("target %d got ids %v seqs %v errs %v; want once id %d seq %d", k, s.ids, s.seqs, s.errs, 1000+k, seqs[k])
		}
	}
}

// gatedSync holds the segment's Sync until release is closed, and can
// fail it.
type gatedSync struct {
	wal.File
	entered chan<- struct{}
	release <-chan struct{}
	fail    bool
}

func (f gatedSync) Sync() error {
	f.entered <- struct{}{}
	<-f.release
	if f.fail {
		return errors.New("injected sync failure")
	}
	return f.File.Sync()
}

// TestWALHookRetriableAnswerWaitsForAbortRecord: a logged submission
// answered with a retriable error is resolved in the log before its client
// hears it — the ErrDraining answer does not arrive while the abort
// record's Sync is held — and when that record is lost the answer is the
// ambiguous ErrLogFailed, never the retriable error.
func TestWALHookRetriableAnswerWaitsForAbortRecord(t *testing.T) {
	for _, fail := range []bool{false, true} {
		entered, release := make(chan struct{}), make(chan struct{})
		memfs := wal.NewMemFS()
		log, _, err := wal.Open(wal.Options{FS: memfs, WrapFile: func(_ string, f wal.File) wal.File {
			return gatedSync{File: f, entered: entered, release: release, fail: fail}
		}})
		if err != nil {
			t.Fatal(err)
		}
		h := WALHook{Log: log}
		seq, err := h.LogSubmit(&ServiceRequest{Items: []txn.Item{1}})
		if err != nil {
			t.Fatal(err)
		}
		answer := make(chan error, 1)
		sub := Submission{Done: func(_ ServiceOutcome, err error) { answer <- err }}
		h.WrapDone(&sub, seq, false)
		sub.Fail(ErrDraining)
		<-entered
		select {
		case err := <-answer:
			t.Fatalf("fail=%v: answered %v before the abort record's Sync returned", fail, err)
		case <-time.After(20 * time.Millisecond):
		}
		close(release)
		got := <-answer
		if fail {
			if !errors.Is(got, ErrLogFailed) || errors.Is(got, ErrDraining) {
				t.Fatalf("lost abort record: answer %v, want ErrLogFailed and not ErrDraining", got)
			}
		} else if got != ErrDraining {
			t.Fatalf("answer %v, want ErrDraining", got)
		}
		closeErr := log.Close()
		if fail {
			// A logger that lost a record refuses the next append too.
			sub := Submission{Done: func(_ ServiceOutcome, err error) { answer <- err }}
			h.WrapDone(&sub, seq, false)
			sub.Fail(ErrServiceStopped)
			if got := <-answer; !errors.Is(got, ErrLogFailed) {
				t.Fatalf("refused abort append: answer %v, want ErrLogFailed", got)
			}
			continue
		}
		if closeErr != nil {
			t.Fatal(closeErr)
		}
		rec, err := wal.Scan(memfs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Unresolved) != 0 || rec.Aborted != 1 {
			t.Fatalf("after the ErrDraining answer: %+v; want the submission resolved by one aborted record", rec)
		}
	}
}
