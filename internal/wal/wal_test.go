package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func openMem(t *testing.T, fs *MemFS, mut func(*Options)) (*Logger, *Recovery) {
	t.Helper()
	opt := Options{FS: fs}
	if mut != nil {
		mut(&opt)
	}
	l, rec, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

// appendPair logs one submit and its outcome, waiting for durability.
func appendPair(t *testing.T, l *Logger, items ...int32) uint64 {
	t.Helper()
	seq, err := l.AppendSubmit(&SubmitRecord{Items: items, Compute: time.Millisecond, Deadline: time.Second})
	if err != nil {
		t.Fatalf("AppendSubmit: %v", err)
	}
	ch := make(chan error, 1)
	if err := l.AppendOutcome(&OutcomeRecord{Seq: seq, State: 3}, func(err error) { ch <- err }); err != nil {
		t.Fatalf("AppendOutcome: %v", err)
	}
	select {
	case err := <-ch:
		if err != nil {
			t.Fatalf("durability callback: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("durability callback never fired")
	}
	return seq
}

func TestLoggerAppendRecover(t *testing.T) {
	fs := NewMemFS()
	l, rec := openMem(t, fs, nil)
	if rec.Records != 0 || len(rec.Unresolved) != 0 {
		t.Fatalf("fresh dir recovery: %+v", rec)
	}

	// Three resolved pairs, then two submits whose outcomes never land.
	var resolved []uint64
	for i := 0; i < 3; i++ {
		resolved = append(resolved, appendPair(t, l, int32(i)))
	}
	var unresolved []uint64
	for i := 0; i < 2; i++ {
		seq, err := l.AppendSubmit(&SubmitRecord{
			Items: []int32{int32(10 + i)}, Reads: []bool{i == 0},
			Compute: 2 * time.Millisecond, Deadline: 30 * time.Millisecond,
			Criticality: i, Class: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		unresolved = append(unresolved, seq)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	st := l.Stats()
	if st.Submits != 5 || st.Outcomes != 3 || st.Unresolved != 2 || st.Failed {
		t.Fatalf("stats: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := l.AppendSubmit(&SubmitRecord{Items: []int32{1}, Compute: 1, Deadline: 1}); !errors.Is(err, errClosed) {
		t.Fatalf("append after close: %v", err)
	}

	l2, rec2 := openMem(t, fs, nil)
	defer l2.Close()
	if rec2.Submits != 5 || rec2.Outcomes != 3 || rec2.Truncated {
		t.Fatalf("recovery: %+v", rec2)
	}
	var got []uint64
	for _, u := range rec2.Unresolved {
		got = append(got, u.Seq)
	}
	if !reflect.DeepEqual(got, unresolved) {
		t.Fatalf("unresolved %v, want %v", got, unresolved)
	}
	if rec2.Unresolved[0].Class != 7 || !rec2.Unresolved[0].Reads[0] {
		t.Fatalf("unresolved payload lost: %+v", rec2.Unresolved[0])
	}
	// Sequence numbering continues after the highest recovered seq.
	if next := l2.nextSeq; next != resolved[2]+3 {
		t.Fatalf("nextSeq %d, want %d", next, resolved[2]+3)
	}
}

// TestCrashLosesUnsyncedTail: outcomes appended but not yet synced are
// lost by a crash; recovery reports their submissions unresolved.
func TestCrashLosesUnsyncedTail(t *testing.T) {
	fs := NewMemFS()
	l, _ := openMem(t, fs, func(o *Options) { o.SyncEvery = time.Hour }) // never auto-sync
	seq1, err := l.AppendSubmit(&SubmitRecord{Items: []int32{1}, Compute: 1, Deadline: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Outcome appended, crash before any sync: ack never fired.
	if err := l.AppendOutcome(&OutcomeRecord{Seq: seq1, State: 3}, nil); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	l.Close() // abandon the stale handle; flush fails against the crashed FS

	l2, rec := openMem(t, fs, nil)
	defer l2.Close()
	if len(rec.Unresolved) != 1 || rec.Unresolved[0].Seq != seq1 {
		t.Fatalf("recovery after crash: %+v", rec)
	}
	if rec.Outcomes != 0 {
		t.Fatalf("unsynced outcome survived crash: %+v", rec)
	}
}

// TestTornTailTruncation: garbage (and a half-written record, with or
// without preallocation zeros after it) after the synced prefix is
// truncated in the final segment; two scans of the same log agree
// bit-identically. A tail of nothing but zeros is not torn: it is the
// preallocation a crash left behind — reported, never rewritten.
func TestTornTailTruncation(t *testing.T) {
	half := AppendSubmit(nil, &SubmitRecord{Seq: 77, Items: []int32{4, 5}, Compute: 1, Deadline: 1})
	half = half[:len(half)/2]
	for _, tc := range []struct {
		name string
		tail []byte
		zero bool
	}{
		{"tail-00", []byte{0x00}, true},
		{"tail-deadbeef", []byte{0xde, 0xad, 0xbe, 0xef}, false}, // length word of garbage
		{"tail-00000000", make([]byte, 64), true},                // what a crashed DirFS segment ends in
		{"half-record", half, false},
		{"half-record-then-zeros", append(append([]byte(nil), half...), make([]byte, 4096)...), false},
		{"zeros-then-garbage", append(make([]byte, 32), 0xde, 0xad), false},
	} {
		tail := tc.tail
		t.Run(tc.name, func(t *testing.T) {
			fs := NewMemFS()
			l, _ := openMem(t, fs, nil)
			appendPair(t, l, 1, 2)
			seqU, err := l.AppendSubmit(&SubmitRecord{Items: []int32{3}, Compute: 1, Deadline: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			l.Close()
			names, _ := fs.List()
			if len(names) != 1 {
				t.Fatalf("segments: %v", names)
			}
			if err := fs.Append(names[0], tail); err != nil {
				t.Fatal(err)
			}
			crashed, _ := fs.ReadFile(names[0])
			wantTorn, wantZero := int64(len(tail)), int64(0)
			if tc.zero {
				wantTorn, wantZero = 0, int64(len(tail))
			}

			scan1, err := Scan(fs, nil) // read-only scan notes the tear
			if err != nil {
				t.Fatal(err)
			}
			if scan1.Truncated == tc.zero || scan1.TruncatedBytes != wantTorn || scan1.ZeroTailBytes != wantZero {
				t.Fatalf("read-only scan: %+v", scan1)
			}

			l2, rec := openMem(t, fs, nil) // repairing open truncates a tear, and only a tear
			l2.Close()
			if rec.Truncated == tc.zero || rec.TruncatedBytes != wantTorn || rec.ZeroTailBytes != wantZero {
				t.Fatalf("recovery: %+v", rec)
			}
			if len(rec.Unresolved) != 1 || rec.Unresolved[0].Seq != seqU {
				t.Fatalf("unresolved after tear: %+v", rec)
			}
			after, _ := fs.ReadFile(names[0])
			if tc.zero && !bytes.Equal(after, crashed) {
				t.Fatalf("recovery rewrote a segment with a zero tail: %d -> %d bytes", len(crashed), len(after))
			}
			if !tc.zero && !bytes.Equal(after, crashed[:len(crashed)-len(tail)]) {
				t.Fatalf("repair kept %d bytes of a %d-byte segment with a %d-byte torn tail", len(after), len(crashed), len(tail))
			}

			// Second recovery of the (repaired) log: identical modulo the
			// truncation note, bit-identical unresolved set.
			l3, rec2 := openMem(t, fs, nil)
			l3.Close()
			if rec2.Truncated || rec2.ZeroTailBytes != wantZero {
				t.Fatalf("second recovery: %+v", rec2)
			}
			j1, _ := json.Marshal(rec.Unresolved)
			j2, _ := json.Marshal(rec2.Unresolved)
			if string(j1) != string(j2) || rec.MaxSeq != rec2.MaxSeq || rec.Submits != rec2.Submits {
				t.Fatalf("recovery runs diverge:\n %+v\n %+v", rec, rec2)
			}
		})
	}
}

// TestCorruptMidSegmentFails: corruption before acked records in a
// non-final segment must refuse to open rather than silently drop
// acknowledged work.
func TestCorruptMidSegmentFails(t *testing.T) {
	fs := NewMemFS()
	l, _ := openMem(t, fs, func(o *Options) { o.SegmentBytes = 1 }) // rotate every flush
	appendPair(t, l, 1)
	appendPair(t, l, 2)
	appendPair(t, l, 3)
	l.Close()
	names, _ := fs.List()
	if len(names) < 2 {
		t.Fatalf("want multiple segments, got %v", names)
	}
	if err := fs.corrupt(names[0], 8); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{FS: fs}); err == nil {
		t.Fatal("Open accepted corruption in a non-final segment")
	}
}

func TestSegmentRotationAndRetention(t *testing.T) {
	fs := NewMemFS()
	l, _ := openMem(t, fs, func(o *Options) {
		o.SegmentBytes = 1 // every flush rotates
		o.Retain = 2
	})
	for i := 0; i < 10; i++ {
		appendPair(t, l, int32(i))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Rotations == 0 || st.Removed == 0 {
		t.Fatalf("expected rotations and retention removals: %+v", st)
	}
	names, _ := fs.List()
	// retained closed segments + active segment.
	if len(names) > 4 {
		t.Fatalf("retention kept %d segments: %v", len(names), names)
	}
	l.Close()

	// The retained suffix must still recover cleanly.
	l2, rec := openMem(t, fs, nil)
	l2.Close()
	if len(rec.Unresolved) != 0 {
		t.Fatalf("unexpected unresolved after retention: %+v", rec)
	}
}

// TestRetentionHoldsUnresolvedSegments: a segment with an unresolved
// submit survives retention until its outcome lands, even across many
// rotations.
func TestRetentionHoldsUnresolvedSegments(t *testing.T) {
	fs := NewMemFS()
	l, _ := openMem(t, fs, func(o *Options) {
		o.SegmentBytes = 1
		o.Retain = 1
	})
	seqOpen, err := l.AppendSubmit(&SubmitRecord{Items: []int32{99}, Compute: 1, Deadline: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	firstSeg, _ := fs.List()
	for i := 0; i < 6; i++ {
		appendPair(t, l, int32(i))
	}
	names, _ := fs.List()
	if names[0] != firstSeg[0] {
		t.Fatalf("segment %s holding unresolved seq %d was deleted: %v", firstSeg[0], seqOpen, names)
	}
	// Resolve it; the segment becomes deletable.
	ch := make(chan error, 1)
	if err := l.AppendOutcome(&OutcomeRecord{Seq: seqOpen, State: 3}, func(e error) { ch <- e }); err != nil {
		t.Fatal(err)
	}
	if err := <-ch; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		appendPair(t, l, int32(50+i))
	}
	names, _ = fs.List()
	if names[0] == firstSeg[0] {
		t.Fatalf("resolved segment %s survived retention: %v", firstSeg[0], names)
	}
	l.Close()
}

// TestGroupCommitBatchesSyncs: with a sync interval, many concurrent
// appends should complete with far fewer fsyncs than records.
func TestGroupCommitBatchesSyncs(t *testing.T) {
	fs := NewMemFS()
	l, _ := openMem(t, fs, func(o *Options) { o.SyncEvery = 2 * time.Millisecond })
	const n = 200
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seq, err := l.AppendSubmit(&SubmitRecord{Items: []int32{int32(i)}, Compute: 1, Deadline: 1})
			if err != nil {
				errs <- err
				return
			}
			done := make(chan error, 1)
			if err := l.AppendOutcome(&OutcomeRecord{Seq: seq, State: 3}, func(e error) { done <- e }); err != nil {
				errs <- err
				return
			}
			errs <- <-done
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	st := l.Stats()
	if st.Syncs >= n {
		t.Fatalf("no group commit: %d syncs for %d pairs", st.Syncs, n)
	}
	l.Close()

	l2, rec := openMem(t, fs, nil)
	l2.Close()
	if rec.Submits != n || len(rec.Unresolved) != 0 {
		t.Fatalf("recovery: %+v", rec)
	}
}

// failFile fails Sync while the shared flag is set.
type failFile struct {
	File
	fail *atomic.Bool
}

func (f failFile) Sync() error {
	if f.fail.Load() {
		return errors.New("injected sync failure")
	}
	return f.File.Sync()
}

// TestSyncFailureIsSticky: a sync error fails the pending callbacks and
// every subsequent append.
func TestSyncFailureIsSticky(t *testing.T) {
	fs := NewMemFS()
	var fail atomic.Bool
	l, _ := openMem(t, fs, func(o *Options) {
		o.WrapFile = func(name string, f File) File { return failFile{File: f, fail: &fail} }
	})
	appendPair(t, l, 1) // healthy sync first
	fail.Store(true)
	seq, err := l.AppendSubmit(&SubmitRecord{Items: []int32{2}, Compute: 1, Deadline: 1})
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan error, 1)
	if err := l.AppendOutcome(&OutcomeRecord{Seq: seq, State: 3}, func(e error) { ch <- e }); err != nil {
		t.Fatal(err)
	}
	if err := <-ch; err == nil {
		t.Fatal("durability callback got nil after failed sync")
	}
	if _, err := l.AppendSubmit(&SubmitRecord{Items: []int32{3}, Compute: 1, Deadline: 1}); err == nil {
		t.Fatal("append accepted after sticky failure")
	}
	if !l.Stats().Failed {
		t.Fatalf("stats not failed: %+v", l.Stats())
	}
	l.Close()
}

// TestSubmitAppendDoesNotWakeSyncer: nothing waits on a lone submit
// record, so appending one costs no fsync — it stays buffered until the
// next outcome append (whose callback then covers it, FIFO) or an
// explicit Sync.
func TestSubmitAppendDoesNotWakeSyncer(t *testing.T) {
	fs := NewMemFS()
	l, _ := openMem(t, fs, nil)
	defer l.Close()
	appendPair(t, l, 1) // the syncer is up and has flushed once
	before := l.Stats()

	var seqs []uint64
	for i := 0; i < 3; i++ {
		seq, err := l.AppendSubmit(&SubmitRecord{Items: []int32{int32(10 + i)}, Compute: time.Millisecond, Deadline: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	time.Sleep(20 * time.Millisecond) // a kicked syncer would have flushed by now
	if st := l.Stats(); st.Syncs != before.Syncs || st.PendingSync == 0 || st.Unresolved != 0 {
		t.Fatalf("after submit-only appends: %+v (before: syncs %d); want no sync, bytes pending, nothing registered", st, before.Syncs)
	}

	// The next outcome's durability callback makes all three durable.
	ch := make(chan error, 1)
	if err := l.AppendOutcome(&OutcomeRecord{Seq: seqs[0], State: 3}, func(err error) { ch <- err }); err != nil {
		t.Fatal(err)
	}
	if err := <-ch; err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Syncs != before.Syncs+1 || st.PendingSync != 0 || st.Unresolved != 2 {
		t.Fatalf("after the outcome's callback: %+v; want one more sync, nothing pending, two unresolved", st)
	}

	// So does Sync, with no outcome in sight.
	last, err := l.AppendSubmit(&SubmitRecord{Items: []int32{20}, Compute: time.Millisecond, Deadline: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.PendingSync != 0 || st.Unresolved != 3 {
		t.Fatalf("after Sync: %+v; want nothing pending, three unresolved", st)
	}
	fs.Crash()
	rec, err := Scan(fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for _, u := range rec.Unresolved {
		got = append(got, u.Seq)
	}
	if want := []uint64{seqs[1], seqs[2], last}; !reflect.DeepEqual(got, want) {
		t.Fatalf("unresolved after crash: %v, want %v", got, want)
	}
}
