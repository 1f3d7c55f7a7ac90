package db

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/txn"
)

func TestNewStoreInitialValues(t *testing.T) {
	s := New(5)
	if s.size() != 5 {
		t.Fatalf("Size = %d", s.size())
	}
	for i := txn.Item(0); i < 5; i++ {
		v := s.Get(i)
		if v.Writer != -1 || v.seq != 0 {
			t.Fatalf("item %d initial value = %+v", i, v)
		}
	}
}

func TestNewRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestWriteInstallsVersion(t *testing.T) {
	s := New(3)
	v := s.Write(7, 2, 1)
	if v.Writer != 7 || v.incarnation != 2 || v.seq != 1 {
		t.Fatalf("written value = %+v", v)
	}
	if s.Get(1) != v {
		t.Fatal("Get does not reflect write")
	}
	if s.Pending(7) != 1 {
		t.Fatalf("Pending = %d", s.Pending(7))
	}
}

func TestCommitMakesWritesPermanent(t *testing.T) {
	s := New(3)
	s.Write(1, 0, 0)
	s.Write(1, 0, 2)
	if n := s.Commit(1); n != 2 {
		t.Fatalf("Commit returned %d", n)
	}
	if s.Pending(1) != 0 || s.ActiveWriters() != 0 {
		t.Fatal("undo log not discarded")
	}
	if s.Get(0).Writer != 1 || s.Get(2).Writer != 1 {
		t.Fatal("committed values lost")
	}
}

func TestAbortRestoresBeforeImages(t *testing.T) {
	s := New(3)
	s.Write(1, 0, 0)
	s.Commit(1)
	base := s.Get(0)

	s.Write(2, 0, 0)
	s.Write(2, 0, 1)
	s.Write(2, 0, 0) // second write of same item by same txn
	if n := s.Abort(2); n != 3 {
		t.Fatalf("Abort undid %d writes, want 3", n)
	}
	if s.Get(0) != base {
		t.Fatalf("item 0 = %+v after abort, want %+v", s.Get(0), base)
	}
	if s.Get(1).Writer != -1 {
		t.Fatal("item 1 not restored to initial value")
	}
}

func TestAbortUnknownTxnIsNoop(t *testing.T) {
	s := New(2)
	if n := s.Abort(99); n != 0 {
		t.Fatalf("Abort of unknown txn undid %d", n)
	}
}

func TestReadDoesNotLog(t *testing.T) {
	s := New(2)
	s.Read(1, 0)
	if s.Pending(1) != 0 {
		t.Fatal("read created undo records")
	}
	r, w, _, _ := s.Stats()
	if r != 1 || w != 0 {
		t.Fatalf("stats = %d reads %d writes", r, w)
	}
}

func TestSeqMonotone(t *testing.T) {
	s := New(2)
	var last uint64
	for i := 0; i < 10; i++ {
		v := s.Write(TxnID(i%3), 0, txn.Item(i%2))
		if v.seq <= last {
			t.Fatal("sequence numbers not strictly increasing")
		}
		last = v.seq
		s.Commit(TxnID(i % 3))
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range access did not panic")
		}
	}()
	s.Write(1, 0, 5)
}

func TestCheckClean(t *testing.T) {
	s := New(2)
	s.Write(1, 0, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("CheckClean passed with pending undo")
			}
		}()
		s.CheckClean()
	}()
	s.Commit(1)
	s.CheckClean() // must not panic
}

func TestSnapshotIsCopy(t *testing.T) {
	s := New(2)
	snap := s.snapshot()
	s.Write(1, 0, 0)
	s.Commit(1)
	if snap[0].Writer != -1 {
		t.Fatal("snapshot aliased live values")
	}
}

// Property: interleaved writers with strict per-item exclusivity — after
// all transactions finish, each item's value is the last *committed* write
// and aborted writes leave no trace.
func TestQuickUndoCorrectness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const items = 6
		s := New(items)
		// Model: item -> owning txn (exclusive), plus a reference copy of
		// the expected committed value.
		owner := map[txn.Item]TxnID{}
		owned := map[TxnID][]txn.Item{}
		expect := make([]Value, items)
		shadow := make([]Value, items) // value that Abort must restore to
		for i := range expect {
			expect[i] = Value{Writer: -1}
			shadow[i] = Value{Writer: -1}
		}
		for op := 0; op < 200; op++ {
			id := TxnID(rng.Intn(4))
			switch rng.Intn(3) {
			case 0: // write an unowned item
				it := txn.Item(rng.Intn(items))
				if o, held := owner[it]; held && o != id {
					continue // exclusivity: skip
				}
				owner[it] = id
				owned[id] = append(owned[id], it)
				s.Write(id, 0, it)
			case 1: // commit
				for _, it := range owned[id] {
					shadow[it] = s.Get(it)
					expect[it] = s.Get(it)
					delete(owner, it)
				}
				owned[id] = nil
				s.Commit(id)
			case 2: // abort
				for _, it := range owned[id] {
					delete(owner, it)
				}
				owned[id] = nil
				s.Abort(id)
				for it := 0; it < items; it++ {
					if _, held := owner[txn.Item(it)]; !held {
						if s.Get(txn.Item(it)) != shadow[it] {
							return false
						}
					}
				}
			}
		}
		// Finish everyone by abort; final state must equal committed state.
		for id := TxnID(0); id < 4; id++ {
			s.Abort(id)
		}
		for it := 0; it < items; it++ {
			if s.Get(txn.Item(it)) != expect[it] {
				return false
			}
		}
		s.CheckClean()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
