package core

// Consistency tests: the engine maintains an actual versioned store with
// undo logging (internal/db) and can record its operation history
// (internal/history). These tests verify, end-to-end, that every policy's
// schedule is conflict serializable and that the final database state is
// exactly what the committed transactions produced — i.e. that wound-based
// restart really leaves no trace of aborted work.

import (
	"testing"

	"repro/internal/db"
	"repro/internal/txn"
)

func historyConfig(p PolicyKind, seed int64, diskRes bool) Config {
	var cfg Config
	if diskRes {
		cfg = DiskConfig(p, seed)
		cfg.Workload.Count = 80
		cfg.Workload.ArrivalRate = 5
	} else {
		cfg = MainMemoryConfig(p, seed)
		cfg.Workload.Count = 150
		cfg.Workload.ArrivalRate = 8
	}
	cfg.CheckInvariants = true
	cfg.RecordHistory = true
	return cfg
}

// TestSerializabilityAllPolicies: the committed history of every policy is
// conflict serializable, main memory and disk resident.
func TestSerializabilityAllPolicies(t *testing.T) {
	for _, p := range Policies() {
		p := p
		t.Run(string(p), func(t *testing.T) {
			for _, diskRes := range []bool{false, true} {
				if p == PCP && diskRes {
					continue // main-memory only
				}
				e, err := New(historyConfig(p, 3, diskRes))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := e.Run(); err != nil {
					t.Fatal(err)
				}
				h := e.History()
				if h.Committed() != len(e.txns()) {
					t.Fatalf("history committed %d/%d", h.Committed(), len(e.txns()))
				}
				if ok, cycle := h.Serializable(); !ok {
					t.Fatalf("disk=%v: history not serializable, cycle %v", diskRes, cycle)
				}
				if _, err := h.SerialOrder(); err != nil {
					t.Fatalf("disk=%v: %v", diskRes, err)
				}
			}
		})
	}
}

// TestSerializabilityWithReadLocks: shared locks added (extension).
func TestSerializabilityWithReadLocks(t *testing.T) {
	for _, p := range []PolicyKind{CCA, EDFHP, EDFWP} {
		cfg := historyConfig(p, 7, false)
		cfg.Workload.ReadFraction = 0.5
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if ok, cycle := e.History().Serializable(); !ok {
			t.Fatalf("%s: read-lock history not serializable, cycle %v", p, cycle)
		}
	}
}

// TestFinalStateMatchesHistory: the store's final value of every item is
// the last committed write in the recorded history — aborted writes were
// fully undone.
func TestFinalStateMatchesHistory(t *testing.T) {
	for _, p := range []PolicyKind{CCA, EDFHP, EDFWP, EDFCR} {
		e, err := New(historyConfig(p, 5, false))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		lastWriter := map[txn.Item]int{}
		for _, op := range e.History().Ops() {
			if op.Kind == 1 { // history.Write
				lastWriter[op.Item] = op.Txn
			}
		}
		for it := 0; it < e.cfg.Workload.DBSize; it++ {
			got := e.store.Get(txn.Item(it))
			want, written := lastWriter[txn.Item(it)]
			if !written {
				if got.Writer != -1 {
					t.Fatalf("%s: item %d written by T%d but history has no write", p, it, got.Writer)
				}
				continue
			}
			if int(got.Writer) != want {
				t.Fatalf("%s: item %d final writer T%d, history says T%d", p, it, got.Writer, want)
			}
		}
	}
}

// TestStoreCleanAfterRun: no undo logs survive the run.
func TestStoreCleanAfterRun(t *testing.T) {
	e, err := New(historyConfig(CCA, 9, true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.store.ActiveWriters() != 0 {
		t.Fatal("store has active writers after drain")
	}
	_, writes, commits, aborts := e.store.Stats()
	if writes == 0 || commits != uint64(len(e.txns())) {
		t.Fatalf("stats: %d writes, %d commits", writes, commits)
	}
	// Aborts in the store correspond to engine restarts plus the final
	// no-op Abort calls... store.Abort is called once per wound.
	_ = aborts
}

// TestHistoryRecordsRestarts: the history's discarded-operation counter
// reflects wound-induced restarts.
func TestHistoryRecordsRestarts(t *testing.T) {
	e, err := New(historyConfig(EDFHP, 3, false))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts > 0 && e.History().AbortedOps() == 0 {
		t.Fatal("restarts occurred but no operations were discarded")
	}
}

// TestSerialOrderAgreesWithStore: replaying the equivalent serial order's
// writes yields the same final state as the concurrent execution — the
// definition of serializability made executable.
func TestSerialOrderAgreesWithStore(t *testing.T) {
	e, err := New(historyConfig(CCA, 11, false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	order, err := e.History().SerialOrder()
	if err != nil {
		t.Fatal(err)
	}
	// Replay: execute each transaction's writes serially in that order.
	replay := db.New(e.cfg.Workload.DBSize)
	for _, id := range order {
		spec := e.txns()[id].spec
		for _, it := range spec.Items {
			replay.Write(db.TxnID(id), 0, it)
		}
		replay.Commit(db.TxnID(id))
	}
	for it := 0; it < e.cfg.Workload.DBSize; it++ {
		got := e.store.Get(txn.Item(it)).Writer
		want := replay.Get(txn.Item(it)).Writer
		if got != want {
			t.Fatalf("item %d: concurrent writer T%d, serial replay writer T%d", it, got, want)
		}
	}
}

// txns returns the runtime transactions (indexed by ID).
func (e *Engine) txns() []*Txn { return e.all }
