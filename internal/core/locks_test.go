package core

// Lock-table tests: grants, conflicts, the priority-ordered wait queues,
// the waits-for graph and the lock invariant, driven by hand on an engine's
// conflict index (lockFixture), plus random shared-lock engine runs that
// hold the lock invariant at every scheduling point.

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/workload"
)

// lockFixture is an engine whose transactions are placed by hand — locks
// granted, requests queued, locks released — without running the calendar.
type lockFixture struct {
	e  *Engine
	tx []*Txn
}

// lockTxn is one fixture transaction: the items it accesses, all in one
// mode.
type lockTxn struct {
	items []txn.Item
	read  bool
}

func newLockFixture(t *testing.T, txns ...lockTxn) *lockFixture {
	t.Helper()
	p := workload.BaseMainMemory()
	p.DBSize = 32
	wl := &workload.Workload{Params: p}
	for i, lt := range txns {
		s := workload.Spec{ID: i, Deadline: time.Second, Items: lt.items, Compute: msec}
		if lt.read {
			s.Reads = make([]bool, len(lt.items))
			for j := range s.Reads {
				s.Reads[j] = true
			}
		}
		wl.Txns = append(wl.Txns, s)
	}
	cfg := scenarioConfig(EDFWP, p.DBSize, false)
	e, err := NewWithWorkload(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range e.all {
		tx.state = StateReady
		e.live.push(tx)
	}
	return &lockFixture{e: e, tx: e.all}
}

// at points transaction id's current update at item it.
func (f *lockFixture) at(id int, it txn.Item) *Txn {
	tx := f.tx[id]
	tx.next = slices.Index(tx.Spec.Items, it)
	return tx
}

// acquire takes item it for id when no holder blocks it, as startItem does
// once its conflict set is empty, and reports whether it did.
func (f *lockFixture) acquire(id int, it txn.Item) bool {
	tx := f.at(id, it)
	_, read := tx.access()
	if len(f.e.conflicting(nil, tx, it, read)) > 0 {
		return false
	}
	f.e.hasAcquired(tx, it)
	return true
}

// block queues id on item it at priority pr, as Engine.block does.
func (f *lockFixture) block(id int, it txn.Item, pr float64) {
	tx := f.at(id, it)
	tx.priority = pr
	tx.state = StateLockWait
	f.e.enqueue(tx)
}

// release ends id (a commit under strict 2PL) and returns the IDs woken.
func (f *lockFixture) release(id int) []int {
	return f.woken(func() {
		f.e.releaseLocks(f.tx[id])
		f.tx[id].has.clear()
	})
}

// cancel withdraws id's queued request and returns the IDs woken.
func (f *lockFixture) cancel(id int) []int {
	return f.woken(func() { f.e.cancelWait(f.tx[id]) })
}

// woken runs fn and returns the IDs it woke, in wake order.
func (f *lockFixture) woken(fn func()) []int {
	buf := &trace.Buffer{Filter: func(ev trace.Event) bool { return ev.Kind == trace.Wake }}
	f.e.SetRecorder(buf)
	fn()
	f.e.SetRecorder(nil)
	var got []int
	for _, ev := range buf.Events() {
		got = append(got, ev.Txn)
	}
	return got
}

func (f *lockFixture) holds(id int, it txn.Item) bool { return f.tx[id].has.contains(it) }

func (f *lockFixture) queue(it txn.Item) []int {
	var ids []int
	if f.e.waitq != nil {
		for _, w := range f.e.waitq[int(it)] {
			ids = append(ids, w.ID())
		}
	}
	return ids
}

func ids(ts []*Txn) []int {
	out := make([]int, len(ts))
	for i, t := range ts {
		out[i] = t.ID()
	}
	return out
}

// TestLockGrantAndSelfSkip: a free item is granted, and its holder finds
// no conflict with itself — the woken transaction's second pass over the
// item it was granted.
func TestLockGrantAndSelfSkip(t *testing.T) {
	f := newLockFixture(t, lockTxn{items: []txn.Item{10}})
	if !f.acquire(0, 10) || !f.holds(0, 10) {
		t.Fatal("free item not granted")
	}
	if !f.acquire(0, 10) {
		t.Fatal("holder conflicts with itself")
	}
	if got := f.e.ci.items[10].has.extra; len(got) != 0 {
		t.Fatalf("holder listed %d extra times", len(got))
	}
	f.e.verifyLocks()
}

func TestLockWriteExcludesWrite(t *testing.T) {
	f := newLockFixture(t, lockTxn{items: []txn.Item{10}}, lockTxn{items: []txn.Item{10}})
	f.acquire(0, 10)
	if f.acquire(1, 10) {
		t.Fatal("conflicting write granted")
	}
	if got := ids(f.e.conflicting(nil, f.tx[1], 10, false)); !slices.Equal(got, []int{0}) {
		t.Fatalf("conflicting = %v, want [0]", got)
	}
}

func TestLockSharedReaders(t *testing.T) {
	r := lockTxn{items: []txn.Item{5}, read: true}
	f := newLockFixture(t, r, r, r, lockTxn{items: []txn.Item{5}})
	for id := 0; id < 3; id++ {
		if !f.acquire(id, 5) {
			t.Fatalf("reader T%d denied", id)
		}
	}
	if f.acquire(3, 5) {
		t.Fatal("write granted alongside readers")
	}
	if got := ids(f.e.conflicting(nil, f.tx[3], 5, false)); !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("writer conflicts with %v, want all 3 readers in ID order", got)
	}
	if len(f.e.conflicting(nil, f.tx[0], 5, true)) != 0 {
		t.Fatal("reader conflicts with readers")
	}
	f.e.verifyLocks()
}

func TestLockWriterThenReadDenied(t *testing.T) {
	f := newLockFixture(t, lockTxn{items: []txn.Item{7}}, lockTxn{items: []txn.Item{7}, read: true})
	f.acquire(0, 7)
	if f.acquire(1, 7) {
		t.Fatal("read granted against writer")
	}
}

func TestLockQueueOrderByPriority(t *testing.T) {
	w := lockTxn{items: []txn.Item{3}}
	f := newLockFixture(t, w, w, w, w)
	f.acquire(0, 3)
	f.block(1, 3, 5)
	f.block(2, 3, 9)
	f.block(3, 3, 5)
	// Highest priority first, FIFO on ties.
	if got := f.queue(3); !slices.Equal(got, []int{2, 1, 3}) {
		t.Fatalf("queue = %v, want [2 1 3]", got)
	}
	// The order is the enqueue-time priority: a later change does not move it.
	f.tx[3].priority = 100
	if got := f.queue(3); !slices.Equal(got, []int{2, 1, 3}) {
		t.Fatalf("queue = %v after a priority change, want [2 1 3]", got)
	}
	f.e.verifyLocks()
}

// TestLockDoubleQueueCaught: a transaction waits for one item at a time;
// a second queued request for it is an invariant violation.
func TestLockDoubleQueueCaught(t *testing.T) {
	w := lockTxn{items: []txn.Item{3, 4}}
	f := newLockFixture(t, w, w)
	f.acquire(0, 3)
	f.acquire(0, 4)
	f.block(1, 3, 1)
	f.e.verifyLocks()
	f.block(1, 4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("a transaction queued twice passed verifyLocks")
		}
	}()
	f.e.verifyLocks()
}

// TestLockBlockedNeverDispatched: a blocked transaction cannot request a
// second lock, because the dispatcher never gives it a CPU until its
// request is granted or cancelled.
func TestLockBlockedNeverDispatched(t *testing.T) {
	w := lockTxn{items: []txn.Item{3}}
	f := newLockFixture(t, w, w)
	f.acquire(0, 3)
	f.block(1, 3, 1)
	if dispatchable(f.tx[1]) {
		t.Fatal("blocked transaction is dispatchable")
	}
	if f.release(0); !dispatchable(f.tx[1]) {
		t.Fatal("granted transaction not dispatchable")
	}
}

func TestLockReleaseGrantsWaiters(t *testing.T) {
	f := newLockFixture(t, lockTxn{items: []txn.Item{3, 4}},
		lockTxn{items: []txn.Item{3}}, lockTxn{items: []txn.Item{4}})
	f.acquire(0, 3)
	f.acquire(0, 4)
	f.block(2, 4, 1)
	f.block(1, 3, 1)
	// Grants run in ascending item order, whatever the queueing order.
	if got := f.release(0); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("woken %v, want [1 2]", got)
	}
	if !f.holds(1, 3) || !f.holds(2, 4) || f.holds(0, 3) || f.holds(0, 4) {
		t.Fatal("locks not handed over on release")
	}
	if f.e.queued != 0 || len(f.queue(3))+len(f.queue(4)) != 0 {
		t.Fatal("granted requests still queued")
	}
	f.e.verifyLocks()
}

func TestLockReleaseGrantsReaderBatch(t *testing.T) {
	r := lockTxn{items: []txn.Item{3}, read: true}
	f := newLockFixture(t, lockTxn{items: []txn.Item{3}}, r, r, lockTxn{items: []txn.Item{3}})
	f.acquire(0, 3)
	f.block(1, 3, 3)
	f.block(2, 3, 2)
	f.block(3, 3, 1)
	if got := f.release(0); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("woken %v, want the 2 readers", got)
	}
	if f.holds(3, 3) {
		t.Fatal("writer granted alongside the readers")
	}
	f.e.verifyLocks()
	// The writer is granted once both readers release.
	if got := f.release(1); len(got) != 0 {
		t.Fatalf("writer granted too early: %v", got)
	}
	if got := f.release(2); !slices.Equal(got, []int{3}) || !f.holds(3, 3) {
		t.Fatalf("woken %v, want the writer", got)
	}
	f.e.verifyLocks()
}

// TestLockReadJoinsReadersDespiteQueuedWriter: the queue is ordered by
// priority, not arrival, so a compatible reader is granted at once even
// with a writer queued (see grantWaiters).
func TestLockReadJoinsReadersDespiteQueuedWriter(t *testing.T) {
	r := lockTxn{items: []txn.Item{3}, read: true}
	f := newLockFixture(t, r, lockTxn{items: []txn.Item{3}}, r)
	f.acquire(0, 3)
	f.block(1, 3, 1)
	if !f.acquire(2, 3) {
		t.Fatal("compatible reader refused")
	}
	f.e.verifyLocks()
}

func TestLockCancelWait(t *testing.T) {
	w := lockTxn{items: []txn.Item{3}}
	f := newLockFixture(t, w, w)
	f.acquire(0, 3)
	f.block(1, 3, 0)
	if got := f.cancel(1); len(got) != 0 {
		t.Fatalf("cancel woke %v", got)
	}
	if len(f.queue(3)) != 0 || f.e.queued != 0 || f.tx[1].state != StateReady {
		t.Fatal("cancelled request still queued")
	}
	if got := f.release(0); len(got) != 0 || f.holds(1, 3) {
		t.Fatal("cancelled request granted on release")
	}
	f.e.verifyLocks()
}

// TestLockCancelWaitGrantsBlockedFollowers: a reader queued behind a writer
// on a reader-held item is granted when that writer's wait is cancelled
// (it was wounded) — otherwise it would sleep forever on an item that is
// compatible with it.
func TestLockCancelWaitGrantsBlockedFollowers(t *testing.T) {
	r := lockTxn{items: []txn.Item{3}, read: true}
	f := newLockFixture(t, r, lockTxn{items: []txn.Item{3}}, r)
	f.acquire(0, 3)
	f.block(1, 3, 5)
	// The reader queues directly behind the writer (lower priority).
	f.block(2, 3, 1)
	if got := f.cancel(1); !slices.Equal(got, []int{2}) || !f.holds(2, 3) {
		t.Fatalf("woken %v, want the blocked reader", got)
	}
	f.e.verifyLocks()
}

// TestLockCancelWaitOnHeldItemGrantsNothing: cancelling a request on an
// item with a conflicting holder grants no one.
func TestLockCancelWaitOnHeldItemGrantsNothing(t *testing.T) {
	w := lockTxn{items: []txn.Item{3}}
	f := newLockFixture(t, w, w, w)
	f.acquire(0, 3)
	f.block(1, 3, 5)
	f.block(2, 3, 1)
	if got := f.cancel(1); len(got) != 0 {
		t.Fatalf("woken %v, want none", got)
	}
	if got := f.queue(3); !slices.Equal(got, []int{2}) {
		t.Fatalf("queue = %v, want the remaining request", got)
	}
	f.e.verifyLocks()
}

// TestLockWaitsFor: a blocked transaction waits on the holders that block
// it and on every request queued ahead of it, deduplicated, in ID order.
func TestLockWaitsFor(t *testing.T) {
	r := lockTxn{items: []txn.Item{3}, read: true}
	w := lockTxn{items: []txn.Item{3}}
	f := newLockFixture(t, r, r, w, w, r)
	f.acquire(0, 3)
	f.acquire(1, 3)
	f.block(3, 3, 9)
	f.block(2, 3, 5)
	if got := ids(f.e.waitsFor(f.tx[3])); !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("waitsFor(T3) = %v, want the holders [0 1]", got)
	}
	if got := ids(f.e.waitsFor(f.tx[2])); !slices.Equal(got, []int{0, 1, 3}) {
		t.Fatalf("waitsFor(T2) = %v, want holders and the request ahead [0 1 3]", got)
	}
	// A reader queued last is blocked by no holder, only by the queue.
	f.block(4, 3, 1)
	if got := ids(f.e.waitsFor(f.tx[4])); !slices.Equal(got, []int{2, 3}) {
		t.Fatalf("waitsFor(T4) = %v, want the requests ahead [2 3]", got)
	}
	if f.e.waitsFor(f.tx[0]) != nil {
		t.Fatal("a transaction that is not blocked has waits-for edges")
	}
	f.e.verifyLocks()
}

func TestLockDetectCycleTwoWay(t *testing.T) {
	// T0 holds 10 and waits for 20; T1 holds 20 and waits for 10.
	f := newLockFixture(t, lockTxn{items: []txn.Item{10, 20}}, lockTxn{items: []txn.Item{20, 10}})
	f.acquire(0, 10)
	f.acquire(1, 20)
	f.block(0, 20, 1)
	f.block(1, 10, 1)
	got := ids(f.e.detectCycle(f.tx[0]))
	slices.Sort(got)
	if !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("cycle = %v, want {0, 1}", got)
	}
}

func TestLockDetectCycleThreeWay(t *testing.T) {
	f := newLockFixture(t, lockTxn{items: []txn.Item{10, 11}},
		lockTxn{items: []txn.Item{11, 12}}, lockTxn{items: []txn.Item{12, 10}})
	for id := 0; id < 3; id++ {
		f.acquire(id, f.tx[id].Spec.Items[0])
	}
	for id := 0; id < 3; id++ {
		f.block(id, f.tx[id].Spec.Items[1], 1)
	}
	if got := f.e.detectCycle(f.tx[1]); len(got) != 3 {
		t.Fatalf("3-cycle not found: %v", ids(got))
	}
}

func TestLockDetectCycleNone(t *testing.T) {
	w := lockTxn{items: []txn.Item{10}}
	f := newLockFixture(t, w, w)
	f.acquire(0, 10)
	f.block(1, 10, 1)
	if got := f.e.detectCycle(f.tx[1]); got != nil {
		t.Fatalf("spurious cycle %v", ids(got))
	}
}

// TestVerifyLocksCatchesSecondWriter: the mutation check for the lock
// invariant — a second writer forced onto an item must panic.
func TestVerifyLocksCatchesSecondWriter(t *testing.T) {
	w := lockTxn{items: []txn.Item{3}}
	f := newLockFixture(t, w, w)
	f.acquire(0, 3)
	f.e.verifyLocks()
	f.e.hasAcquired(f.tx[1], 3) // bypasses the conflict check
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "writers") {
			t.Fatalf("second writer: recovered %v, want a two-writer panic", r)
		}
	}()
	f.e.verifyLocks()
}

// TestVerifyLocksCatchesStall: a queue head that nothing blocks would wait
// forever, invisible to the waits-for graph.
func TestVerifyLocksCatchesStall(t *testing.T) {
	w := lockTxn{items: []txn.Item{3}}
	f := newLockFixture(t, w, w)
	f.block(1, 3, 1) // queued with no holder
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "nothing blocks it") {
			t.Fatalf("stalled request: recovered %v", r)
		}
	}()
	f.e.verifyLocks()
}

// sharedLockWorkload is genRandomWorkload with a read/write mix on every
// transaction.
func sharedLockWorkload(rng *rand.Rand) *workload.Workload {
	wl := genRandomWorkload(rng, 24, 50, false)
	for i := range wl.Txns {
		s := &wl.Txns[i]
		s.Reads = make([]bool, len(s.Items))
		for j := range s.Reads {
			s.Reads[j] = rng.Intn(2) == 0
		}
	}
	return wl
}

// TestQuickSharedLockRuns: random shared-lock workloads drain under every
// lock discipline — wound (EDF-HP, LSF-HP, CCA), wait (EDF-WP) and
// no-preemption (FCFS) — with the lock invariant checked at every
// scheduling point: one writer per item, none beside a reader, sorted
// queues, no stalled request.
func TestQuickSharedLockRuns(t *testing.T) {
	for _, pol := range []PolicyKind{EDFHP, EDFWP, LSFHP, FCFS, CCA} {
		waits := 0
		f := func(seed int64) bool {
			wl := sharedLockWorkload(rand.New(rand.NewSource(seed)))
			cfg := MainMemoryConfig(pol, seed)
			cfg.Workload = wl.Params
			cfg.CheckInvariants = true
			e, err := NewWithWorkload(cfg, wl)
			if err != nil {
				t.Log(err)
				return false
			}
			res, err := e.Run()
			if err != nil || res.Committed != len(wl.Txns) || lockedItems(e) != 0 {
				t.Logf("seed %d: %v, committed %d, %d items locked", seed, err, res.Committed, lockedItems(e))
				return false
			}
			waits += e.run.LockWaits
			return true
		}
		if err := quick.Check(f, quickConfig(40, 1)); err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if (pol == EDFHP || pol == EDFWP) && waits == 0 {
			t.Errorf("%s: no run ever blocked; the queues went untested", pol)
		}
	}
}

// TestFCFSSimultaneousArrivalsBreakTiesByID: transactions arriving at one
// instant tie under FCFS (a served batch's arrivals always do), and the tie
// breaks by ID as under EDF-HP and LSF-HP. Without it, two tied
// transactions that each took their first item on their own CPU wait on
// each other for the second, which the invariant checker reports as a
// deadlock under a static-priority HP policy.
func TestFCFSSimultaneousArrivalsBreakTiesByID(t *testing.T) {
	p := workload.BaseMainMemory()
	p.DBSize = 4
	p.Count = 2
	wl := &workload.Workload{Params: p, Txns: []workload.Spec{
		{ID: 0, Items: []txn.Item{1, 2}, Compute: time.Millisecond, Deadline: time.Second},
		{ID: 1, Items: []txn.Item{2, 1}, Compute: time.Millisecond, Deadline: time.Second},
	}}
	cfg := MainMemoryConfig(FCFS, 1)
	cfg.Workload = p
	cfg.NumCPUs = 2
	cfg.CheckInvariants = true
	e, err := NewWithWorkload(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil || res.Committed != 2 {
		t.Fatalf("run: %v, committed %d", err, res.Committed)
	}
	if e.run.Deadlocks != 0 || res.Restarts != 1 {
		t.Fatalf("%d deadlocks and %d restarts, want T0 to wound T1 once", e.run.Deadlocks, res.Restarts)
	}
}

// TestQuickNoDeadlockUnderStaticHP: with exclusive locks, EDF-HP and FCFS
// only ever wait on a holder that is higher in (priority, ID) order, so the
// waits-for graph stays acyclic; the runs must block without a single
// deadlock, simultaneous arrivals included.
func TestQuickNoDeadlockUnderStaticHP(t *testing.T) {
	for _, pol := range []PolicyKind{EDFHP, FCFS} {
		waits := 0
		f := func(seed int64) bool {
			wl := genRandomWorkload(rand.New(rand.NewSource(seed)), 24, 50, false)
			for i := range wl.Txns {
				wl.Txns[i].Reads = nil
			}
			cfg := MainMemoryConfig(pol, seed)
			cfg.Workload = wl.Params
			cfg.CheckInvariants = true
			e, err := NewWithWorkload(cfg, wl)
			if err != nil {
				return false
			}
			res, err := e.Run()
			waits += e.run.LockWaits
			return err == nil && res.Committed == len(wl.Txns) && e.run.Deadlocks == 0
		}
		if err := quick.Check(f, quickConfig(40, 1)); err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if waits == 0 {
			t.Errorf("%s: no run ever blocked", pol)
		}
	}
}
