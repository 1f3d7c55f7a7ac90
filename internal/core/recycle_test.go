package core

// Regression tests for the ID-recycling / stable-ID latch: the wall-clock
// service reuses retired transaction IDs to keep its tables bounded, but
// the oracle's theorems (and a trace recorder's event stream) key state by
// ID. The latch has two halves: attaching an ID-keyed consumer pins IDs
// for the engine's lifetime, and attaching one after an ID was already
// reused fails fast instead of silently conflating transactions.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/workload"
)

// serviceEngine builds an engine the way NewService does (no pre-generated
// workload) but driven in virtual time, so the recycle flow is exercised
// deterministically without a Realtime driver.
func serviceEngine(t *testing.T) *Engine {
	t.Helper()
	cfg := MainMemoryConfig(CCA, 1)
	e, err := NewShardEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.retires = true
	e.StartRun()
	return e
}

// submitAndFinish runs one submission to its terminal state and retires it,
// the way a service engine's answer path does.
func submitAndFinish(t *testing.T, e *Engine, item int) int {
	t.Helper()
	now := time.Duration(e.sim.Now())
	spec := &workload.Spec{
		Items:    []txn.Item{txn.Item(item)},
		Compute:  time.Millisecond,
		Arrival:  now,
		Deadline: now + 50*time.Millisecond,
	}
	tp := e.SubmitSpec(spec, func(ServiceOutcome, error) {})
	id := tp.id()
	if err := e.StepTo(e.sim.Now() + sim.Time(100*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if tp.state != StateCommitted {
		t.Fatalf("submission T%d ended %v, want committed", id, tp.state)
	}
	return id
}

func TestEnableOracleFailsFastAfterRecycle(t *testing.T) {
	e := serviceEngine(t)
	first := submitAndFinish(t, e, 3)
	second := submitAndFinish(t, e, 7)
	if first != second {
		t.Fatalf("expected ID reuse (got %d then %d): recycle path not exercised", first, second)
	}
	if !e.idRecycled {
		t.Fatal("idRecycled not latched after reuse")
	}
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("EnableOracle after recycling did not fail fast")
		}
		if !strings.Contains(p.(string), "recycled") {
			t.Fatalf("unexpected panic: %v", p)
		}
	}()
	e.EnableOracle()
}

func TestSetRecorderFailsFastAfterRecycle(t *testing.T) {
	e := serviceEngine(t)
	submitAndFinish(t, e, 3)
	submitAndFinish(t, e, 7)
	defer func() {
		if recover() == nil {
			t.Fatal("SetRecorder after recycling did not fail fast")
		}
	}()
	e.SetRecorder(&trace.Buffer{Cap: 4})
}

// TestOracleLatchesRecyclingOff: enable the oracle first, then submit —
// IDs must never be reused, and detaching a recorder later must not
// re-open recycling (the latch outlives the consumer).
func TestOracleLatchesRecyclingOff(t *testing.T) {
	e := serviceEngine(t)
	e.EnableOracle()
	a := submitAndFinish(t, e, 3)
	b := submitAndFinish(t, e, 7)
	if a == b {
		t.Fatalf("IDs recycled (both %d) despite the oracle", a)
	}
	if len(e.freeTxns) != 0 {
		t.Fatalf("retired transactions queued for reuse despite the oracle: %d", len(e.freeTxns))
	}
}

func TestRecorderDetachKeepsIDsPinned(t *testing.T) {
	e := serviceEngine(t)
	e.SetRecorder(&trace.Buffer{Cap: 64})
	a := submitAndFinish(t, e, 3)
	e.SetRecorder(nil) // detach: the latch must survive
	b := submitAndFinish(t, e, 7)
	if a == b {
		t.Fatalf("IDs recycled (both %d) after the recorder detached", a)
	}
	if !e.idsPinned {
		t.Fatal("idsPinned cleared by SetRecorder(nil)")
	}
}

// --- object reuse -----------------------------------------------------------
//
// A retired service transaction's object — with its ID, spec storage and
// event callbacks — is handed to a later submission. Whatever still points
// at the object from its previous life (a SubmitHandle, its firm-deadline
// event, the completion of a disk access it left in service) must not act
// on the new occupant.

// reuseSub is one submission of the reuse property run.
type reuseSub struct {
	t         *Txn
	gen       uint64
	id        int
	deadline  time.Duration
	answers   int
	cancelled bool // Cancel was issued while it was live
}

// reuseStats is what a reuse property run saw.
type reuseStats struct {
	subs, objects, reused, ids int
	staleCancels               int // stale handle cancelled while the object had a live new occupant
	staleDeadlines             int // object reused while its previous occupant's deadline was still ahead
	ioAtRetire                 int // cancelled, so retired, with a disk access in service
}

// runReuse drives a virtual-time service engine with random arrivals,
// random cancellations of live and of long-answered submissions, under
// CheckInvariants, and checks on the way: every Done fires exactly once;
// nobody is dropped without a Cancel of its own before its own deadline;
// a stale Cancel changes nothing; the free list never exceeds the peak live
// set.
func runReuse(t *testing.T, cfg Config, seed int64, prepare func(*Engine)) reuseStats {
	t.Helper()
	cfg.CheckInvariants = true
	e, err := NewShardEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.retires = true
	prepare(e)
	e.StartRun()
	rng := rand.New(rand.NewSource(seed))
	disk := cfg.Workload.DiskAccessProb > 0

	var all []*reuseSub
	cur := make(map[*Txn]*reuseSub) // each object's latest occupant
	ids := make(map[int]bool)
	var st reuseStats
	peak := 0
	for step := 0; step < 1500; step++ {
		if err := e.StepTo(e.sim.Now() + sim.Time(rng.Intn(3000))*sim.Time(time.Microsecond)); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(100) < 35 {
			now := e.now()
			s := &reuseSub{deadline: now + time.Duration(2+rng.Intn(30))*time.Millisecond}
			spec := workload.Spec{Compute: time.Millisecond, Arrival: now, Deadline: s.deadline}
			for _, it := range rng.Perm(cfg.Workload.DBSize)[:2+rng.Intn(3)] {
				spec.Items = append(spec.Items, txn.Item(it))
				if disk {
					spec.NeedsIO = append(spec.NeedsIO, rng.Intn(3) == 0)
				}
			}
			s.t = e.SubmitSpec(&spec, func(o ServiceOutcome, err error) {
				s.answers++
				if err != nil {
					t.Errorf("T%d answered with %v", s.id, err)
				}
				if o.State == StateDropped && !s.cancelled && (!cfg.FirmDeadlines || e.now() < s.deadline) {
					t.Errorf("T%d dropped at %v, deadline %v, never cancelled: something of the object's previous occupant reached it", s.id, e.now(), s.deadline)
				}
			})
			s.gen, s.id = s.t.gen, s.t.id()
			if prev := cur[s.t]; prev != nil {
				st.reused++
				if prev.answers != 1 {
					t.Fatalf("T%d's object reused with %d answers delivered", prev.id, prev.answers)
				}
				if prev.deadline > now && s.deadline > prev.deadline {
					st.staleDeadlines++
				}
			} else {
				st.objects++
			}
			cur[s.t] = s
			ids[s.id] = true
			all = append(all, s)
			peak = max(peak, e.live.n)
		}
		if len(all) > 0 && rng.Intn(100) < 20 {
			s := all[rng.Intn(len(all))]
			if disk && rng.Intn(4) == 0 {
				// Aim at a transaction whose disk access is in service: its
				// completion then arrives after the object has moved on.
				for c := e.live.head; c != nil; c = c.liveNext {
					if c.ioReq != nil && c.ioReq.InService() {
						s = cur[c]
						break
					}
				}
			}
			if s.answers == 0 {
				s.cancelled = true
				if s.t.ioReq != nil && s.t.ioReq.InService() {
					st.ioAtRetire++
				}
				e.cancelServiceTxn(s.t, s.gen)
				if s.answers != 1 {
					t.Fatalf("cancelling live T%d delivered %d answers", s.id, s.answers)
				}
			} else {
				dropped, state, live := e.dropped, s.t.state, e.live.n
				e.cancelServiceTxn(s.t, s.gen)
				if e.dropped != dropped || s.t.state != state || e.live.n != live {
					t.Fatalf("stale handle of T%d acted on the object's occupant T%d (%v → %v)", s.id, cur[s.t].id, state, s.t.state)
				}
				if cur[s.t] != s && s.t.inLive {
					st.staleCancels++
				}
			}
		}
		if n := len(e.freeTxns); n > peak || (!e.idsPinned && n+e.live.n != st.objects) {
			t.Fatalf("step %d: %d free + %d live objects of %d created, peak live %d", step, n, e.live.n, st.objects, peak)
		}
	}
	if err := e.StepTo(e.sim.Now() + sim.Time(time.Minute)); err != nil {
		t.Fatal(err)
	}
	for _, s := range all {
		if s.answers != 1 {
			t.Errorf("T%d answered %d times", s.id, s.answers)
		}
	}
	if e.live.n != 0 || e.PendingEvents() != 0 {
		t.Errorf("drained engine keeps %d live transactions, %d calendar events", e.live.n, e.PendingEvents())
	}
	st.subs, st.ids = len(all), len(ids)
	return st
}

func TestTxnReuseProperty(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for _, pol := range []PolicyKind{CCA, EDFHP} {
		for _, disk := range []bool{false, true} {
			for _, firm := range []bool{false, true} {
				for seed := int64(1); seed <= int64(seeds); seed++ {
					name := fmt.Sprintf("%s/disk=%v/firm=%v/seed=%d", pol, disk, firm, seed)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						cfg := MainMemoryConfig(pol, seed)
						if disk {
							cfg = DiskConfig(pol, seed)
							cfg.Workload.DiskAccessTime = 5 * time.Millisecond
							cfg.NumDisks = 2
						}
						cfg.FirmDeadlines = firm
						st := runReuse(t, cfg, seed, func(*Engine) {})
						t.Logf("%d submissions on %d objects (%d reuses, %d IDs); %d stale cancels hit a live occupant, %d reuses under a pending deadline, %d retired with IO in service",
							st.subs, st.objects, st.reused, st.ids, st.staleCancels, st.staleDeadlines, st.ioAtRetire)
						if st.reused == 0 || st.ids != st.objects || st.staleCancels == 0 ||
							(firm && st.staleDeadlines == 0) || (disk && st.ioAtRetire == 0) {
							t.Errorf("run did not exercise reuse on every path")
						}
					})
				}
			}
		}
	}
}

// TestPinnedEngineReusesNoObjects: with an ID-keyed consumer attached,
// objects are as fresh as IDs — one of each per submission, nothing queued
// for reuse — under the same random run.
func TestPinnedEngineReusesNoObjects(t *testing.T) {
	for name, pin := range map[string]func(*Engine){
		"oracle":   func(e *Engine) { e.EnableOracle() },
		"recorder": func(e *Engine) { e.SetRecorder(&trace.Buffer{Cap: 64}) },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := MainMemoryConfig(CCA, 3)
			cfg.FirmDeadlines = true
			var eng *Engine
			st := runReuse(t, cfg, 3, func(e *Engine) { pin(e); eng = e })
			if st.reused != 0 || st.objects != st.subs || st.ids != st.subs || len(eng.freeTxns) != 0 {
				t.Errorf("%d submissions: %d objects, %d IDs, %d reuses, %d on the free list; want one object and one ID each",
					st.subs, st.objects, st.ids, st.reused, len(eng.freeTxns))
			}
		})
	}
}

// TestStaleDiskCompletionSkipsNewOccupant builds the one case the stale
// request check (t.ioReq != req) cannot tell apart once objects are reused:
// A is dropped with its access in service on disk 0 and retires; B takes
// over the object, starts its own access on disk 1 and is wounded while that
// one is in service, so B waits in StateAborting for disk 1 (paper §5). A's
// completion arrives first. It must not release B.
func TestStaleDiskCompletionSkipsNewOccupant(t *testing.T) {
	cfg := DiskConfig(EDFHP, 1)
	cfg.NumDisks = 2
	cfg.CheckInvariants = true
	e, err := NewShardEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.retires = true
	e.StartRun()
	access := cfg.Workload.DiskAccessTime
	submit := func(item txn.Item, io bool, deadline time.Duration) *Txn {
		now := e.now()
		return e.SubmitSpec(&workload.Spec{
			Items: []txn.Item{item}, NeedsIO: []bool{io},
			Compute: time.Millisecond, Arrival: now, Deadline: now + deadline,
		}, func(ServiceOutcome, error) {})
	}
	step := func(to time.Duration) {
		t.Helper()
		if err := e.StepTo(sim.Time(to)); err != nil {
			t.Fatal(err)
		}
	}

	a := submit(0, true, time.Second) // disk 0 busy until access
	if a.state != StateIOWait || !a.ioReq.InService() {
		t.Fatalf("A is %v, want its access in service", a.state)
	}
	step(access / 5)
	e.cancelServiceTxn(a, a.gen)
	b := submit(1, true, time.Second) // disk 1 busy until access/5 + access
	if b != a {
		t.Fatal("B did not take over A's object")
	}
	step(2 * access / 5)
	c := submit(1, false, 100*time.Millisecond) // earlier deadline: wounds B
	if b.state != StateAborting {
		t.Fatalf("B is %v after the wound, want aborting until disk 1 releases", b.state)
	}
	step(access + access/10) // A's completion has fired, B's has not
	if c.state != StateCommitted {
		t.Fatalf("C is %v, want committed", c.state)
	}
	if b.state != StateAborting {
		t.Fatalf("B is %v: the completion of A's access released it while its own is in service", b.state)
	}
	step(time.Second)
	if b.state != StateCommitted || b.restarts != 1 {
		t.Fatalf("B ended %v after %d restarts, want committed after 1", b.state, b.restarts)
	}
}

// TestStaleSubmitHandleSparesNewOccupant is the same guarantee through the
// real handle on the wall-clock service: a SubmitHandle kept past its answer
// is inert, also once the object runs somebody else's transaction.
func TestStaleSubmitHandleSparesNewOccupant(t *testing.T) {
	s, stop := startService(t, MainMemoryConfig(CCA, 1), ServiceOptions{})
	defer stop()
	answers := make(chan ServiceOutcome, 2)
	submit := func(compute time.Duration) SubmitHandle {
		req := simpleReq(3)
		req.Compute, req.Deadline = compute, 10*compute
		return s.SubmitBatch([]Submission{{Req: req, Done: func(o ServiceOutcome, err error) {
			if err != nil {
				t.Errorf("answered with %v", err)
			}
			answers <- o
		}}})[0]
	}
	first := submit(time.Millisecond)
	if o := <-answers; o.State != StateCommitted {
		t.Fatalf("first submission ended %v", o.State)
	}
	second := submit(time.Hour) // stays live until cancelled
	if second.t != first.t || second.gen == first.gen {
		t.Fatalf("second submission did not take over the first's object at a new generation")
	}
	first.Cancel()
	if st, ok := s.Stats(); !ok || st.Live != 1 || st.Result.Dropped != 0 {
		t.Fatalf("after the stale Cancel: live %d, dropped %d (ok=%v); want the new occupant untouched", st.Live, st.Result.Dropped, ok)
	}
	second.Cancel()
	if o := <-answers; o.State != StateDropped {
		t.Fatalf("second submission ended %v after its own Cancel, want dropped", o.State)
	}
}
