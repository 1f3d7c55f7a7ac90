// Crash harness: the in-process kill-point matrix. Each case drives a
// real engine over a MemFS-backed WAL into a prescribed durable state —
// acked submissions (outcome fsynced before the answer), durable-but-
// unanswered submit records, a half-written record at the tail — then
// crashes it (MemFS.Crash keeps exactly the synced prefix, like SIGKILL
// plus page-cache loss), recovers twice, replays through a fresh
// server, and asserts the durability contract:
//
//   - every submission acknowledged before the crash has exactly one
//     outcome record afterwards, never marked FlagReplayed (zero
//     duplicate effects);
//   - every durable-but-unanswered submission is resolved by replay
//     with exactly one FlagReplayed outcome;
//   - the torn tail leaves no trace;
//   - scanning or recovering the same crashed log twice is
//     bit-identical.
//
// Each crashed log is then checked twice more in the shape a DirFS
// segment has after a crash — zeros after the last whole record, and
// zeros after the half-written one — and must scan to the same Recovery
// apart from the tail bookkeeping (zero_tail_bytes, truncated_bytes).
//
// The matrix re-runs under every file-fault plan. Faults shrink the
// acked set (the logger's sticky failure answers clients with
// ErrLogFailed — ambiguous, not lost), but must never cost an acked
// submission its outcome or give it a duplicate. Checksum corruption is
// the documented exception: a silently corrupted acked record is
// indistinguishable from a torn tail, so only the determinism and
// no-duplicate invariants apply there.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/shard"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/wire"
)

func crashReq(i int) core.ServiceRequest {
	// Two distinct items inside the paper's 30-item main-memory
	// database: the first lands in [0,15), the second in [15,30).
	return core.ServiceRequest{
		Items:    []txn.Item{txn.Item(i % 15), txn.Item(15 + (i*7+3)%15)},
		Compute:  time.Millisecond,
		Deadline: 5 * time.Second,
	}
}

func submitRecordFor(req core.ServiceRequest) wal.SubmitRecord {
	rec := wal.SubmitRecord{Compute: req.Compute, Deadline: req.Deadline}
	for _, it := range req.Items {
		rec.Items = append(rec.Items, int32(it))
	}
	return rec
}

func walSegments(t *testing.T, fsys wal.FS) []string {
	t.Helper()
	names, err := fsys.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	segs := names[:0:0]
	for _, n := range names {
		if strings.HasPrefix(n, "wal-") && strings.HasSuffix(n, ".log") {
			segs = append(segs, n)
		}
	}
	return segs
}

// victimState is what the stage-1 process knew when it died.
type victimState struct {
	acked      map[uint64]core.ServiceOutcome // answers delivered with err == nil
	ackErrs    int                            // answers delivered as errors (ErrLogFailed under faults)
	unresolved []uint64                       // durable submit records with no outcome
}

const tornSeq = 9999 // the mid-append record's seq; must never survive recovery

// runVictim drives the stage-1 service to the kill points and crashes
// it: 12 submissions taken to full acknowledgement (post-ack), up to 5
// submit records fsynced with no outcome (post-append/pre-ack), and one
// record cut in half at the tail (the append that was in flight when
// the process died).
func runVictim(t *testing.T, memfs *wal.MemFS, plan fault.FilePlan, seed int64) victimState {
	t.Helper()
	log, _, err := wal.Open(wal.Options{FS: memfs, WrapFile: func(name string, f wal.File) wal.File {
		return fault.WrapFile(seed, plan, name, f)
	}})
	if err != nil {
		t.Fatalf("open victim wal: %v", err)
	}
	svc, err := shard.NewService(core.MainMemoryConfig(core.CCA, seed), shard.ServiceOptions{
		Shards: 1,
		Core:   core.ServiceOptions{Speed: 5000},
		WAL:    log,
	})
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- svc.Run(ctx) }()

	v := victimState{acked: make(map[uint64]core.ServiceOutcome)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o, err := svc.Submit(context.Background(), crashReq(i))
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				v.ackErrs++
				return
			}
			v.acked[o.Seq] = o
		}(i)
	}
	wg.Wait()

	for i := 0; i < 5; i++ {
		rec := submitRecordFor(crashReq(100 + i))
		seq, err := log.AppendSubmit(&rec)
		if err != nil {
			continue // sticky log failure under a fault plan
		}
		if log.Sync() == nil {
			v.unresolved = append(v.unresolved, seq)
		}
	}

	if segs := walSegments(t, memfs); len(segs) > 0 {
		rec := submitRecordFor(crashReq(200))
		rec.Seq = tornSeq
		torn := wal.AppendSubmit(nil, &rec)
		if err := memfs.Append(segs[len(segs)-1], torn[:len(torn)/2]); err != nil {
			t.Fatalf("torn append: %v", err)
		}
	}

	memfs.Crash()
	cancel()
	<-runDone
	_ = log.Close() // post-crash flushes fail against the closed files; this just stops the sync goroutine
	return v
}

// recoveredView projects a Recovery to the state that must be
// bit-identical across repeated recovery runs (repair bookkeeping like
// Truncated differs between the run that truncates and the ones after).
func recoveredView(t *testing.T, rec *wal.Recovery) string {
	t.Helper()
	b, err := json.Marshal(struct {
		MaxSeq     uint64
		Records    int
		Submits    int
		Outcomes   int
		Unresolved []wal.SubmitRecord
	}{rec.MaxSeq, rec.Records, rec.Submits, rec.Outcomes, rec.Unresolved})
	if err != nil {
		t.Fatalf("marshal recovery: %v", err)
	}
	return string(b)
}

func openAndClose(t *testing.T, fsys wal.FS) *wal.Recovery {
	t.Helper()
	log, rec, err := wal.Open(wal.Options{FS: fsys})
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	if err := log.Close(); err != nil {
		t.Fatalf("recovery Close: %v", err)
	}
	return rec
}

func waitNotRecovering(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for s.recovering.Load() {
		if time.Now().After(deadline) {
			t.Fatal("replay did not finish")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestCrashRecoveryMatrix(t *testing.T) {
	cases := []struct {
		name    string
		plan    fault.FilePlan
		corrupt bool // acked bytes can rot on disk: skip the per-ack check
	}{
		{"clean", fault.FilePlan{}, false},
		{"torn-writes", fault.FilePlan{TornWriteProb: 0.3}, false},
		{"short-writes", fault.FilePlan{ShortWriteProb: 0.3}, false},
		{"fsync-errors", fault.FilePlan{SyncErrProb: 0.3}, false},
		{"corruption", fault.FilePlan{CorruptProb: 0.3}, true},
		{"mixed", fault.FilePlan{TornWriteProb: 0.1, ShortWriteProb: 0.1, SyncErrProb: 0.1, CorruptProb: 0.1}, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			memfs := wal.NewMemFS()
			v := runVictim(t, memfs, tc.plan, 42)
			crashed, final := snapshotFS(t, memfs), walSegments(t, memfs)
			scan := checkCrashedLog(t, memfs, v, tc.plan, tc.corrupt)

			// The same kill points as a DirFS segment shows them: the file is
			// zero-written ahead of its records and a crash leaves that tail.
			// Killed between batches the zeros follow the last whole record;
			// cut mid-batch they follow the half-written one.
			if len(final) == 0 {
				return
			}
			last := final[len(final)-1]
			const tail = 4096
			zeroTail, tornThenZeros := *scan, *scan
			zeroTail.Truncated, zeroTail.TruncatedSegment, zeroTail.TruncatedBytes, zeroTail.ZeroTailBytes = false, "", 0, tail
			tornThenZeros.TruncatedBytes += tail
			for _, shape := range []struct {
				name string
				data []byte // the final segment before the zeros
				want wal.Recovery
			}{
				{"zero-tail", crashed[last][:int64(len(crashed[last]))-scan.TruncatedBytes], zeroTail},
				{"torn-then-zeros", crashed[last], tornThenZeros},
			} {
				shape := shape
				t.Run(shape.name, func(t *testing.T) {
					fsys := wal.NewMemFS()
					for name, data := range crashed {
						if name == last {
							data = append(append([]byte(nil), shape.data...), make([]byte, tail)...)
						}
						restoreFile(t, fsys, name, data)
					}
					if got := checkCrashedLog(t, fsys, v, tc.plan, tc.corrupt); !reflect.DeepEqual(*got, shape.want) {
						t.Fatalf("scan of the crashed log with a zero tail:\n%+v\nwant\n%+v", *got, shape.want)
					}
				})
			}
		})
	}
}

// snapshotFS copies every file of a MemFS, and restoreFile puts one back
// into another as durable bytes: the crashed log, reproducible.
func snapshotFS(t *testing.T, fsys *wal.MemFS) map[string][]byte {
	t.Helper()
	names, err := fsys.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	files := make(map[string][]byte, len(names))
	for _, name := range names {
		if files[name], err = fsys.ReadFile(name); err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
	}
	return files
}

func restoreFile(t *testing.T, fsys *wal.MemFS, name string, data []byte) {
	t.Helper()
	if _, err := fsys.Create(name); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := fsys.Append(name, data); err != nil {
		t.Fatalf("Append: %v", err)
	}
}

// checkCrashedLog holds a crashed log to the contract in the file
// comment — scan and recover twice, replay through a fresh server, read
// back what is durable — and returns the first read-only scan.
func checkCrashedLog(t *testing.T, memfs *wal.MemFS, v victimState, plan fault.FilePlan, corrupt bool) *wal.Recovery {
	t.Helper()

	// Read-only scans of the crashed log are bit-identical.
	scanA, err := wal.Scan(memfs, nil)
	if err != nil {
		t.Fatalf("scan A: %v", err)
	}
	scanB, err := wal.Scan(memfs, nil)
	if err != nil {
		t.Fatalf("scan B: %v", err)
	}
	if !reflect.DeepEqual(scanA, scanB) {
		t.Fatalf("read-only scans disagree:\n%+v\nvs\n%+v", scanA, scanB)
	}
	// So are repairing recoveries (the first truncates the torn
	// tail; the bytes it removes are exactly the bytes the next
	// run never sees).
	rec1 := openAndClose(t, memfs)
	rec2 := openAndClose(t, memfs)
	if a, b := recoveredView(t, rec1), recoveredView(t, rec2); a != b {
		t.Fatalf("recovery not deterministic:\n%s\nvs\n%s", a, b)
	}
	if a, b := recoveredView(t, scanA), recoveredView(t, rec1); a != b {
		t.Fatalf("read-only scan and repair recovered different states:\n%s\nvs\n%s", a, b)
	}

	if plan == (fault.FilePlan{}) {
		// No faults: nothing ambiguous, and recovery's unresolved
		// set is exactly what the victim left unanswered.
		if len(v.acked) != 12 || v.ackErrs != 0 {
			t.Fatalf("clean victim: %d acked, %d errors (want 12, 0)", len(v.acked), v.ackErrs)
		}
		if len(v.unresolved) != 5 {
			t.Fatalf("clean victim: %d unresolved (want 5)", len(v.unresolved))
		}
		var got []uint64
		for i := range rec1.Unresolved {
			got = append(got, rec1.Unresolved[i].Seq)
		}
		if fmt.Sprint(got) != fmt.Sprint(v.unresolved) {
			t.Fatalf("recovered unresolved %v, victim left %v", got, v.unresolved)
		}
	}

	// Stage 2: a fresh server recovers the log and replays.
	srv, _, _, stop := startServer(t, Options{
		Core:      core.MainMemoryConfig(core.CCA, 7),
		Service:   core.ServiceOptions{Speed: 5000},
		WALFS:     memfs,
		WALRetain: 16, // keep every segment: stage 3 reads them all back
		Recover:   true,
	})
	waitNotRecovering(t, srv)
	if rs := srv.ReplayStats(); rs.Unresolved != len(rec1.Unresolved) {
		t.Fatalf("server saw %d unresolved, recovery found %d", rs.Unresolved, len(rec1.Unresolved))
	}
	if err := stop(); err != nil {
		t.Fatalf("serve: %v", err)
	}

	// Stage 3: the contract, read back from what is durable now.
	submits := make(map[uint64]bool)
	outcomes := make(map[uint64]wal.OutcomeRecord)
	if _, err := wal.Scan(memfs, func(h wal.Header, sub *wal.SubmitRecord, out *wal.OutcomeRecord) error {
		switch h.Type {
		case wal.RecSubmit:
			if submits[sub.Seq] {
				t.Errorf("seq %d has two submit records", sub.Seq)
			}
			submits[sub.Seq] = true
		case wal.RecOutcome:
			if _, dup := outcomes[out.Seq]; dup {
				t.Errorf("seq %d has two outcome records (duplicate effect)", out.Seq)
			}
			outcomes[out.Seq] = *out
		}
		return nil
	}); err != nil {
		t.Fatalf("final scan: %v", err)
	}
	if !corrupt {
		for seq := range v.acked {
			o, ok := outcomes[seq]
			if !ok {
				t.Errorf("acked seq %d lost its outcome record", seq)
				continue
			}
			if o.Replayed() {
				t.Errorf("acked seq %d was replayed: duplicate effect", seq)
			}
		}
	}
	for i := range rec1.Unresolved {
		seq := rec1.Unresolved[i].Seq
		o, ok := outcomes[seq]
		if !ok {
			t.Errorf("unresolved seq %d was never resolved by replay", seq)
			continue
		}
		if !o.Replayed() {
			t.Errorf("seq %d resolved by replay but not marked FlagReplayed", seq)
		}
	}
	if submits[tornSeq] {
		t.Error("half-written tail record survived recovery")
	}
	return scanA
}

// TestRecoveryWithoutReplayAborts: without Recover, unresolved records
// are resolved as aborted — the log converges with zero re-execution,
// and a later -recover run finds nothing to do.
func TestRecoveryWithoutReplayAborts(t *testing.T) {
	memfs := wal.NewMemFS()
	log, _, err := wal.Open(wal.Options{FS: memfs})
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	for i := 0; i < 10; i++ {
		rec := submitRecordFor(crashReq(i))
		seq, err := log.AppendSubmit(&rec)
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	srv, _, _, stop := startServer(t, Options{
		Core:    core.MainMemoryConfig(core.CCA, 1),
		WALFS:   memfs,
		Recover: false,
	})
	waitNotRecovering(t, srv)
	rs := srv.ReplayStats()
	if rs.Aborted != 10 || rs.Replayed != 0 {
		t.Fatalf("replay stats = %+v, want 10 aborted, 0 replayed", rs)
	}
	if err := stop(); err != nil {
		t.Fatalf("serve: %v", err)
	}

	aborted := make(map[uint64]bool)
	if _, err := wal.Scan(memfs, func(h wal.Header, _ *wal.SubmitRecord, out *wal.OutcomeRecord) error {
		if h.Type == wal.RecOutcome {
			if !out.Aborted() || !out.Replayed() {
				t.Errorf("seq %d resolved with flags %#x, want aborted+replayed", out.Seq, out.Flags)
			}
			aborted[out.Seq] = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, seq := range seqs {
		if !aborted[seq] {
			t.Errorf("seq %d was not resolved", seq)
		}
	}
	rec := openAndClose(t, memfs)
	if len(rec.Unresolved) != 0 {
		t.Fatalf("%d submissions still unresolved after abort pass", len(rec.Unresolved))
	}
}

// TestAbortedOutcomeOneSpelling: a record resolved without a run reads the
// same whichever path resolves it, the service answering a submission with
// an error (core.WALHook.WrapDone) or the startup pass without Recover.
func TestAbortedOutcomeOneSpelling(t *testing.T) {
	memfs := wal.NewMemFS()
	log, _, err := wal.Open(wal.Options{FS: memfs})
	if err != nil {
		t.Fatal(err)
	}
	var seqs [2]uint64
	for i := range seqs {
		rec := submitRecordFor(crashReq(i))
		if seqs[i], err = log.AppendSubmit(&rec); err != nil {
			t.Fatal(err)
		}
	}
	hook := &core.WALHook{Log: log}
	sub := core.Submission{Done: func(core.ServiceOutcome, error) {}}
	hook.WrapDone(&sub, seqs[0], true)
	sub.Fail(core.ErrDraining)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	srv, _, _, stop := startServer(t, Options{
		Core:  core.MainMemoryConfig(core.CCA, 1),
		WALFS: memfs,
	})
	waitNotRecovering(t, srv)
	if err := stop(); err != nil {
		t.Fatalf("serve: %v", err)
	}

	outcomes := map[uint64]wal.OutcomeRecord{}
	if _, err := wal.Scan(memfs, func(h wal.Header, _ *wal.SubmitRecord, out *wal.OutcomeRecord) error {
		if h.Type == wal.RecOutcome {
			outcomes[out.Seq] = *out
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	byHook, byStartup := outcomes[seqs[0]], outcomes[seqs[1]]
	byHook.Seq, byStartup.Seq = 0, 0
	if byHook != byStartup {
		t.Fatalf("aborted outcome spelled two ways:\n by the hook    %+v\n at startup     %+v", byHook, byStartup)
	}
	if !byHook.Aborted() || !byHook.Missed || core.State(byHook.State) != core.StateDropped {
		t.Fatalf("aborted outcome %+v, want aborted, dropped and missed", byHook)
	}
}

// TestDrainDuringRecoveryReplay: SIGTERM (context cancellation) while
// the startup replay is still running. /healthz must advertise
// recovering=true during the replay, the drain must stop the replay
// without stranding it, untouched records must stay unresolved for the
// next recovery, and no goroutines may leak.
func TestDrainDuringRecoveryReplay(t *testing.T) {
	memfs := wal.NewMemFS()
	log, _, err := wal.Open(wal.Options{FS: memfs})
	if err != nil {
		t.Fatal(err)
	}
	const backlog = 1500
	for i := 0; i < backlog; i++ {
		rec := submitRecordFor(core.ServiceRequest{
			Items:    []txn.Item{txn.Item(i % 30)},
			Compute:  2 * time.Millisecond,
			Deadline: 120 * time.Second,
		})
		if _, err := log.AppendSubmit(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	baseline := runtime.NumGoroutine()
	srv, base, _, stop := startServer(t, Options{
		Core: core.MainMemoryConfig(core.CCA, 1),
		// Speed 1: the 1500×2ms backlog needs seconds of wall clock, so
		// the drain below lands mid-replay deterministically.
		Service:      core.ServiceOptions{Speed: 1},
		WALFS:        memfs,
		Recover:      true,
		DrainTimeout: time.Second,
	})
	if !srv.recovering.Load() {
		t.Fatal("server not recovering right after start")
	}
	if body := getBody(t, base+"/healthz"); !strings.Contains(body, "recovering=true") {
		t.Fatalf("healthz during replay = %q, want recovering=true", body)
	}

	if err := stop(); err != nil {
		t.Fatalf("serve: %v", err)
	}
	if srv.recovering.Load() {
		t.Error("still recovering after drain")
	}
	rs := srv.ReplayStats()
	if rs.Replayed+rs.Aborted+rs.Failed != backlog {
		t.Fatalf("replay stats %+v do not account for all %d records", rs, backlog)
	}
	if rs.Failed == 0 {
		t.Fatalf("replay stats %+v: drain should have interrupted the replay", rs)
	}

	// Interrupted records are still unresolved — the next recovery gets
	// another chance at them.
	rec := openAndClose(t, memfs)
	if len(rec.Unresolved) == 0 {
		t.Error("drain mid-replay left nothing unresolved; expected a remainder for the next recovery")
	}

	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > baseline {
		t.Errorf("goroutine leak after drain-during-replay: %d -> %d", baseline, now)
	}
}

// TestWALSeqOnResponse: the durable sequence number rides the wire
// answer, so a reconnecting client can match acked work against a
// recovered log.
func TestWALSeqOnResponse(t *testing.T) {
	_, _, wireAddr, _ := startServer(t, Options{
		Core:  core.MainMemoryConfig(core.CCA, 1),
		WALFS: wal.NewMemFS(),
	})
	out := submit(t, dial(t, wireAddr), core.ServiceRequest{
		Items: itemSeq(3, 17), Compute: time.Millisecond, Deadline: time.Second,
	})
	if out.Status != wire.StatusCommitted {
		t.Fatalf("submit: %+v", out)
	}
	if out.Seq != 1 {
		t.Fatalf("wal seq = %d, want 1", out.Seq)
	}
}
