package server

import (
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/txn"
	"repro/internal/wire"
)

// The wire path's allocation budget: what one committed answer may cost the
// collector, from the frame's decode to its response's write, once the
// connection is warm. Nothing above the engine allocates per request (the
// answer target is the connection's, the request borrows the decode
// buffers, a submit answer is a value on the response queue), nothing below
// it does either, and with the log on the answer waits for its record in a
// recycled slot, so the budget is a rounding allowance for the runtime's own
// background work.
const (
	maxWireObjectsPerAnswer = 0.05
	maxWireBytesPerAnswer   = 8
)

// TestWireSubmitAllocBudget drives 20 000 pipelined submits over one raw
// loopback wire connection to an in-process server and counts, across every
// goroutine of the process, what they allocated. The client writes
// pre-encoded frames, batch by batch, and reads each batch's answers with a
// FrameReader into one reused SubmitResp, so it allocates nothing itself.
func TestWireSubmitAllocBudget(t *testing.T) {
	checkAnswerAllocBudget(t, "wire", Options{})
}

// TestWALSubmitAllocBudget is the same drive with the write-ahead log on, in
// a directory: each answer waits for its outcome record's fsync on a
// recycled answer slot, so durability adds nothing to the budget either. An
// in-memory log would not do: its file's growth allocates.
func TestWALSubmitAllocBudget(t *testing.T) {
	checkAnswerAllocBudget(t, "wal", Options{WALDir: t.TempDir()})
}

// checkAnswerAllocBudget drives opts's server over the wire and holds what
// it allocated to the budget.
func checkAnswerAllocBudget(t *testing.T, name string, opts Options) {
	cfg := core.MainMemoryConfig(core.CCA, 47)
	cfg.Workload.DBSize = 1024
	opts.Core, opts.Service = cfg, core.ServiceOptions{Speed: 10000}
	_, _, wireAddr, _ := startDualServer(t, opts)
	nc, err := net.Dial("tcp", wireAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	// One batch: item-disjoint two-item submits, IDs 1..batch (an ID is
	// free again once its answer has been read).
	const batch, batches = 50, 400
	var frames []byte
	for j := 0; j < batch; j++ {
		frames = wire.AppendSubmit(frames, uint64(j+1), &wire.SubmitReq{
			Items:    []txn.Item{txn.Item(2 * j), txn.Item(2*j + 1)},
			Compute:  50 * time.Microsecond,
			Deadline: time.Minute,
		})
	}
	fr := wire.NewFrameReader(nc, 0)
	var resp wire.SubmitResp
	var bad int
	round := func() {
		if _, err := nc.Write(frames); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < batch; j++ {
			h, p, err := fr.Next()
			if err != nil {
				t.Fatal(err)
			}
			if h.Type != wire.FrameSubmitResp || wire.DecodeSubmitResp(p, &resp) != nil || resp.Status != wire.StatusCommitted {
				bad++
			}
		}
	}
	for i := 0; i < 40; i++ {
		round() // warm: free lists, the inbox, the response queue and the buffers reach their size
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < batches; i++ {
		round()
	}
	runtime.ReadMemStats(&m1)
	if bad > 0 {
		t.Fatalf("%d answers were not commits", bad)
	}
	answers := float64(batch * batches)
	objects := float64(m1.Mallocs-m0.Mallocs) / answers
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / answers
	t.Logf("%s submit→answer: %.4f objects, %.2f B per committed answer", name, objects, bytes)
	if objects > maxWireObjectsPerAnswer || bytes > maxWireBytesPerAnswer {
		t.Errorf("%.4f objects and %.2f B per committed answer; budget is %.2f objects, %d B",
			objects, bytes, maxWireObjectsPerAnswer, maxWireBytesPerAnswer)
	}
}
