// WAL binding: how the wall-clock serving path makes submissions durable.
// Durability lives in one place — shard.Service.Enqueue binds this hook
// after validation: a cross-shard entry's submit record is appended there,
// a single-home entry's by its home shard's Enqueue under the inbox lock.
// One log orders the whole sharded system, each shard injects in log order,
// and a per-shard Service has no log of its own. The contract:
//
//   - A submit record is appended after validation, before the
//     submission is injected into the engine (append-before-ack). The
//     append is buffered — the driver goroutine never waits on disk.
//   - The terminal outcome is appended from the completion slot and
//     the client's answer is delivered only once that record is fsynced (group
//     commit). FIFO append order makes the durable outcome imply a
//     durable submit, so one wait covers both.
//   - A submission answered with an error after its submit record was
//     appended is resolved with an aborted outcome record — its client
//     is told to retry, so recovery must not replay it — and the error
//     answer, like a commit, is delivered only once that record is
//     fsynced (at-most-once: a crash cannot fall between the answer and
//     the record). If the record cannot be appended or synced the
//     answer is ErrLogFailed, ambiguous, not the retriable error. The
//     one exception is ErrEngineFailed: the engine died with the
//     transaction in flight, the client was told the outcome is
//     unknown, and the unresolved record makes recovery re-run it so
//     the log converges on exactly one terminal outcome.
//   - Replayed submissions (Submission.WALSeq != 0) skip the submit
//     append — their record already exists — and their outcomes carry
//     FlagReplayed, the at-most-once marker for reconnecting clients.
//
// A nil hook (WAL disabled) is a pure passthrough: LogSubmit returns
// seq 0 and WrapDone leaves the submission's answer slot as it was — zero
// overhead on the submit path.
package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/txn"
	"repro/internal/wal"
)

// ErrLogFailed reports a submission whose engine outcome could not be
// made durable: the write-ahead log failed to append or sync the
// outcome record. The transaction DID reach the reported state inside
// the engine, but after a restart it may be replayed — callers must
// treat it like ErrEngineFailed: ambiguous, not blindly retriable.
var ErrLogFailed = errors.New("core: write-ahead log failed")

// WALHook binds a wal.Logger to a submit path. The zero value (and a
// nil pointer) disables logging. A hook must not be copied once used.
type WALHook struct {
	Log *wal.Logger

	mu   sync.Mutex
	free []*walSlot // delivered answer slots, for the next WrapDone
}

// enabled reports whether the hook actually logs.
func (h *WALHook) enabled() bool { return h != nil && h.Log != nil }

// LogSubmit appends the submit record for req and returns its assigned
// sequence number; 0 with a nil error when logging is disabled.
func (h *WALHook) LogSubmit(req *ServiceRequest) (uint64, error) {
	if !h.enabled() {
		return 0, nil
	}
	// The record only lives until AppendSubmit has encoded it, so it borrows
	// the request's flag slices and narrows the items into a stack buffer
	// (append moves a longer list to the heap).
	var buf [32]int32
	rec := wal.SubmitRecord{
		Items:       buf[:0],
		Reads:       req.Reads,
		NeedsIO:     req.NeedsIO,
		Compute:     req.Compute,
		Deadline:    req.Deadline,
		Criticality: req.Criticality,
		Class:       req.Class,
	}
	for _, it := range req.Items {
		rec.Items = append(rec.Items, int32(it))
	}
	seq, err := h.Log.AppendSubmit(&rec)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrLogFailed, err)
	}
	return seq, nil
}

// WrapDone makes sub's answer durable before it is delivered: its answer
// slot becomes a recycled walSlot that appends the outcome record and hands
// the answer to the slot's old target once the record is fsynced. seq 0
// (logging disabled, or the submit record was never appended) leaves sub as
// it was. replay marks the outcome record FlagReplayed.
//
// The slot is safe for the completion-slot contract: Complete never blocks
// — the durability wait happens on the logger's sync goroutine, which then
// delivers the answer there.
func (h *WALHook) WrapDone(sub *Submission, seq uint64, replay bool) {
	if !h.enabled() || seq == 0 {
		return
	}
	var w *walSlot
	h.mu.Lock()
	if n := len(h.free); n > 0 {
		w = h.free[n-1]
		h.free = h.free[:n-1]
	}
	h.mu.Unlock()
	if w == nil {
		w = new(walSlot)
	}
	*w = walSlot{hook: h, to: sub.Target(), id: sub.ID, seq: seq, replay: replay}
	sub.Answer, sub.Done = w, nil
}

// walSlot is one logged submission's answer slot between the engine's
// answer and the fsync of the record that resolves it: an AnswerSink for the
// engine and a wal.Waiter for the logger. It goes back to its hook's free
// list once it has delivered, so a logged submission allocates nothing to
// wait on its record once the list holds as many slots as answers wait. (A
// sync.Pool would not do: under the race detector it drops a quarter of the
// slots it is given, and the allocation budget holds there too.)
type walSlot struct {
	hook   *WALHook
	to     AnswerSink
	id     uint64
	seq    uint64
	replay bool
	o      ServiceOutcome // the answer held for the fsync
	err    error
}

// Complete appends the record that resolves the submission and waits for it
// with the slot as the waiter; the answer is delivered by Durable.
func (w *walSlot) Complete(_ uint64, o ServiceOutcome, err error) {
	var rec wal.OutcomeRecord
	switch {
	case errors.Is(err, ErrEngineFailed):
		// Outcome unknown: leave the submit record unresolved so recovery
		// replays it.
		w.deliver(o, err)
		return
	case err != nil:
		// The client is told to retry (drain, shutdown, a replayed record
		// that no longer validates): resolve the record first, so a crash
		// after the answer cannot make recovery re-run the retried work.
		rec = AbortRecord(w.seq, w.replay)
	default:
		o.Seq = w.seq
		rec = outcomeRecord(w.seq, w.replay, &o)
	}
	// The answer is in place before the append: once appended, the slot
	// may be told on the sync goroutine at once.
	w.o, w.err = o, err
	if aerr := w.hook.Log.AppendOutcomeWaiter(&rec, w); aerr != nil {
		w.deliver(o, fmt.Errorf("%w: %v", ErrLogFailed, aerr))
	}
}

// Durable delivers the held answer, or ErrLogFailed if the record was lost:
// an answer whose record may not be on disk is ambiguous, never retriable.
func (w *walSlot) Durable(werr error) {
	o, err := w.o, w.err
	if werr != nil {
		err = fmt.Errorf("%w: %v", ErrLogFailed, werr)
	}
	w.deliver(o, err)
}

// deliver recycles the slot and answers the old target.
func (w *walSlot) deliver(o ServiceOutcome, err error) {
	h, to, id := w.hook, w.to, w.id
	*w = walSlot{}
	h.mu.Lock()
	h.free = append(h.free, w)
	h.mu.Unlock()
	to.Complete(id, o, err)
}

func outcomeRecord(seq uint64, replay bool, o *ServiceOutcome) wal.OutcomeRecord {
	rec := wal.OutcomeRecord{
		Seq:      seq,
		State:    uint8(o.State),
		Missed:   o.Missed,
		Restarts: uint32(o.Restarts),
		Arrival:  o.Arrival,
		Finish:   o.Finish,
		Deadline: o.Deadline,
		Response: o.Response,
	}
	if replay {
		rec.Flags |= wal.FlagReplayed
	}
	return rec
}

// AbortRecord returns the outcome record that resolves submit record seq
// without running it: aborted, dropped and missed (a dropped transaction
// always misses; see ServiceOutcome.Missed), and FlagReplayed when replay.
// WrapDone writes it for a submission answered with an error, and the
// server for an unresolved record it resolves without -recover.
func AbortRecord(seq uint64, replay bool) wal.OutcomeRecord {
	rec := wal.OutcomeRecord{
		Seq:    seq,
		Flags:  wal.FlagAborted,
		State:  uint8(StateDropped),
		Missed: true,
	}
	if replay {
		rec.Flags |= wal.FlagReplayed
	}
	return rec
}

// RequestFromWAL reconstructs the ServiceRequest a recovered submit
// record described — the replay path's inverse of LogSubmit.
func RequestFromWAL(rec *wal.SubmitRecord) ServiceRequest {
	req := ServiceRequest{
		Compute:     rec.Compute,
		Deadline:    rec.Deadline,
		Criticality: rec.Criticality,
		Class:       rec.Class,
	}
	req.Items = make([]txn.Item, len(rec.Items))
	for i, it := range rec.Items {
		req.Items[i] = txn.Item(it)
	}
	if rec.Reads != nil {
		req.Reads = append([]bool(nil), rec.Reads...)
	}
	if rec.NeedsIO != nil {
		req.NeedsIO = append([]bool(nil), rec.NeedsIO...)
	}
	return req
}
