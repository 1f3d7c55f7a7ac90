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
//     the client's Done fires only once that record is fsynced (group
//     commit). FIFO append order makes the durable outcome imply a
//     durable submit, so one wait covers both.
//   - A submission answered with an error after its submit record was
//     appended is resolved with an aborted outcome record — its client
//     was told to retry, so recovery must not replay it. The one
//     exception is ErrEngineFailed: the engine died with the
//     transaction in flight, the client was told the outcome is
//     unknown, and the unresolved record makes recovery re-run it so
//     the log converges on exactly one terminal outcome.
//   - Replayed submissions (Submission.WALSeq != 0) skip the submit
//     append — their record already exists — and their outcomes carry
//     FlagReplayed, the at-most-once marker for reconnecting clients.
//
// A nil hook (WAL disabled) is a pure passthrough: LogSubmit returns
// seq 0 and WrapDone returns the callback it was given — the same
// function value, zero overhead on the submit path.
package core

import (
	"errors"
	"fmt"

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
// nil pointer) disables logging.
type WALHook struct {
	Log *wal.Logger
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

// WrapDone returns a completion callback that makes outcomes durable
// before delivering them. seq 0 (logging disabled, or the submit
// record was never appended) returns done unchanged. replay marks the
// outcome record FlagReplayed.
//
// The wrapped callback is safe for the completion-slot contract: it
// never blocks — the durability wait happens on the logger's sync
// goroutine, which then runs done there.
func (h *WALHook) WrapDone(seq uint64, replay bool, done func(ServiceOutcome, error)) func(ServiceOutcome, error) {
	if !h.enabled() || seq == 0 {
		return done
	}
	log := h.Log
	return func(o ServiceOutcome, err error) {
		if err != nil {
			if errors.Is(err, ErrEngineFailed) {
				// Outcome unknown: leave the submit record unresolved so
				// recovery replays it.
				done(o, err)
				return
			}
			// The client is told to retry (drain, shutdown, a replayed
			// record that no longer validates): resolve the record so recovery does not
			// double-run the retried work. Fire-and-forget — the error
			// answer does not need to wait for the abort record.
			rec := abortRecord(seq, replay)
			log.AppendOutcome(&rec, nil)
			done(o, err)
			return
		}
		o.Seq = seq
		rec := outcomeRecord(seq, replay, &o)
		aerr := log.AppendOutcome(&rec, func(werr error) {
			if werr != nil {
				done(o, fmt.Errorf("%w: %v", ErrLogFailed, werr))
				return
			}
			done(o, nil)
		})
		if aerr != nil {
			done(o, fmt.Errorf("%w: %v", ErrLogFailed, aerr))
		}
	}
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

func abortRecord(seq uint64, replay bool) wal.OutcomeRecord {
	rec := wal.OutcomeRecord{
		Seq:   seq,
		Flags: wal.FlagAborted,
		State: uint8(StateDropped),
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
