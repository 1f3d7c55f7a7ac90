// WAL glue: the server side of durable submissions. New opens the log
// (openWAL) and hands it to the service, so every accepted submission
// is appended before injection and every answer waits for its outcome
// record's fsync (see core.WALHook) — a retriable error answer too,
// which waits for the aborted record that resolves its submission and
// becomes the ambiguous ErrLogFailed if that record is lost. On startup
// the log may hold unresolved submissions — accepted work whose client
// never got an answer before the last crash. ServeListeners resolves
// them exactly once, in a background replay that /healthz advertises as
// `recovering=true` until it finishes:
//
//   - with Options.Recover, each unresolved submission is re-run
//     through the unchanged engine (chunked Enqueue entries with
//     WALSeq set, so the service skips the duplicate submit append and
//     stamps the outcome FlagReplayed — the at-most-once marker a
//     reconnecting client uses to discard duplicate effects);
//   - without it, each is resolved with an aborted outcome record: the
//     log converges without re-executing work the operator chose not
//     to trust.
//
// Drain during replay is safe: submissions the service refuses stay
// unresolved (no record is appended on the pre-wrap ErrDraining path),
// so the next -recover run picks them up again.
package server

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/wal"
	"repro/internal/wire"
)

// replayChunk bounds one burst of recovered submissions, so a
// large backlog replays in bounded bursts instead of flooding the
// engine's admission controller in one call.
const replayChunk = 256

// ReplayStats summarizes startup crash recovery for /metrics.
type ReplayStats struct {
	// Unresolved is how many submissions the scan found accepted but
	// unanswered.
	Unresolved int `json:"unresolved"`
	// Replayed were re-executed to a terminal outcome (Recover set).
	Replayed int64 `json:"replayed"`
	// Aborted were resolved with an aborted outcome record: Recover
	// unset, or the replay was refused by validation.
	Aborted int64 `json:"aborted"`
	// Failed were not re-executed (drain, shutdown, engine or log
	// failure); those still unresolved in the log are picked up by the
	// next recovery.
	Failed int64 `json:"failed"`
	// Done reports that the replay pass has finished.
	Done bool `json:"done"`
}

// replayState carries the counters the replay goroutine updates while
// /metrics reads them: answers tallies every replayed submission's answer by
// its wire.Status* (ReplayStats folds them); aborted and failed count the
// records resolved, or given up on, without a submission.
type replayState struct {
	unresolved int
	answers    answerCounts
	aborted    atomic.Int64
	failed     atomic.Int64
}

// openWAL opens the write-ahead log per Options; (nil, nil, nil) when
// durability is disabled.
func openWAL(opts *Options) (*wal.Logger, *wal.Recovery, error) {
	if opts.WALDir == "" && opts.WALFS == nil {
		return nil, nil, nil
	}
	fsys := opts.WALFS
	if fsys == nil {
		d, err := wal.NewDirFS(opts.WALDir)
		if err != nil {
			return nil, nil, err
		}
		fsys = d
		// An on-disk WAL needs at least two Ps: every answer waits for
		// the sync goroutine's fsync, and with GOMAXPROCS=1 that
		// goroutine re-queues behind the whole run queue each time the
		// syscall returns, inflating the group-commit cycle (measured
		// ~6x under load on a single-CPU host). A second P lets the
		// fsync return resume immediately and overlap with request
		// processing. Raise-only, and only when durability is on.
		if runtime.GOMAXPROCS(0) < 2 {
			runtime.GOMAXPROCS(2)
		}
	}
	if err := opts.walFileFaults.Validate(); err != nil {
		return nil, nil, err
	}
	plan, seed := opts.walFileFaults, opts.walFaultSeed
	return wal.Open(wal.Options{
		FS:           fsys,
		SyncEvery:    opts.WALSync,
		SegmentBytes: opts.WALSegmentBytes,
		Retain:       opts.WALRetain,
		// The zero plan, every program's, wraps nothing: WrapFile returns
		// the file itself.
		WrapFile: func(name string, f wal.File) wal.File {
			return fault.WrapFile(seed, plan, name, f)
		},
	})
}

// WAL returns the server's write-ahead log (nil when disabled) — test
// and tooling access.
func (s *Server) WAL() *wal.Logger { return s.wal }

// Recovery returns what the startup scan of the WAL found (nil when
// the WAL is disabled).
func (s *Server) Recovery() *wal.Recovery { return s.recovery }

// ReplayStats snapshots the recovery-replay counters. An engine answer of
// any fate re-executed the record. Shed and Failed did not: a record left
// unresolved (the drain path refuses before any append) is picked up by the
// next recovery. Invalid was refused by validation: WrapDone appended the
// aborted outcome, so the record is resolved.
func (s *Server) ReplayStats() ReplayStats {
	a := &s.replay.answers
	return ReplayStats{
		Unresolved: s.replay.unresolved,
		Replayed:   a.engineAnswered(),
		Aborted:    s.replay.aborted.Load() + a[wire.StatusInvalid].Load(),
		Failed:     s.replay.failed.Load() + a[wire.StatusShed].Load() + a[wire.StatusFailed].Load(),
		Done:       !s.recovering.Load(),
	}
}

// replayWAL resolves every unresolved submission the startup scan
// found, then clears the recovering flag. Runs once, in the background,
// while the listeners already serve: new live traffic and replay
// traffic interleave safely because both flow through the same
// append-before-ack submit path.
func (s *Server) replayWAL(ctx context.Context) {
	defer close(s.replayDone)
	defer s.recovering.Store(false)
	unresolved := s.recovery.Unresolved
	if len(unresolved) == 0 {
		return
	}
	if !s.opts.Recover {
		// Resolve without re-execution: append an aborted outcome for
		// each record so the log converges. FlagReplayed marks these as
		// recovery-produced, not client-visible effects.
		for i := range unresolved {
			rec := core.AbortRecord(unresolved[i].Seq, true)
			if err := s.wal.AppendOutcome(&rec, nil); err != nil {
				s.replay.failed.Add(1)
				continue
			}
			s.replay.aborted.Add(1)
		}
		_ = s.wal.Sync()
		return
	}
	for start := 0; start < len(unresolved); start += replayChunk {
		if ctx.Err() != nil {
			// Shutdown mid-replay: everything not yet resolved stays
			// unresolved in the log for the next -recover run.
			s.replay.failed.Add(int64(len(unresolved) - start))
			return
		}
		end := start + replayChunk
		if end > len(unresolved) {
			end = len(unresolved)
		}
		var wg sync.WaitGroup
		wg.Add(end - start)
		for i := start; i < end; i++ {
			rec := &unresolved[i]
			s.svc.Enqueue(core.Submission{
				Req:    core.RequestFromWAL(rec),
				WALSeq: rec.Seq,
				Done: func(o core.ServiceOutcome, err error) {
					defer wg.Done()
					status := wire.Classify(o, err)
					s.replay.answers[status].Add(1)
				},
			}, 0)
		}
		// One chunk in flight at a time: bounded engine load, and the
		// chunk's outcome records are durable before the next burst.
		wg.Wait()
	}
}
