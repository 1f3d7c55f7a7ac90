// Package wal is a segmented, checksummed write-ahead log of accepted
// submissions and their terminal outcomes.
//
// The serving path appends a submit record before a submission is
// injected into the engine and an outcome record when the engine
// resolves it; the client's response is released only once the outcome
// record is durable. Appends are buffered in memory and a dedicated
// sync goroutine writes and fsyncs them in batches (group commit), so
// the engine driver never blocks on disk. Because appends are strictly
// FIFO, a durable outcome implies its submit record is durable too —
// the ack needs exactly one fsync wait.
//
// Segments rotate at a size threshold and are named by a monotonic
// ordinal (wal-%016x.log), so lexicographic order is log order. Closed
// segments whose every submission has a durable outcome are deleted
// once they age past the retention count. On disk (DirFS) the active
// segment is its records followed by zeros: the file is kept
// zero-written a fixed chunk ahead and each batch overwrites those
// blocks in place, so a group commit's fsync is a data flush and not a
// filesystem journal commit; rotation and Close trim the zeros.
// Recovery (Open) scans the segments in order, takes an all-zero
// remainder as the end of a segment, truncates a torn tail in the final
// segment, and reports the submissions that never reached an outcome so
// the server can replay them through the unchanged deterministic kernel.
package wal

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
)

// Defaults applied by Open when the corresponding Options field is zero.
const (
	defaultSegmentBytes = 64 << 20
	defaultRetain       = 2
)

// errClosed is returned by appends after Close has begun.
var errClosed = errors.New("wal: logger closed")

// Options configures Open.
type Options struct {
	// FS is the directory holding the segments. Required.
	FS FS
	// SyncEvery is the group-commit interval: appends are written and
	// fsynced at most this often. Zero means the sync goroutine flushes
	// as soon as it observes pending appends (per-batch durability,
	// lowest latency, most fsyncs).
	SyncEvery time.Duration
	// SegmentBytes rotates the active segment once it reaches this many
	// bytes. Defaults to defaultSegmentBytes.
	SegmentBytes int64
	// Retain is how many fully-resolved closed segments to keep before
	// deletion. Segments holding unresolved submissions are never
	// deleted. Defaults to defaultRetain.
	Retain int
	// WrapFile, if non-nil, wraps every segment file the logger creates
	// — the hook fault.FilePlan uses to inject torn writes, short
	// writes and fsync errors.
	WrapFile func(name string, f File) File
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.SegmentBytes <= 0 {
		out.SegmentBytes = defaultSegmentBytes
	}
	if out.Retain <= 0 {
		out.Retain = defaultRetain
	}
	return out
}

// Stats is a point-in-time snapshot of logger counters.
type Stats struct {
	Submits     uint64 `json:"submits"`      // submit records appended
	Outcomes    uint64 `json:"outcomes"`     // outcome records appended
	Syncs       uint64 `json:"syncs"`        // fsync batches completed
	Rotations   uint64 `json:"rotations"`    // segment rotations
	Removed     uint64 `json:"removed"`      // segments deleted by retention
	Bytes       uint64 `json:"bytes"`        // record bytes written durably
	Segments    int    `json:"segments"`     // live segment files
	Unresolved  int    `json:"unresolved"`   // submits without a durable outcome
	PendingSync int    `json:"pending_sync"` // bytes buffered, not yet durable
	Failed      bool   `json:"failed"`       // sticky failure state
}

// batch is what one group commit carries: the encoded records and the
// bookkeeping that becomes true once they are durable.
type batch struct {
	buf     []byte        // encoded records
	cbs     []func(error) // durability callbacks of the outcome records in buf
	submits []uint64      // seqs of submit records in buf
	resolve []uint64      // seqs resolved by outcome records in buf
}

type segment struct {
	ord         uint64
	name        string
	f           File // nil once closed
	size        int64
	outstanding int // submits here without a durable outcome
}

// Logger is the append side of the WAL. All methods are safe for
// concurrent use.
type Logger struct {
	opt Options

	mu      sync.Mutex
	nextSeq uint64
	nextOrd uint64
	pend    batch // appends awaiting the next flush
	spare   batch // the previous flush's batch, emptied for reuse
	segs    []*segment
	bySeq   map[uint64]*segment // unresolved submit seq -> its segment
	closing bool
	failed  error
	stats   Stats

	flushMu sync.Mutex // serializes flush bodies (syncer vs Sync)
	kick    chan struct{}
	stop    chan struct{}
	done    chan struct{}
}

func newLogger(opt Options, nextSeq, nextOrd uint64) *Logger {
	l := &Logger{
		opt:     opt,
		nextSeq: nextSeq,
		nextOrd: nextOrd,
		bySeq:   make(map[uint64]*segment),
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	// The caller starts l.run() once old-segment state is populated.
	return l
}

func segName(ord uint64) string { return fmt.Sprintf("wal-%016x.log", ord) }

func parseSegName(name string) (uint64, bool) {
	const pfx, sfx = "wal-", ".log"
	if len(name) != len(pfx)+16+len(sfx) ||
		name[:len(pfx)] != pfx || name[len(name)-len(sfx):] != sfx {
		return 0, false
	}
	ord, err := strconv.ParseUint(name[len(pfx):len(pfx)+16], 16, 64)
	if err != nil {
		return 0, false
	}
	return ord, true
}

// AppendSubmit assigns the next sequence number, stamps it into r, and
// buffers a submit record for the next group commit. It never blocks
// on I/O and does not wake the syncer: nothing waits on a lone submit
// record. It is durable once any later outcome append's durability
// callback fires (FIFO order), or after Sync or Close. r is encoded
// before the call returns and not retained.
func (l *Logger) AppendSubmit(r *SubmitRecord) (uint64, error) {
	l.mu.Lock()
	if err := l.appendErrLocked(); err != nil {
		l.mu.Unlock()
		return 0, err
	}
	seq := l.nextSeq
	l.nextSeq++
	r.Seq = seq
	l.pend.buf = AppendSubmit(l.pend.buf, r)
	l.pend.submits = append(l.pend.submits, seq)
	l.stats.Submits++
	l.mu.Unlock()
	return seq, nil
}

// AppendOutcome buffers an outcome record for r.Seq. durable, if
// non-nil, is called exactly once from the sync goroutine: with nil
// after the record (and, by FIFO order, the matching submit record) is
// fsynced, or with the write/sync error that lost it. An error return
// means nothing was buffered and durable will not be called.
func (l *Logger) AppendOutcome(r *OutcomeRecord, durable func(error)) error {
	l.mu.Lock()
	if err := l.appendErrLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	l.pend.buf = appendOutcome(l.pend.buf, r)
	if durable != nil {
		l.pend.cbs = append(l.pend.cbs, durable)
	}
	l.pend.resolve = append(l.pend.resolve, r.Seq)
	l.stats.Outcomes++
	l.mu.Unlock()
	l.kickSync()
	return nil
}

func (l *Logger) appendErrLocked() error {
	if l.failed != nil {
		return l.failed
	}
	if l.closing {
		return errClosed
	}
	return nil
}

func (l *Logger) kickSync() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// Sync forces everything appended so far to disk and returns the
// flush result. Safe to call concurrently with appends.
func (l *Logger) Sync() error { return l.flush() }

// Close flushes pending records, stops the sync goroutine and closes
// the active segment. Appends issued after Close has begun fail with
// ErrClosed. Close returns the sticky failure, if any.
func (l *Logger) Close() error {
	l.mu.Lock()
	already := l.closing
	l.closing = true
	l.mu.Unlock()
	if !already {
		close(l.stop)
	}
	<-l.done
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.segs); n > 0 && l.segs[n-1].f != nil {
		l.segs[n-1].f.Close()
		l.segs[n-1].f = nil
	}
	return l.failed
}

// Stats returns a snapshot of logger counters.
func (l *Logger) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	s.Segments = len(l.segs)
	s.Unresolved = len(l.bySeq)
	s.PendingSync = len(l.pend.buf)
	s.Failed = l.failed != nil
	return s
}

// run is the sync goroutine: group-commit loop until Close.
func (l *Logger) run() {
	defer close(l.done)
	var timer *time.Timer
	for {
		select {
		case <-l.kick:
		case <-l.stop:
			l.flush()
			return
		}
		if l.opt.SyncEvery > 0 {
			// Coalesce appends arriving during the interval into one
			// write+fsync; a stop request flushes what is there.
			if timer == nil {
				timer = time.NewTimer(l.opt.SyncEvery)
			} else {
				timer.Reset(l.opt.SyncEvery)
			}
			select {
			case <-timer.C:
			case <-l.stop:
				timer.Stop()
				l.flush()
				return
			}
		}
		l.flush()
	}
}

// flush writes and fsyncs all buffered records as one batch, fires the
// batch's durability callbacks, and applies retention.
func (l *Logger) flush() error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()

	l.mu.Lock()
	b := l.pend
	l.pend, l.spare = l.spare, batch{}
	failed := l.failed
	l.mu.Unlock()
	defer l.recycle(b)

	fail := func(err error) error {
		l.mu.Lock()
		if l.failed == nil {
			l.failed = err
		}
		err = l.failed
		l.mu.Unlock()
		for _, cb := range b.cbs {
			cb(err)
		}
		return err
	}
	if failed != nil {
		return fail(failed)
	}
	if len(b.buf) == 0 && len(b.cbs) == 0 {
		return nil
	}
	seg, err := l.activeSegment(int64(len(b.buf)))
	if err != nil {
		return fail(err)
	}
	if len(b.buf) > 0 {
		n, werr := seg.f.Write(b.buf)
		if werr == nil && n < len(b.buf) {
			werr = fmt.Errorf("wal: short write: %d of %d bytes: %w", n, len(b.buf), io.ErrShortWrite)
		}
		if werr == nil {
			werr = seg.f.Sync()
		}
		if werr != nil {
			return fail(fmt.Errorf("wal: segment %s: %w", seg.name, werr))
		}
		seg.size += int64(len(b.buf))
	}

	l.mu.Lock()
	l.stats.Syncs++
	l.stats.Bytes += uint64(len(b.buf))
	for _, seq := range b.submits {
		l.bySeq[seq] = seg
		seg.outstanding++
	}
	for _, seq := range b.resolve {
		if s, ok := l.bySeq[seq]; ok {
			s.outstanding--
			delete(l.bySeq, seq)
		}
	}
	remove := l.retireLocked()
	l.mu.Unlock()

	for _, cb := range b.cbs {
		cb(nil)
	}
	for _, name := range remove {
		// Retention is advisory; a failed delete is retried next flush.
		l.opt.FS.Remove(name)
	}
	return nil
}

// recycle empties a flushed batch and keeps its four backing arrays for
// the flush after next (the callback slots are cleared so a finished
// request's closure is not pinned until they are overwritten).
func (l *Logger) recycle(b batch) {
	clear(b.cbs)
	b = batch{b.buf[:0], b.cbs[:0], b.submits[:0], b.resolve[:0]}
	l.mu.Lock()
	l.spare = b
	l.mu.Unlock()
}

// activeSegment returns the segment the next batch should be written
// to, rotating or creating one as needed. Called with flushMu held.
func (l *Logger) activeSegment(batch int64) (*segment, error) {
	l.mu.Lock()
	var cur *segment
	if n := len(l.segs); n > 0 && l.segs[n-1].f != nil {
		cur = l.segs[n-1]
	}
	rotate := cur != nil && cur.size > 0 && cur.size+batch > l.opt.SegmentBytes
	ord := l.nextOrd
	l.mu.Unlock()

	if cur != nil && !rotate {
		return cur, nil
	}
	if rotate {
		if err := cur.f.Close(); err != nil {
			return nil, fmt.Errorf("wal: close segment %s: %w", cur.name, err)
		}
	}
	name := segName(ord)
	f, err := l.opt.FS.Create(name)
	if err != nil {
		return nil, fmt.Errorf("wal: create segment %s: %w", name, err)
	}
	if l.opt.WrapFile != nil {
		f = l.opt.WrapFile(name, f)
	}
	seg := &segment{ord: ord, name: name, f: f}
	l.mu.Lock()
	if rotate {
		cur.f = nil
		l.stats.Rotations++
	}
	l.nextOrd++
	l.segs = append(l.segs, seg)
	l.mu.Unlock()
	return seg, nil
}

// retireLocked returns the names of fully-resolved closed segments
// beyond the retention count, removing them from the segment list.
// Only a prefix is ever removed so log order survives. Called with mu
// held.
func (l *Logger) retireLocked() []string {
	closed := len(l.segs)
	if closed > 0 && l.segs[closed-1].f != nil {
		closed--
	}
	var names []string
	for closed-len(names) > l.opt.Retain {
		seg := l.segs[len(names)]
		if seg.outstanding != 0 {
			break
		}
		names = append(names, seg.name)
	}
	if len(names) > 0 {
		l.segs = append(l.segs[:0], l.segs[len(names):]...)
		l.stats.Removed += uint64(len(names))
	}
	return names
}
