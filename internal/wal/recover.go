// Recovery: scanning segments back into memory after a restart.
//
// The scan walks segments in ordinal order and decodes records
// front-to-back. A remainder that is all zeros is the clean end of a
// segment, final or not: DirFS keeps a live segment zero-written ahead
// of its records and only Close trims that, so every segment a crash
// interrupted ends this way. It is counted (ZeroTailBytes) and left
// alone. Any other invalid record in the FINAL segment is a torn tail
// — the batch that was mid-write when the process died, zeros after it
// or not — and is truncated away together with everything after it
// (nothing after a torn batch was ever acknowledged, because acks wait
// for fsync). In any earlier segment it means real corruption of
// acknowledged data and fails the scan: silently dropping acked work
// would be worse than refusing to start.
//
// Scanning the same log twice yields bit-identical Recovery results:
// the only mutation (tail truncation) removes exactly the bytes the
// first scan ignored.
package wal

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Recovery summarizes a scan of the log directory.
type Recovery struct {
	// Unresolved holds, in sequence order, every submission with a
	// durable submit record but no outcome record: accepted work whose
	// client never got an answer. With -recover these are replayed.
	Unresolved []SubmitRecord `json:"-"`

	MaxSeq   uint64 `json:"max_seq"`
	Segments int    `json:"segments"`
	Records  int    `json:"records"`
	Submits  int    `json:"submits"`
	Outcomes int    `json:"outcomes"`
	Replayed int    `json:"replayed"` // outcomes carrying FlagReplayed
	Aborted  int    `json:"aborted"`  // outcomes carrying FlagAborted

	Truncated        bool   `json:"truncated"`
	TruncatedSegment string `json:"truncated_segment,omitempty"`
	TruncatedBytes   int64  `json:"truncated_bytes,omitempty"`

	// ZeroTailBytes is the total length of the all-zero remainders the
	// scan found after the last record of a segment: preallocation a
	// crash kept Close from trimming. Not damage; nothing is rewritten.
	ZeroTailBytes int64 `json:"zero_tail_bytes"`
}

type unresolvedEntry struct {
	sub SubmitRecord
	ord uint64
}

type scanState struct {
	rec           Recovery
	unresolved    map[uint64]*unresolvedEntry
	segOrds       []uint64
	segSize       map[uint64]int64
	maxOrd        uint64
	lastSubmitSeq uint64
}

// Open scans the log directory, truncates a torn tail (a zero tail is
// not one and stays), and returns a running Logger (sequence numbers
// continue after the highest seen) plus the Recovery describing what
// the scan found. The logger never appends to pre-existing segments;
// its first flush opens a fresh one.
func Open(o Options) (*Logger, *Recovery, error) {
	opt := o.withDefaults()
	if opt.FS == nil {
		return nil, nil, errors.New("wal: Options.FS is required")
	}
	st, err := scan(opt.FS, true, nil)
	if err != nil {
		return nil, nil, err
	}
	l := newLogger(opt, st.rec.MaxSeq+1, st.maxOrd+1)
	byOrd := make(map[uint64]*segment, len(st.segOrds))
	for _, ord := range st.segOrds {
		seg := &segment{ord: ord, name: segName(ord), size: st.segSize[ord]}
		byOrd[ord] = seg
		l.segs = append(l.segs, seg)
	}
	for seq, e := range st.unresolved {
		seg := byOrd[e.ord]
		seg.outstanding++
		l.bySeq[seq] = seg
	}
	go l.run()
	return l, &st.rec, nil
}

// Scan reads every valid record in the log without repairing anything,
// invoking visit (if non-nil) per record with the decoded header and
// the submit or outcome body selected by the header type. The body
// structs are reused across calls — copy what must outlive the
// callback. A torn tail is reported in the Recovery but left on disk.
func Scan(fsys FS, visit func(Header, *SubmitRecord, *OutcomeRecord) error) (*Recovery, error) {
	st, err := scan(fsys, false, visit)
	if err != nil {
		return nil, err
	}
	return &st.rec, nil
}

func scan(fsys FS, repair bool, visit func(Header, *SubmitRecord, *OutcomeRecord) error) (*scanState, error) {
	names, err := fsys.List()
	if err != nil {
		return nil, fmt.Errorf("wal: list segments: %w", err)
	}
	var ords []uint64
	for _, name := range names {
		if ord, ok := parseSegName(name); ok {
			ords = append(ords, ord)
		} else if repair && strings.HasSuffix(name, ".tmp") {
			// Leftover from a truncation that died mid-replace.
			fsys.Remove(name)
		}
	}
	sort.Slice(ords, func(i, j int) bool { return ords[i] < ords[j] })

	st := &scanState{
		unresolved: make(map[uint64]*unresolvedEntry),
		segSize:    make(map[uint64]int64),
	}
	var sub SubmitRecord
	var out OutcomeRecord
	for i, ord := range ords {
		name := segName(ord)
		data, err := fsys.ReadFile(name)
		if err != nil {
			return nil, fmt.Errorf("wal: read segment %s: %w", name, err)
		}
		final := i == len(ords)-1
		off := 0
		for off < len(data) {
			h, n, derr := DecodeRecord(data[off:], &sub, &out)
			if derr != nil {
				if allZero(data[off:]) {
					st.rec.ZeroTailBytes += int64(len(data) - off)
					data = data[:off]
					break
				}
				if !final {
					return nil, fmt.Errorf("wal: segment %s: invalid record at offset %d in non-final segment: %w", name, off, derr)
				}
				st.rec.Truncated = true
				st.rec.TruncatedSegment = name
				st.rec.TruncatedBytes = int64(len(data) - off)
				if repair {
					if terr := fsys.WriteFileAtomic(name, data[:off]); terr != nil {
						return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", name, terr)
					}
				}
				data = data[:off]
				break
			}
			st.rec.Records++
			if h.Seq > st.rec.MaxSeq {
				st.rec.MaxSeq = h.Seq
			}
			switch h.Type {
			case RecSubmit:
				st.rec.Submits++
				if sub.Seq <= st.lastSubmitSeq {
					return nil, fmt.Errorf("wal: segment %s: submit seq %d at offset %d not increasing (last %d)", name, sub.Seq, off, st.lastSubmitSeq)
				}
				st.lastSubmitSeq = sub.Seq
				st.unresolved[sub.Seq] = &unresolvedEntry{sub: cloneSubmit(&sub), ord: ord}
			case RecOutcome:
				st.rec.Outcomes++
				if out.Replayed() {
					st.rec.Replayed++
				}
				if out.Aborted() {
					st.rec.Aborted++
				}
				delete(st.unresolved, out.Seq)
			}
			if visit != nil {
				if verr := visit(h, &sub, &out); verr != nil {
					return nil, verr
				}
			}
			off += n
		}
		st.segOrds = append(st.segOrds, ord)
		st.segSize[ord] = int64(len(data))
		if ord > st.maxOrd {
			st.maxOrd = ord
		}
	}
	st.rec.Segments = len(st.segOrds)

	seqs := make([]uint64, 0, len(st.unresolved))
	for seq := range st.unresolved {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		st.rec.Unresolved = append(st.rec.Unresolved, st.unresolved[seq].sub)
	}
	return st, nil
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

func cloneSubmit(r *SubmitRecord) SubmitRecord {
	c := *r
	c.Items = append([]int32(nil), r.Items...)
	if r.Reads != nil {
		c.Reads = append([]bool(nil), r.Reads...)
	}
	if r.NeedsIO != nil {
		c.NeedsIO = append([]bool(nil), r.NeedsIO...)
	}
	return c
}
