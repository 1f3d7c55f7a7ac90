// Record codec: every WAL entry is a length-prefixed, versioned,
// checksummed record. The layout mirrors internal/wire's conventions —
// little-endian integers, append-style encoders that never allocate
// beyond growing the destination buffer, canonical strict-length
// decoders — with one addition the network protocol does not need: a
// CRC-32C trailer over everything after the length word, because a log
// read back after a crash cannot trust the bytes the way a TCP stream
// can.
//
// Record layout (all integers little-endian):
//
//	uint32  length   // bytes that follow (12-byte rest-of-header + payload + 4-byte CRC)
//	uint8   version  // record format version, currently 1
//	uint8   type     // RecSubmit or RecOutcome
//	uint16  flags    // Flag* bits (zero for submits)
//	uint64  seq      // submission sequence number, unique per log
//	payload ...
//	uint32  crc      // CRC-32C over version..payload
//
// Decoding is canonical: trailing or missing payload bytes, unknown
// flag bits and checksum mismatches are all errors, so Append∘Decode is
// the identity and a fuzzer cannot find two encodings of one record.
package wal

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"time"
)

// recordVersion is the record format version stamped on every record.
const recordVersion = 1

// Record types.
const (
	// RecSubmit logs one accepted submission, appended before the
	// submission is acknowledged (append-before-ack).
	RecSubmit = 0x01
	// RecOutcome logs a submission's terminal resolution, appended from
	// the engine's done-hook (or the abort path) and made durable before
	// the client sees the answer.
	RecOutcome = 0x02
)

// Outcome flag bits (Header.Flags on RecOutcome records).
const (
	// FlagReplayed marks an outcome produced by crash-recovery replay
	// rather than the original submission — the at-most-once marker a
	// reconnecting client uses to tell a recovered answer from a
	// duplicate effect.
	FlagReplayed = 1 << 0
	// FlagAborted marks a submission that was answered with an error
	// (drain, shutdown, WAL failure) and never reached a real terminal
	// state. Aborted submissions are resolved — recovery must not replay
	// them, because their clients were told to retry.
	FlagAborted = 1 << 1
)

// Header sizes, mirroring wire's split of the length prefix from the
// length-covered rest.
const (
	recHeaderLen = 16
	recLenPrefix = 4
	recRestLen   = recHeaderLen - recLenPrefix
	recCRCLen    = 4
)

// maxRecord bounds a single record (header + payload + CRC): a hostile
// or corrupt length prefix cannot balloon recovery memory.
const maxRecord = 1 << 20

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms this serves from.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Decode errors. errCorrupt covers every way stored bytes can fail
// validation (bad CRC, bad length, unknown version or type, trailing
// bytes); scanners treat it at the log tail as a torn write.
var (
	errCorrupt = errors.New("wal: corrupt record")
	// errShort reports a buffer that ends before the record does — at
	// the log tail this is a torn append, mid-log it is corruption.
	errShort = errors.New("wal: truncated record")
)

// Header is a decoded record header.
type Header struct {
	version uint8
	Type    uint8
	flags   uint16
	seq     uint64
}

// SubmitRecord is the decoded form of a RecSubmit payload. It carries
// exactly what replay needs to reconstruct the core.ServiceRequest;
// times are durations (Deadline relative to arrival, as submitted).
type SubmitRecord struct {
	Seq         uint64
	Items       []int32
	Reads       []bool
	NeedsIO     []bool
	Compute     time.Duration
	Deadline    time.Duration
	Criticality int
	Class       int
}

// OutcomeRecord is the decoded form of a RecOutcome payload.
type OutcomeRecord struct {
	Seq      uint64
	Flags    uint16 // FlagReplayed | FlagAborted
	State    uint8  // core.State numeric value
	Missed   bool
	Restarts uint32
	Arrival  time.Duration
	Finish   time.Duration
	Deadline time.Duration
	Response time.Duration
}

// Replayed reports the FlagReplayed bit.
func (o *OutcomeRecord) Replayed() bool { return o.Flags&FlagReplayed != 0 }

// Aborted reports the FlagAborted bit.
func (o *OutcomeRecord) Aborted() bool { return o.Flags&FlagAborted != 0 }

// --- primitive append/consume helpers (little-endian, as in wire) -------

func appendU16(b []byte, v uint16) []byte {
	return append(b, byte(v), byte(v>>8))
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func getU16(b []byte) uint16 { return uint16(b[0]) | uint16(b[1])<<8 }

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func getU64(b []byte) uint64 {
	return uint64(getU32(b)) | uint64(getU32(b[4:]))<<32
}

// appendHeader reserves the record header; sealRecord patches the
// length word and appends the CRC trailer for the same start offset.
func appendHeader(buf []byte, typ uint8, flags uint16, seq uint64) []byte {
	buf = appendU32(buf, 0) // length, patched by sealRecord
	buf = append(buf, recordVersion, typ)
	buf = appendU16(buf, flags)
	return appendU64(buf, seq)
}

func sealRecord(buf []byte, start int) []byte {
	crc := crc32.Checksum(buf[start+recLenPrefix:], crcTable)
	buf = appendU32(buf, crc)
	n := uint32(len(buf) - start - recLenPrefix)
	buf[start] = byte(n)
	buf[start+1] = byte(n >> 8)
	buf[start+2] = byte(n >> 16)
	buf[start+3] = byte(n >> 24)
	return buf
}

// --- Submit --------------------------------------------------------------

// Payload flag bits inside a submit payload (per-item bitmaps present).
const (
	submitHasReads = 1 << 0
	submitHasIO    = 1 << 1
)

// AppendSubmit appends a complete submit record to buf and returns the
// extended slice.
func AppendSubmit(buf []byte, r *SubmitRecord) []byte {
	start := len(buf)
	buf = appendHeader(buf, RecSubmit, 0, r.Seq)
	buf = appendU64(buf, uint64(r.Compute))
	buf = appendU64(buf, uint64(r.Deadline))
	buf = appendU32(buf, uint32(int32(r.Criticality)))
	buf = appendU32(buf, uint32(int32(r.Class)))
	buf = appendU32(buf, uint32(len(r.Items)))
	var bits uint8
	if r.Reads != nil {
		bits |= submitHasReads
	}
	if r.NeedsIO != nil {
		bits |= submitHasIO
	}
	buf = append(buf, bits)
	for _, it := range r.Items {
		buf = appendU32(buf, uint32(it))
	}
	buf = appendBitmap(buf, r.Reads)
	buf = appendBitmap(buf, r.NeedsIO)
	return sealRecord(buf, start)
}

func appendBitmap(buf []byte, bools []bool) []byte {
	if bools == nil {
		return buf
	}
	var cur uint8
	for i, v := range bools {
		if v {
			cur |= 1 << (i % 8)
		}
		if i%8 == 7 {
			buf = append(buf, cur)
			cur = 0
		}
	}
	if len(bools)%8 != 0 {
		buf = append(buf, cur)
	}
	return buf
}

func bitmapLen(n int) int { return (n + 7) / 8 }

// decodeSubmitPayload decodes a submit payload into r, reusing r's
// slices. Strictly canonical: any length mismatch is errCorrupt.
func decodeSubmitPayload(p []byte, r *SubmitRecord) error {
	const fixed = 8 + 8 + 4 + 4 + 4 + 1
	if len(p) < fixed {
		return fmt.Errorf("%w: submit payload %d bytes", errCorrupt, len(p))
	}
	r.Compute = time.Duration(getU64(p))
	r.Deadline = time.Duration(getU64(p[8:]))
	r.Criticality = int(int32(getU32(p[16:])))
	r.Class = int(int32(getU32(p[20:])))
	n := int(getU32(p[24:]))
	bits := p[28]
	p = p[fixed:]
	if bits&^uint8(submitHasReads|submitHasIO) != 0 {
		return fmt.Errorf("%w: unknown submit payload bits %#x", errCorrupt, bits)
	}
	if n < 0 || n > math.MaxInt32 {
		return fmt.Errorf("%w: submit item count %d", errCorrupt, n)
	}
	want := 4 * n
	if bits&submitHasReads != 0 {
		want += bitmapLen(n)
	}
	if bits&submitHasIO != 0 {
		want += bitmapLen(n)
	}
	if len(p) != want {
		return fmt.Errorf("%w: submit payload length %d, want %d for %d items", errCorrupt, len(p), want, n)
	}
	r.Items = r.Items[:0]
	for i := 0; i < n; i++ {
		r.Items = append(r.Items, int32(getU32(p[4*i:])))
	}
	p = p[4*n:]
	var err error
	if r.Reads, p, err = decodeBitmap(p, r.Reads, n, bits&submitHasReads != 0); err != nil {
		return err
	}
	if r.NeedsIO, _, err = decodeBitmap(p, r.NeedsIO, n, bits&submitHasIO != 0); err != nil {
		return err
	}
	return nil
}

// emptyBools keeps a decoded present-but-empty bitmap distinguishable
// from an absent one (non-nil slice) without allocating.
var emptyBools = make([]bool, 0)

func decodeBitmap(p []byte, dst []bool, n int, present bool) ([]bool, []byte, error) {
	if !present {
		return nil, p, nil
	}
	if dst == nil {
		dst = emptyBools
	}
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, p[i/8]&(1<<(i%8)) != 0)
	}
	// Canonical encoding: padding bits past n in the final byte are zero.
	if rem := n % 8; rem != 0 && p[n/8]&^(1<<rem-1) != 0 {
		return nil, nil, fmt.Errorf("%w: nonzero bitmap padding", errCorrupt)
	}
	return dst, p[bitmapLen(n):], nil
}

// --- Outcome -------------------------------------------------------------

// outcomePayloadLen is the fixed outcome payload size.
const outcomePayloadLen = 1 + 1 + 4 + 4*8

// appendOutcome appends a complete outcome record to buf.
func appendOutcome(buf []byte, r *OutcomeRecord) []byte {
	start := len(buf)
	buf = appendHeader(buf, RecOutcome, r.Flags, r.Seq)
	missed := uint8(0)
	if r.Missed {
		missed = 1
	}
	buf = append(buf, r.State, missed)
	buf = appendU32(buf, r.Restarts)
	buf = appendU64(buf, uint64(r.Arrival))
	buf = appendU64(buf, uint64(r.Finish))
	buf = appendU64(buf, uint64(r.Deadline))
	buf = appendU64(buf, uint64(r.Response))
	return sealRecord(buf, start)
}

func decodeOutcomePayload(p []byte, flags uint16, r *OutcomeRecord) error {
	if len(p) != outcomePayloadLen {
		return fmt.Errorf("%w: outcome payload length %d, want %d", errCorrupt, len(p), outcomePayloadLen)
	}
	if flags&^uint16(FlagReplayed|FlagAborted) != 0 {
		return fmt.Errorf("%w: unknown outcome flags %#x", errCorrupt, flags)
	}
	if p[1] > 1 {
		return fmt.Errorf("%w: outcome missed byte %#x", errCorrupt, p[1])
	}
	r.Flags = flags
	r.State = p[0]
	r.Missed = p[1] != 0
	r.Restarts = getU32(p[2:])
	r.Arrival = time.Duration(getU64(p[6:]))
	r.Finish = time.Duration(getU64(p[14:]))
	r.Deadline = time.Duration(getU64(p[22:]))
	r.Response = time.Duration(getU64(p[30:]))
	return nil
}

// --- record-level decode -------------------------------------------------

// decodeRecord decodes exactly one record from the front of b, reusing
// sub/out's slices, and returns the header and the number of bytes
// consumed. Exactly one of sub/out is filled, selected by the returned
// header type. errShort means b ends mid-record (a torn tail when b is
// the end of a segment); every other failure wraps errCorrupt.
func decodeRecord(b []byte, sub *SubmitRecord, out *OutcomeRecord) (Header, int, error) {
	if len(b) < recLenPrefix {
		return Header{}, 0, fmt.Errorf("%w: %d header bytes", errShort, len(b))
	}
	n := int(getU32(b))
	if n < recRestLen+recCRCLen || n > maxRecord {
		return Header{}, 0, fmt.Errorf("%w: record length %d", errCorrupt, n)
	}
	if len(b) < recLenPrefix+n {
		return Header{}, 0, fmt.Errorf("%w: %d of %d record bytes", errShort, len(b)-recLenPrefix, n)
	}
	rec := b[recLenPrefix : recLenPrefix+n]
	body, crcb := rec[:n-recCRCLen], rec[n-recCRCLen:]
	if crc32.Checksum(body, crcTable) != getU32(crcb) {
		return Header{}, 0, fmt.Errorf("%w: checksum mismatch", errCorrupt)
	}
	h := Header{
		version: body[0],
		Type:    body[1],
		flags:   getU16(body[2:]),
		seq:     getU64(body[4:]),
	}
	if h.version != recordVersion {
		return Header{}, 0, fmt.Errorf("%w: record version %d", errCorrupt, h.version)
	}
	payload := body[recRestLen:]
	switch h.Type {
	case RecSubmit:
		if h.flags != 0 {
			return Header{}, 0, fmt.Errorf("%w: submit flags %#x", errCorrupt, h.flags)
		}
		sub.Seq = h.seq
		if err := decodeSubmitPayload(payload, sub); err != nil {
			return Header{}, 0, err
		}
	case RecOutcome:
		out.Seq = h.seq
		if err := decodeOutcomePayload(payload, h.flags, out); err != nil {
			return Header{}, 0, err
		}
	default:
		return Header{}, 0, fmt.Errorf("%w: record type %#x", errCorrupt, h.Type)
	}
	return h, recLenPrefix + n, nil
}
