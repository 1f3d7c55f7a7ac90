// Package wire is the binary serving protocol: length-prefixed frames
// over persistent, pipelined TCP connections. It exists because the
// HTTP/JSON path pays for itself in allocations — request parsing,
// header maps, response marshalling — long before the scheduling engine
// becomes the bottleneck. The frame codecs here are append-style and
// decode into caller-owned, reusable buffers, so a warmed submit path
// encodes and decodes with zero allocations per frame (proven by
// testing.AllocsPerRun in the codec tests).
//
// Frame layout (all integers little-endian):
//
//	uint32  length   // bytes that follow (12-byte rest-of-header + payload)
//	uint8   version  // protocol version, currently 1
//	uint8   type     // Frame* constant
//	uint16  flags    // reserved, must be zero
//	uint64  id       // request id, echoed verbatim in the response
//	payload ...
//
// Responses may arrive out of order relative to requests; the id is the
// correlation key. A connection is full-duplex: the client keeps writing
// pipelined requests while responses stream back.
package wire

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/txn"
)

// version is the protocol version carried in every frame header.
const version = 1

// headerLen is the full frame header size; lenPrefix the leading length
// word; restLen the part of the header covered by the length word.
const (
	headerLen = 16
	lenPrefix = 4
	restLen   = headerLen - lenPrefix
)

// HeaderLen is the fixed frame header size in bytes: an encoded frame's
// payload starts at offset HeaderLen.
const HeaderLen = headerLen

// defaultMaxFrame bounds a single frame (header + payload). Large enough
// for any sane transaction or metrics snapshot, small enough that a
// hostile length prefix cannot balloon memory.
const defaultMaxFrame = 1 << 20

// Frame types. Every request type has a response type; Error answers a
// frame the server could parse enough to correlate but not serve.
const (
	frameSubmit      = 0x01
	FrameSubmitResp  = 0x02
	frameMetrics     = 0x03
	FrameMetricsResp = 0x04
	frameHealth      = 0x05
	FrameHealthResp  = 0x06
	frameError       = 0x7f
)

// Submit response status codes (SubmitResp.Status).
const (
	StatusCommitted = 0 // committed (check Missed for a late commit)
	StatusDropped   = 1 // wounded by cancellation or drain
	StatusRejected  = 2 // admission control turned it away
	StatusShed      = 3 // never reached the engine: overload or draining
	StatusInvalid   = 4 // malformed or rejected by validation
	StatusFailed    = 5 // engine failed with the submission in flight; outcome unknown
)

// statusMeta is what each status tells a client, in either protocol: the
// HTTP code /submit answers with, and whether the answer carries a retry hint
// (SubmitResp.RetryAfter, the Retry-After header). Failed has none on
// purpose: the transaction may have partially run (or run without a durable
// record), so blind resubmission could double-execute it.
var statusMeta = [...]struct {
	http  int
	retry bool
}{
	StatusCommitted: {200, false},
	StatusDropped:   {503, false},
	StatusRejected:  {503, true},
	StatusShed:      {503, true},
	StatusInvalid:   {400, false},
	StatusFailed:    {500, false},
}

// Classify is the one place an answer — a Submission.Done's (outcome, error)
// pair — becomes a status. Everything that needs to tell answers apart (the
// wire response, the HTTP code, the server's request counters, the replay
// tallies) looks the result up instead of testing the error itself.
func Classify(o core.ServiceOutcome, err error) (status uint8, httpCode int, retry bool) {
	switch {
	case err == nil:
		switch o.State {
		case core.StateCommitted:
			status = StatusCommitted
		case core.StateRejected:
			status = StatusRejected
		default:
			status = StatusDropped
		}
	case errors.Is(err, core.ErrEngineFailed), errors.Is(err, core.ErrLogFailed):
		status = StatusFailed
	case errors.Is(err, core.ErrDraining), errors.Is(err, core.ErrServiceStopped):
		status = StatusShed
	default:
		status = StatusInvalid
	}
	m := statusMeta[status]
	return status, m.http, m.retry
}

// errFrameTooLarge reports a length prefix above the reader's cap.
var errFrameTooLarge = errors.New("wire: frame exceeds size limit")

// errVersion reports a frame with an unknown protocol version.
var errVersion = errors.New("wire: unsupported protocol version")

// Header is a decoded frame header.
type Header struct {
	version uint8
	Type    uint8
	flags   uint16
	ID      uint64
}

// SubmitReq is the decoded form of a frameSubmit payload. It mirrors
// core.ServiceRequest; Decode reuses the slices across calls, so a
// steady-state connection decodes without allocating.
type SubmitReq struct {
	Items       []txn.Item
	Reads       []bool
	NeedsIO     []bool
	Compute     time.Duration
	Deadline    time.Duration
	Criticality int
	Class       int
}

// SubmitResp is the decoded form of a FrameSubmitResp payload.
type SubmitResp struct {
	Status     uint8
	Missed     bool
	RetryAfter uint16 // seconds; set on StatusShed and StatusRejected
	restarts   uint32
	Arrival    time.Duration
	Finish     time.Duration
	Deadline   time.Duration
	Response   time.Duration
	Seq        uint64 // write-ahead-log sequence number (0: WAL disabled)
	Err        string // human-readable reason for Shed/Invalid
}

// HealthResp is the decoded form of a FrameHealthResp payload.
type HealthResp struct {
	Healthy  bool
	Draining bool
	Err      string
}

// --- primitive append/consume helpers -----------------------------------

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

func getU16(b []byte) uint16 {
	return uint16(b[0]) | uint16(b[1])<<8
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func getU64(b []byte) uint64 {
	return uint64(getU32(b)) | uint64(getU32(b[4:]))<<32
}

// appendHeader reserves the frame header; the caller patches the length
// word afterwards via patchLen with the same start offset.
func appendHeader(buf []byte, typ uint8, id uint64) []byte {
	buf = appendU32(buf, 0) // length, patched later
	buf = append(buf, version, typ)
	buf = appendU16(buf, 0) // flags
	return appendU64(buf, id)
}

func patchLen(buf []byte, start int) []byte {
	n := uint32(len(buf) - start - lenPrefix)
	buf[start] = byte(n)
	buf[start+1] = byte(n >> 8)
	buf[start+2] = byte(n >> 16)
	buf[start+3] = byte(n >> 24)
	return buf
}

// parseRest decodes the post-length header fields from the first restLen
// bytes of the length-covered region.
func parseRest(b []byte) Header {
	return Header{
		version: b[0],
		Type:    b[1],
		flags:   getU16(b[2:]),
		ID:      getU64(b[4:]),
	}
}

// --- Submit -------------------------------------------------------------

// Payload flag bits for frameSubmit.
const (
	submitHasReads = 1 << 0
	submitHasIO    = 1 << 1
)

// AppendSubmit appends a complete frameSubmit to buf and returns the
// extended slice. It never allocates beyond growing buf.
func AppendSubmit(buf []byte, id uint64, r *SubmitReq) []byte {
	start := len(buf)
	buf = appendHeader(buf, frameSubmit, id)
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
		buf = appendU32(buf, uint32(int32(it)))
	}
	buf = appendBitmap(buf, r.Reads)
	buf = appendBitmap(buf, r.NeedsIO)
	return patchLen(buf, start)
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

// DecodeSubmit decodes a frameSubmit payload (the bytes after the
// header) into r, reusing r's slices. The encoding is canonical: any
// trailing or missing bytes, and any nonzero padding bit after a bitmap's
// last item, are an error, so Append∘Decode is the identity and
// Decode∘Append is the identity on valid payloads.
//
// Validation here mirrors the JSON path's jsonDuration rules: a
// submission with a negative or zero compute time or deadline is
// rejected at the codec, before it can reach the engine.
func DecodeSubmit(p []byte, r *SubmitReq) error {
	const fixed = 8 + 8 + 4 + 4 + 4 + 1
	if len(p) < fixed {
		return fmt.Errorf("wire: submit payload truncated (%d bytes)", len(p))
	}
	r.Compute = time.Duration(getU64(p))
	r.Deadline = time.Duration(getU64(p[8:]))
	r.Criticality = int(int32(getU32(p[16:])))
	r.Class = int(int32(getU32(p[20:])))
	n := int(getU32(p[24:]))
	bits := p[28]
	p = p[fixed:]

	if r.Compute <= 0 {
		return fmt.Errorf("wire: compute must be positive, got %v", r.Compute)
	}
	if r.Deadline <= 0 {
		return fmt.Errorf("wire: deadline must be positive, got %v", r.Deadline)
	}
	if bits&^uint8(submitHasReads|submitHasIO) != 0 {
		return fmt.Errorf("wire: unknown submit flag bits %#x", bits)
	}
	want := 4 * n
	if bits&submitHasReads != 0 {
		want += bitmapLen(n)
	}
	if bits&submitHasIO != 0 {
		want += bitmapLen(n)
	}
	if n < 0 || n > math.MaxInt32 || len(p) != want {
		return fmt.Errorf("wire: submit payload length %d, want %d for %d items", len(p), want, n)
	}

	// Canonical encoding: the padding bits past n in each bitmap's last
	// byte are zero.
	if rem, l := n%8, bitmapLen(n); rem != 0 {
		for last := 4*n + l - 1; last < len(p); last += l {
			if p[last]>>rem != 0 {
				return errors.New("wire: nonzero bitmap padding")
			}
		}
	}

	r.Items = r.Items[:0]
	for i := 0; i < n; i++ {
		r.Items = append(r.Items, txn.Item(int32(getU32(p[4*i:]))))
	}
	p = p[4*n:]
	r.Reads, p = decodeBitmap(p, r.Reads, n, bits&submitHasReads != 0)
	r.NeedsIO, _ = decodeBitmap(p, r.NeedsIO, n, bits&submitHasIO != 0)
	return nil
}

// emptyBools keeps a decoded present-but-empty bitmap distinguishable
// from an absent one (non-nil slice) without allocating.
var emptyBools = make([]bool, 0)

func decodeBitmap(p []byte, dst []bool, n int, present bool) ([]bool, []byte) {
	if !present {
		return nil, p
	}
	if dst == nil {
		dst = emptyBools
	}
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, p[i/8]&(1<<(i%8)) != 0)
	}
	return dst, p[bitmapLen(n):]
}

// --- SubmitResp ---------------------------------------------------------

// AppendSubmitResp appends a complete FrameSubmitResp to buf.
func AppendSubmitResp(buf []byte, id uint64, r *SubmitResp) []byte {
	start := len(buf)
	buf = appendHeader(buf, FrameSubmitResp, id)
	missed := uint8(0)
	if r.Missed {
		missed = 1
	}
	buf = append(buf, r.Status, missed)
	buf = appendU16(buf, r.RetryAfter)
	buf = appendU32(buf, r.restarts)
	buf = appendU64(buf, uint64(r.Arrival))
	buf = appendU64(buf, uint64(r.Finish))
	buf = appendU64(buf, uint64(r.Deadline))
	buf = appendU64(buf, uint64(r.Response))
	buf = appendU64(buf, r.Seq)
	buf = appendU16(buf, uint16(len(r.Err)))
	buf = append(buf, r.Err...)
	return patchLen(buf, start)
}

// DecodeSubmitResp decodes a FrameSubmitResp payload into r. The Err
// string is copied out of p (strings are immutable; p is reused).
func DecodeSubmitResp(p []byte, r *SubmitResp) error {
	const fixed = 2 + 2 + 4 + 5*8 + 2
	if len(p) < fixed {
		return fmt.Errorf("wire: submit response truncated (%d bytes)", len(p))
	}
	r.Status = p[0]
	r.Missed = p[1] != 0
	r.RetryAfter = getU16(p[2:])
	r.restarts = getU32(p[4:])
	r.Arrival = time.Duration(getU64(p[8:]))
	r.Finish = time.Duration(getU64(p[16:]))
	r.Deadline = time.Duration(getU64(p[24:]))
	r.Response = time.Duration(getU64(p[32:]))
	r.Seq = getU64(p[40:])
	en := int(getU16(p[48:]))
	if len(p) != fixed+en {
		return fmt.Errorf("wire: submit response length %d, want %d", len(p), fixed+en)
	}
	r.Err = ""
	if en > 0 {
		r.Err = string(p[fixed:])
	}
	return nil
}

// --- Metrics and Health -------------------------------------------------

// AppendMetricsReq appends an empty-payload frameMetrics request.
func AppendMetricsReq(buf []byte, id uint64) []byte {
	start := len(buf)
	buf = appendHeader(buf, frameMetrics, id)
	return patchLen(buf, start)
}

// appendMetricsResp appends a FrameMetricsResp carrying body verbatim
// (the same JSON document the HTTP /metrics endpoint serves).
func appendMetricsResp(buf []byte, id uint64, body []byte) []byte {
	start := len(buf)
	buf = appendHeader(buf, FrameMetricsResp, id)
	buf = append(buf, body...)
	return patchLen(buf, start)
}

// AppendHealthReq appends an empty-payload frameHealth request.
func AppendHealthReq(buf []byte, id uint64) []byte {
	start := len(buf)
	buf = appendHeader(buf, frameHealth, id)
	return patchLen(buf, start)
}

// AppendHealthResp appends a FrameHealthResp.
func AppendHealthResp(buf []byte, id uint64, r *HealthResp) []byte {
	start := len(buf)
	buf = appendHeader(buf, FrameHealthResp, id)
	var h, d uint8
	if r.Healthy {
		h = 1
	}
	if r.Draining {
		d = 1
	}
	buf = append(buf, h, d)
	buf = appendU16(buf, uint16(len(r.Err)))
	buf = append(buf, r.Err...)
	return patchLen(buf, start)
}

// DecodeHealthResp decodes a FrameHealthResp payload.
func DecodeHealthResp(p []byte, r *HealthResp) error {
	if len(p) < 4 {
		return fmt.Errorf("wire: health response truncated (%d bytes)", len(p))
	}
	r.Healthy = p[0] != 0
	r.Draining = p[1] != 0
	en := int(getU16(p[2:]))
	if len(p) != 4+en {
		return fmt.Errorf("wire: health response length %d, want %d", len(p), 4+en)
	}
	r.Err = ""
	if en > 0 {
		r.Err = string(p[4:])
	}
	return nil
}

// appendError appends a frameError answering request id with a reason.
func appendError(buf []byte, id uint64, msg string) []byte {
	start := len(buf)
	buf = appendHeader(buf, frameError, id)
	buf = append(buf, msg...)
	return patchLen(buf, start)
}
