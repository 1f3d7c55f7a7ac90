package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/txn"
)

// submitFrame builds one well-formed submit frame for corruption tests.
func submitFrame(t *testing.T) []byte {
	t.Helper()
	return AppendSubmit(nil, 7, &SubmitReq{
		Items:    []txn.Item{1, 2},
		Compute:  time.Millisecond,
		Deadline: 50 * time.Millisecond,
	})
}

// TestFrameReaderTruncatedMidFrame: a frame cut anywhere after the
// length prefix must come back as io.ErrUnexpectedEOF — never io.EOF
// (which means clean close), never a hang, never a panic.
func TestFrameReaderTruncatedMidFrame(t *testing.T) {
	frame := submitFrame(t)
	for cut := lenPrefix; cut < len(frame); cut++ {
		fr := NewFrameReader(bytes.NewReader(frame[:cut]), 0)
		_, _, err := fr.Next()
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d/%d: err = %v, want io.ErrUnexpectedEOF", cut, len(frame), err)
		}
	}
	// A cut inside the length prefix itself is indistinguishable from a
	// torn close and also must not hang.
	for cut := 1; cut < lenPrefix; cut++ {
		fr := NewFrameReader(bytes.NewReader(frame[:cut]), 0)
		if _, _, err := fr.Next(); err == nil {
			t.Fatalf("cut at %d: no error", cut)
		}
	}
}

// TestFrameReaderOversizedLength: a length prefix above the reader's cap
// is refused before any allocation of that size.
func TestFrameReaderOversizedLength(t *testing.T) {
	var buf []byte
	buf = binary.LittleEndian.AppendUint32(buf, 1<<30)
	fr := NewFrameReader(bytes.NewReader(buf), 0)
	if _, _, err := fr.Next(); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("err = %v, want errFrameTooLarge", err)
	}
	// Undersized too: a length below the header remainder is structurally
	// impossible and must be a clean error.
	buf = binary.LittleEndian.AppendUint32(nil, uint32(restLen-1))
	fr = NewFrameReader(bytes.NewReader(buf), 0)
	if _, _, err := fr.Next(); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("undersized length: err = %v, want structural error", err)
	}
}

// TestFrameReaderGarbageHeader: wrong version and reserved flags are
// both refused with a clean error after the full frame is consumed.
func TestFrameReaderGarbageHeader(t *testing.T) {
	frame := submitFrame(t)

	bad := bytes.Clone(frame)
	bad[lenPrefix] = version + 9 // version byte
	fr := NewFrameReader(bytes.NewReader(bad), 0)
	if _, _, err := fr.Next(); !errors.Is(err, errVersion) {
		t.Fatalf("bad version: err = %v, want errVersion", err)
	}

	bad = bytes.Clone(frame)
	bad[lenPrefix+2] |= 0x40 // reserved flags byte
	fr = NewFrameReader(bytes.NewReader(bad), 0)
	if _, _, err := fr.Next(); err == nil {
		t.Fatal("reserved flags accepted")
	}

	// Pure garbage: random-looking bytes must produce an error, not a
	// panic, regardless of what the length word decodes to.
	garbage := []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06}
	fr = NewFrameReader(bytes.NewReader(garbage), 0)
	if _, _, err := fr.Next(); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestFrameReaderResyncAfterError: one bad frame poisons the connection
// (the server closes it), but the reader itself must stay usable on a
// fresh stream — no shared state corruption.
func TestFrameReaderResyncAfterError(t *testing.T) {
	good := submitFrame(t)
	bad := bytes.Clone(good)
	bad[lenPrefix] = version + 1
	fr := NewFrameReader(bytes.NewReader(append(bytes.Clone(bad), good...)), 0)
	if _, _, err := fr.Next(); !errors.Is(err, errVersion) {
		t.Fatalf("first frame: %v", err)
	}
	// The stream position is still frame-aligned (the whole bad frame was
	// consumed), so the next frame parses.
	h, payload, err := fr.Next()
	if err != nil {
		t.Fatalf("second frame: %v", err)
	}
	if h.ID != 7 {
		t.Fatalf("second frame id %d, want 7", h.ID)
	}
	var req SubmitReq
	if err := DecodeSubmit(payload, &req); err != nil {
		t.Fatalf("second frame payload: %v", err)
	}
}

// FuzzFrameReader feeds arbitrary byte streams to the frame reader. It
// must never panic and never read past the stream; every outcome is a
// (Header, payload) pair or a clean error.
func FuzzFrameReader(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint32(nil, 1<<31))
	f.Add(binary.LittleEndian.AppendUint32(nil, 0))
	good := AppendSubmit(nil, 3, &SubmitReq{Items: []txn.Item{4}, Compute: 1, Deadline: 1})
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add(append(bytes.Clone(good), good...))

	f.Fuzz(func(t *testing.T, stream []byte) {
		fr := NewFrameReader(bytes.NewReader(stream), 1<<16)
		for i := 0; i < 64; i++ { // bounded: a stream yields finitely many frames
			h, payload, err := fr.Next()
			if err != nil {
				return
			}
			if len(payload) > 1<<16 {
				t.Fatalf("payload %d bytes exceeds cap", len(payload))
			}
			_ = h
		}
	})
}
