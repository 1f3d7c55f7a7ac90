package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/txn"
)

// loopReader serves its data endlessly: a synthetic infinite frame
// stream for allocation measurements.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.data[l.off:])
	l.off = (l.off + n) % len(l.data)
	return n, nil
}

func submitFixtures() []SubmitReq {
	return []SubmitReq{
		{
			Items:    []txn.Item{1, 2, 3},
			Compute:  250 * time.Microsecond,
			Deadline: 40 * time.Millisecond,
		},
		{
			Items:       []txn.Item{7},
			Reads:       []bool{true},
			Compute:     time.Millisecond,
			Deadline:    time.Second,
			Criticality: 2,
			Class:       1,
		},
		{
			Items:   []txn.Item{0, 5, 9, 12, 13, 14, 20, 21, 22},
			Reads:   []bool{true, false, true, true, false, false, true, false, true},
			NeedsIO: []bool{false, true, false, false, true, true, false, true, false},
			Compute: 10 * time.Microsecond, Deadline: 5 * time.Millisecond,
		},
	}
}

func decodeOneFrame(t *testing.T, frame []byte, wantType uint8) (Header, []byte) {
	t.Helper()
	fr := NewFrameReader(bytes.NewReader(frame), 0)
	h, p, err := fr.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if h.Type != wantType {
		t.Fatalf("frame type %#x, want %#x", h.Type, wantType)
	}
	return h, p
}

func TestSubmitRoundTrip(t *testing.T) {
	for i, in := range submitFixtures() {
		frame := AppendSubmit(nil, uint64(100+i), &in)
		h, p := decodeOneFrame(t, frame, frameSubmit)
		if h.ID != uint64(100+i) {
			t.Fatalf("id %d, want %d", h.ID, 100+i)
		}
		var out SubmitReq
		if err := DecodeSubmit(p, &out); err != nil {
			t.Fatalf("fixture %d: %v", i, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("fixture %d round trip:\n in  %+v\n out %+v", i, in, out)
		}
	}
}

func TestSubmitRespRoundTrip(t *testing.T) {
	for i, in := range []SubmitResp{
		{Status: StatusCommitted, Arrival: time.Second, Finish: 2 * time.Second,
			Deadline: 3 * time.Second, Response: time.Second, restarts: 2},
		{Status: StatusShed, RetryAfter: 7, Err: "server draining", Missed: true},
		{Status: StatusInvalid, Err: "wire: compute must be positive, got -1ns"},
	} {
		frame := AppendSubmitResp(nil, uint64(i), &in)
		_, p := decodeOneFrame(t, frame, FrameSubmitResp)
		var out SubmitResp
		if err := DecodeSubmitResp(p, &out); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if in != out {
			t.Fatalf("case %d round trip:\n in  %+v\n out %+v", i, in, out)
		}
	}
}

func TestHealthAndErrorFrames(t *testing.T) {
	in := HealthResp{Healthy: false, Draining: true, Err: "stall detected"}
	_, p := decodeOneFrame(t, AppendHealthResp(nil, 9, &in), FrameHealthResp)
	var out HealthResp
	if err := DecodeHealthResp(p, &out); err != nil {
		t.Fatal(err)
	}
	if in != out {
		t.Fatalf("health round trip: in %+v out %+v", in, out)
	}

	h, p := decodeOneFrame(t, appendError(nil, 42, "boom"), frameError)
	if h.ID != 42 || string(p) != "boom" {
		t.Fatalf("error frame: id %d payload %q", h.ID, p)
	}

	_, p = decodeOneFrame(t, AppendMetricsReq(nil, 3), frameMetrics)
	if len(p) != 0 {
		t.Fatalf("metrics request payload %d bytes, want 0", len(p))
	}
	_, p = decodeOneFrame(t, appendMetricsResp(nil, 3, []byte(`{"x":1}`)), FrameMetricsResp)
	if string(p) != `{"x":1}` {
		t.Fatalf("metrics response payload %q", p)
	}
}

// TestCodecZeroAlloc is the tentpole's zero-allocation proof: with
// warmed buffers, encoding a submit frame, framing it back out of a
// stream, and decoding both directions allocates nothing.
func TestCodecZeroAlloc(t *testing.T) {
	req := SubmitReq{
		Items:   []txn.Item{3, 1, 4, 1, 5, 9, 2, 6},
		Reads:   []bool{true, false, true, false, true, false, true, false},
		Compute: 100 * time.Microsecond, Deadline: 10 * time.Millisecond,
	}
	resp := SubmitResp{Status: StatusCommitted, Arrival: 1, Finish: 2, Deadline: 3, Response: 1}

	var frame []byte
	var dec SubmitReq
	var decResp SubmitResp
	// Warm the buffers so growth is out of the measured window.
	frame = AppendSubmit(frame[:0], 1, &req)
	if err := DecodeSubmit(frame[headerLen:], &dec); err != nil {
		t.Fatal(err)
	}

	if n := testing.AllocsPerRun(200, func() {
		frame = AppendSubmit(frame[:0], 1, &req)
		if err := DecodeSubmit(frame[headerLen:], &dec); err != nil {
			t.Fatal(err)
		}
		frame = AppendSubmitResp(frame[:0], 1, &resp)
		if err := DecodeSubmitResp(frame[headerLen:], &decResp); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("codec allocates %v times per round trip, want 0", n)
	}

	// The stream reader is allocation-free too once its buffer has grown.
	src := AppendSubmit(nil, 7, &req)
	fr := NewFrameReader(&loopReader{data: src}, 0)
	for i := 0; i < 4; i++ { // warm the reader's frame buffer
		if _, _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(40, func() {
		h, p, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if h.Type != frameSubmit {
			t.Fatal("bad type")
		}
		if err := DecodeSubmit(p, &dec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("frame reader allocates %v times per frame, want 0", n)
	}
}

// TestDecodeSubmitRejectsBadDurations mirrors the JSON path's
// jsonDuration validation on the binary side: non-positive compute or
// deadline never reaches the engine.
func TestDecodeSubmitRejectsBadDurations(t *testing.T) {
	for _, tc := range []struct {
		name              string
		compute, deadline time.Duration
		want              string
	}{
		{"negative compute", -time.Millisecond, time.Second, "compute"},
		{"zero compute", 0, time.Second, "compute"},
		{"negative deadline", time.Millisecond, -time.Second, "deadline"},
		{"zero deadline", time.Millisecond, 0, "deadline"},
	} {
		req := SubmitReq{Items: []txn.Item{1}, Compute: tc.compute, Deadline: tc.deadline}
		frame := AppendSubmit(nil, 1, &req)
		var out SubmitReq
		err := DecodeSubmit(frame[headerLen:], &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

func TestFrameReaderRejectsGarbage(t *testing.T) {
	// Oversized length prefix.
	big := appendU32(nil, 1<<28)
	big = append(big, make([]byte, 32)...)
	if _, _, err := NewFrameReader(bytes.NewReader(big), 1<<16).Next(); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("oversized frame: err = %v, want errFrameTooLarge", err)
	}

	// Wrong protocol version.
	frame := AppendSubmit(nil, 1, &SubmitReq{Items: []txn.Item{1}, Compute: 1, Deadline: 1})
	frame[lenPrefix] = 99
	if _, _, err := NewFrameReader(bytes.NewReader(frame), 0).Next(); !errors.Is(err, errVersion) {
		t.Fatalf("bad version: err = %v, want errVersion", err)
	}

	// Reserved flags set.
	frame = AppendSubmit(nil, 1, &SubmitReq{Items: []txn.Item{1}, Compute: 1, Deadline: 1})
	frame[lenPrefix+2] = 1
	if _, _, err := NewFrameReader(bytes.NewReader(frame), 0).Next(); err == nil {
		t.Fatal("reserved flags accepted")
	}

	// Length below the minimum header size.
	short := appendU32(nil, restLen-1)
	short = append(short, make([]byte, restLen)...)
	if _, _, err := NewFrameReader(bytes.NewReader(short), 0).Next(); err == nil {
		t.Fatal("undersized frame accepted")
	}

	// Truncated mid-frame.
	frame = AppendSubmit(nil, 1, &SubmitReq{Items: []txn.Item{1}, Compute: 1, Deadline: 1})
	if _, _, err := NewFrameReader(bytes.NewReader(frame[:len(frame)-2]), 0).Next(); err == nil {
		t.Fatal("truncated frame accepted")
	}

	// Clean EOF between frames is io.EOF exactly.
	if _, _, err := NewFrameReader(bytes.NewReader(nil), 0).Next(); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
}

// TestSubmitDecodeLengthStrict checks the canonical-encoding rule: any
// surplus or deficit in the payload is rejected rather than ignored.
func TestSubmitDecodeLengthStrict(t *testing.T) {
	req := SubmitReq{Items: []txn.Item{1, 2}, Compute: 1, Deadline: 1}
	frame := AppendSubmit(nil, 1, &req)
	payload := frame[headerLen:]
	var out SubmitReq
	if err := DecodeSubmit(append(append([]byte(nil), payload...), 0), &out); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if err := DecodeSubmit(payload[:len(payload)-1], &out); err == nil {
		t.Fatal("missing byte accepted")
	}
}
