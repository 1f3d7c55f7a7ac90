package wal

import (
	"reflect"
	"testing"
	"time"
)

func submitFixtures() []SubmitRecord {
	return []SubmitRecord{
		{Seq: 1, Items: []int32{7}, Compute: time.Millisecond, Deadline: 40 * time.Millisecond},
		{Seq: 2, Items: []int32{1, 2, 3}, Reads: []bool{true, false, true},
			Compute: 3 * time.Millisecond, Deadline: time.Second, Criticality: 2, Class: 1},
		{Seq: 1 << 40, Items: []int32{9, 8, 7, 6, 5, 4, 3, 2, 1},
			Reads:   []bool{true, true, true, false, false, false, true, false, true},
			NeedsIO: []bool{false, false, true, true, false, false, false, true, false},
			Compute: 250 * time.Microsecond, Deadline: 10 * time.Millisecond,
			Criticality: -1, Class: 3},
		{Seq: 4, Items: nil, Compute: time.Microsecond, Deadline: time.Microsecond},
		{Seq: 5, Items: []int32{0, 1, 2, 3, 4, 5, 6, 7},
			NeedsIO: []bool{true, false, true, false, true, false, true, false},
			Compute: time.Millisecond, Deadline: time.Millisecond},
	}
}

func outcomeFixtures() []OutcomeRecord {
	return []OutcomeRecord{
		{Seq: 1, State: 3, Missed: false, Arrival: time.Millisecond, Finish: 2 * time.Millisecond,
			Deadline: 40 * time.Millisecond, Response: time.Millisecond},
		{Seq: 2, Flags: FlagReplayed, State: 4, Missed: true, Restarts: 3,
			Arrival: 0, Finish: time.Second, Deadline: time.Second / 2, Response: time.Second},
		{Seq: 1 << 40, Flags: FlagAborted, State: 5},
		{Seq: 3, Flags: FlagReplayed | FlagAborted, State: 0, Restarts: 1 << 30},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, want := range submitFixtures() {
		buf := AppendSubmit(nil, &want)
		var sub SubmitRecord
		var out OutcomeRecord
		h, n, err := decodeRecord(buf, &sub, &out)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if n != len(buf) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(buf))
		}
		if h.Type != RecSubmit || h.seq != want.Seq || h.version != recordVersion {
			t.Fatalf("header %+v for %+v", h, want)
		}
		if !reflect.DeepEqual(sub, want) {
			t.Fatalf("round trip diverged:\n want %+v\n got  %+v", want, sub)
		}
	}
	for _, want := range outcomeFixtures() {
		buf := appendOutcome(nil, &want)
		var sub SubmitRecord
		var out OutcomeRecord
		h, n, err := decodeRecord(buf, &sub, &out)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if n != len(buf) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(buf))
		}
		if h.Type != RecOutcome || h.seq != want.Seq || h.flags != want.Flags {
			t.Fatalf("header %+v for %+v", h, want)
		}
		if !reflect.DeepEqual(out, want) {
			t.Fatalf("round trip diverged:\n want %+v\n got  %+v", want, out)
		}
	}
}

// TestRecordStream decodes several records appended back to back, the
// way flush writes them.
func TestRecordStream(t *testing.T) {
	var buf []byte
	subs := submitFixtures()
	outs := outcomeFixtures()
	for i := range subs {
		buf = AppendSubmit(buf, &subs[i])
	}
	for i := range outs {
		buf = appendOutcome(buf, &outs[i])
	}
	var sub SubmitRecord
	var out OutcomeRecord
	var got int
	for off := 0; off < len(buf); {
		_, n, err := decodeRecord(buf[off:], &sub, &out)
		if err != nil {
			t.Fatalf("record %d at offset %d: %v", got, off, err)
		}
		off += n
		got++
	}
	if want := len(subs) + len(outs); got != want {
		t.Fatalf("decoded %d records, want %d", got, want)
	}
}

func TestRecordRejectsCorruption(t *testing.T) {
	base := AppendSubmit(nil, &submitFixtures()[1])
	var sub SubmitRecord
	var out OutcomeRecord

	// Every single-byte flip must fail the checksum (or a structural check).
	for i := range base {
		bad := append([]byte(nil), base...)
		bad[i] ^= 0x01
		if _, _, err := decodeRecord(bad, &sub, &out); err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		}
	}
	// Truncation at every boundary is errShort or errCorrupt, never a panic.
	for i := 0; i < len(base); i++ {
		if _, _, err := decodeRecord(base[:i], &sub, &out); err == nil {
			t.Fatalf("truncation to %d bytes accepted", i)
		}
	}
	// A record length below the minimum or above maxRecord is corrupt.
	tiny := append([]byte(nil), base...)
	tiny[0], tiny[1], tiny[2], tiny[3] = 1, 0, 0, 0
	if _, _, err := decodeRecord(tiny, &sub, &out); err == nil {
		t.Fatal("undersized length accepted")
	}
	huge := append([]byte(nil), base...)
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0xff
	if _, _, err := decodeRecord(huge, &sub, &out); err == nil {
		t.Fatal("oversized length accepted")
	}
}

// TestRecordZeroAlloc pins the append/decode hot path at zero
// allocations per record once buffers are warm, matching the wire
// codec's contract.
func TestRecordZeroAlloc(t *testing.T) {
	fix := submitFixtures()[2]
	ofix := outcomeFixtures()[1]
	buf := make([]byte, 0, 4096)
	sub := SubmitRecord{
		Items:   make([]int32, 0, 16),
		Reads:   make([]bool, 0, 16),
		NeedsIO: make([]bool, 0, 16),
	}
	var out OutcomeRecord
	encoded := AppendSubmit(nil, &fix)
	oencoded := appendOutcome(nil, &ofix)

	if n := testing.AllocsPerRun(200, func() {
		buf = AppendSubmit(buf[:0], &fix)
		buf = appendOutcome(buf, &ofix)
	}); n != 0 {
		t.Fatalf("append allocates %.1f times per record pair", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, _, err := decodeRecord(encoded, &sub, &out); err != nil {
			t.Fatal(err)
		}
		if _, _, err := decodeRecord(oencoded, &sub, &out); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("decode allocates %.1f times per record pair", n)
	}
}
