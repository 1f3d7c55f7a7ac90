package wal

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// FuzzWALRecord feeds arbitrary bytes to the record decoder. The
// decoder must never panic; when it accepts a record, re-encoding the
// decoded form must reproduce the input bytes exactly (the WAL codec
// is canonical down to the checksum, unlike the wire codec's
// payload-level fixed point), and the decoder must consume the whole
// record. The seed corpus covers both record types, every
// optional-field shape, and the corruption shapes recovery meets in
// practice: truncated tails, flipped checksum bytes, lying length
// words, and the zeros a preallocated segment ends in (which must never
// decode: recovery takes an all-zero remainder as the end of a segment).
func FuzzWALRecord(f *testing.F) {
	for _, r := range submitFixtures() {
		f.Add(AppendSubmit(nil, &r))
	}
	for _, r := range outcomeFixtures() {
		f.Add(appendOutcome(nil, &r))
	}
	whole := AppendSubmit(nil, &SubmitRecord{
		Seq: 42, Items: []int32{5, 6, 7}, Reads: []bool{true, false, true},
		Compute: time.Millisecond, Deadline: time.Second,
	})
	f.Add([]byte{})
	f.Add(whole[:len(whole)/2]) // torn mid-record
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)-1] ^= 0xff // bad checksum
	f.Add(flipped)
	lying := append([]byte(nil), whole...)
	lying[0] = 0xff // length word far past the buffer
	f.Add(lying)
	f.Add(append(append([]byte(nil), whole...), 0xde, 0xad)) // trailing garbage
	for n := 1; n <= 64; n++ {
		f.Add(make([]byte, n)) // a zero tail of every short length
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var sub SubmitRecord
		var out OutcomeRecord
		h, n, err := decodeRecord(data, &sub, &out)
		if err != nil {
			return
		}
		if allZero(data[:n]) {
			t.Fatalf("decoder accepted %d zero bytes as a record", n)
		}
		var again []byte
		switch h.Type {
		case RecSubmit:
			again = AppendSubmit(nil, &sub)
		case RecOutcome:
			again = appendOutcome(nil, &out)
		default:
			t.Fatalf("decoder accepted unknown type %#x", h.Type)
		}
		if !bytes.Equal(again, data[:n]) {
			t.Fatalf("re-encode diverged:\n in  %x\n out %x", data[:n], again)
		}
		// Decoding the re-encoded bytes must agree field-for-field.
		var sub2 SubmitRecord
		var out2 OutcomeRecord
		h2, n2, err := decodeRecord(again, &sub2, &out2)
		if err != nil || n2 != len(again) || h2 != h {
			t.Fatalf("re-encoded record rejected: %v (n=%d h=%+v)", err, n2, h2)
		}
		if h.Type == RecSubmit && !reflect.DeepEqual(sub, sub2) {
			t.Fatalf("submit round trip diverged:\n %+v\n %+v", sub, sub2)
		}
		if h.Type == RecOutcome && !reflect.DeepEqual(out, out2) {
			t.Fatalf("outcome round trip diverged:\n %+v\n %+v", out, out2)
		}
		// Trailing bytes after a valid record are never silently eaten.
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
	})
}
