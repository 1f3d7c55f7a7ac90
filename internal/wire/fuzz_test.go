package wire

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/txn"
)

// FuzzWireRoundTrip feeds arbitrary bytes to the submit-payload decoder.
// The decoder must never panic; when it accepts a payload, re-encoding
// the decoded request must reproduce the payload byte for byte and decode
// to the same request (the canonical-encoding fixed point). The seed corpus under
// testdata/fuzz covers every optional-field shape.
func FuzzWireRoundTrip(f *testing.F) {
	for _, req := range submitFixturesF() {
		frame := AppendSubmit(nil, 1, &req)
		f.Add(frame[headerLen:])
	}
	f.Add([]byte{})
	f.Add(make([]byte, 29))
	// Corruption shapes from the chaos-injection work: a payload cut
	// mid-field, an item count far beyond the remaining bytes, and a
	// flags byte claiming optional sections that are not there.
	whole := AppendSubmit(nil, 1, &SubmitReq{
		Items: []txn.Item{5, 6, 7}, Reads: []bool{true, false, true},
		Compute: time.Millisecond, Deadline: time.Second,
	})[headerLen:]
	f.Add(whole[:len(whole)/2])
	huge := append([]byte{}, whole...)
	huge[0] = 0xff
	huge[1] = 0xff
	f.Add(huge)
	lying := append([]byte{}, whole...)
	lying[len(lying)-1] ^= 0xff
	f.Add(lying)

	f.Fuzz(func(t *testing.T, payload []byte) {
		var req SubmitReq
		if err := DecodeSubmit(payload, &req); err != nil {
			return
		}
		if req.Compute <= 0 || req.Deadline <= 0 {
			t.Fatalf("decoder accepted non-positive durations: %+v", req)
		}
		frame := AppendSubmit(nil, 99, &req)
		if !bytes.Equal(frame[headerLen:], payload) {
			t.Fatalf("re-encoding changed the payload:\n decoded %x\n encoded %x", payload, frame[headerLen:])
		}
		var again SubmitReq
		if err := DecodeSubmit(frame[headerLen:], &again); err != nil {
			t.Fatalf("re-encoded payload rejected: %v\nreq: %+v", err, req)
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("round trip diverged:\n first  %+v\n second %+v", req, again)
		}
	})
}

// submitFixturesF mirrors submitFixtures but adds degenerate shapes the
// fuzzer should start from.
func submitFixturesF() []SubmitReq {
	fx := submitFixtures()
	fx = append(fx,
		SubmitReq{Items: []txn.Item{0}, Compute: 1, Deadline: 1},
		SubmitReq{
			Items:   make([]txn.Item, 17),
			NeedsIO: make([]bool, 17),
			Compute: time.Hour, Deadline: time.Hour,
		},
	)
	return fx
}
