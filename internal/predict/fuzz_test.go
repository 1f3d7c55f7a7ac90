package predict

import (
	"bytes"
	"testing"
	"time"
)

// FuzzTableCodec holds the stats-table serialization to the canonical-form
// contract under arbitrary input: any bytes the decoder accepts must
// re-marshal byte-identically, answer queries without panicking, and
// survive a second round trip.
func FuzzTableCodec(f *testing.F) {
	empty := New(Config{Types: 4, Window: 10 * time.Millisecond, Windows: 4, Decay: 0.5})
	b, _ := empty.MarshalBinary()
	f.Add(b)

	busy := New(Config{Types: 8, Window: 5 * time.Millisecond, Windows: 8, Decay: 0.25})
	for i := 0; i < 200; i++ {
		busy.Record(Kind(i%numKinds), i%8, (i*5)%8, time.Duration(i)*time.Millisecond)
	}
	b, _ = busy.MarshalBinary()
	f.Add(b)
	f.Add([]byte("RTPT"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var tab Table
		if err := tab.UnmarshalBinary(data); err != nil {
			return
		}
		wire, err := tab.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted table failed to marshal: %v", err)
		}
		var back Table
		if err := back.UnmarshalBinary(wire); err != nil {
			t.Fatalf("canonical form rejected: %v", err)
		}
		wire2, err := back.MarshalBinary()
		if err != nil {
			t.Fatalf("second marshal: %v", err)
		}
		if !bytes.Equal(wire, wire2) {
			t.Fatal("canonical form is not a fixed point")
		}
		// Queries on arbitrary accepted tables must be total.
		now := 123 * time.Millisecond
		tab.Rate(0, 0, now)
		tab.Rate(-5, 1<<20, now)
		tab.TopPairs(now, 4)
		tab.ActivePairs(now)
	})
}
