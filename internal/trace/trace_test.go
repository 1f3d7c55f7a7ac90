package trace

import (
	"strings"
	"testing"
	"time"
)

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		Arrival: "arrival", Dispatch: "dispatch", Preempt: "preempt",
		Wound: "wound", Block: "block", Wake: "wake",
		IOStart: "io-start", IODone: "io-done",
		Deadlock: "deadlock", Commit: "commit",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: 5 * time.Millisecond, Kind: Wound, Txn: 3, Other: 7, Item: 2}
	s := e.String()
	for _, want := range []string{"5.000ms", "wound", "T3", "T7", "item=2"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	e2 := Event{Kind: Dispatch, Txn: 1, Other: -1, Item: -1, Secondary: true}
	if !strings.Contains(e2.String(), "(secondary)") {
		t.Error("secondary marker missing")
	}
	if strings.Contains(e2.String(), "item=") {
		t.Error("item rendered despite -1")
	}
}

func TestBufferRecordsInOrder(t *testing.T) {
	var b Buffer
	for i := 0; i < 5; i++ {
		b.Record(Event{Kind: Arrival, Txn: i})
	}
	evs := b.Events()
	if len(evs) != 5 {
		t.Fatalf("len = %d", len(evs))
	}
	for i, e := range evs {
		if e.Txn != i {
			t.Fatalf("order violated at %d", i)
		}
	}
}

func TestBufferFilter(t *testing.T) {
	b := Buffer{Filter: func(e Event) bool { return e.Kind == Wound }}
	b.Record(Event{Kind: Arrival})
	b.Record(Event{Kind: Wound, Txn: 9})
	b.Record(Event{Kind: Commit})
	if len(b.Events()) != 1 || b.Events()[0].Txn != 9 {
		t.Fatalf("filter failed: %v", b.Events())
	}
}

func TestBufferCapacityDropsOldest(t *testing.T) {
	b := Buffer{Cap: 3}
	for i := 0; i < 5; i++ {
		b.Record(Event{Txn: i})
	}
	evs := b.Events()
	if len(evs) != 3 || evs[0].Txn != 2 || evs[2].Txn != 4 {
		t.Fatalf("ring behaviour wrong: %v", evs)
	}
	if b.dropped != 2 {
		t.Fatalf("Dropped = %d", b.dropped)
	}
}

func TestOfKindAndCount(t *testing.T) {
	var b Buffer
	b.Record(Event{Kind: Wound})
	b.Record(Event{Kind: Commit})
	b.Record(Event{Kind: Wound})
	if b.Count(Wound) != 2 || b.Count(Commit) != 1 || b.Count(Deadlock) != 0 {
		t.Fatal("counts wrong")
	}
	if len(b.OfKind(Wound)) != 2 {
		t.Fatal("OfKind wrong")
	}
}
