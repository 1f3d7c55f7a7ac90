package core

import (
	"testing"
	"testing/quick"

	"repro/internal/txn"
)

func TestBitsetBasics(t *testing.T) {
	b := newBitset(130)
	if b.any() {
		t.Fatal("fresh bitset non-empty")
	}
	for _, it := range []txn.Item{0, 63, 64, 129} {
		b.add(it)
		if !b.contains(it) {
			t.Fatalf("missing item %d", it)
		}
	}
	if b.count() != 4 {
		t.Fatalf("count = %d, want 4", b.count())
	}
	if b.contains(5) {
		t.Fatal("spurious member")
	}
	b.clear()
	if b.any() || b.count() != 0 {
		t.Fatal("clear did not empty the set")
	}
}

func TestBitsetIntersects(t *testing.T) {
	a := fromItems(100, []txn.Item{1, 70})
	b := fromItems(100, []txn.Item{70, 99})
	c := fromItems(100, []txn.Item{2, 3})
	if !a.intersects(b) || !b.intersects(a) {
		t.Fatal("overlap not detected")
	}
	if a.intersects(c) || c.intersects(a) {
		t.Fatal("false overlap")
	}
	var zero bitset
	if zero.intersects(a) || a.intersects(zero) {
		t.Fatal("empty set intersects")
	}
}

func TestBitsetMatchesTxnSet(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		const n = 256
		ia := make([]txn.Item, len(xs))
		for i, x := range xs {
			ia[i] = txn.Item(x)
		}
		ib := make([]txn.Item, len(ys))
		for i, y := range ys {
			ib[i] = txn.Item(y)
		}
		ba, bb := fromItems(n, ia), fromItems(n, ib)
		sa, sb := txn.NewSet(ia...), txn.NewSet(ib...)
		if ba.count() != sa.Len() || bb.count() != sb.Len() {
			return false
		}
		return ba.intersects(bb) == sa.Intersects(sb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// fromItems builds a bitset of capacity n from an item list.
func fromItems(n int, items []txn.Item) bitset {
	b := newBitset(n)
	for _, it := range items {
		b.add(it)
	}
	return b
}
