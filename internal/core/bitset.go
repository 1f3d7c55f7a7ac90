package core

import (
	"math/bits"

	"repro/internal/txn"
)

// bitset is a fixed-capacity item set used on the engine's hot paths
// (unsafe/conflict tests run at every scheduling point). Capacity is the
// database size, so intersection tests are a handful of word ANDs.
type bitset []uint64

// newBitset returns an empty set able to hold items [0, n).
func newBitset(n int) bitset {
	return make(bitset, (n+63)/64)
}

// add inserts the item.
func (b bitset) add(it txn.Item) { b[int(it)/64] |= 1 << (uint(it) % 64) }

// contains reports membership; a nil set is empty.
func (b bitset) contains(it txn.Item) bool {
	w := int(it) / 64
	return w < len(b) && b[w]&(1<<(uint(it)%64)) != 0
}

// addDistinct inserts the listed items and returns them without repeats:
// the list itself when it has none (the common case allocates nothing), a
// fresh copy otherwise. b must not already hold any of them.
func (b bitset) addDistinct(items []txn.Item) []txn.Item {
	for i, it := range items {
		if b.contains(it) {
			out := append([]txn.Item(nil), items[:i]...)
			for _, it := range items[i+1:] {
				if !b.contains(it) {
					b.add(it)
					out = append(out, it)
				}
			}
			return out
		}
		b.add(it)
	}
	return items
}

// clear removes all items.
func (b bitset) clear() {
	for i := range b {
		b[i] = 0
	}
}

// any reports whether the set is non-empty.
func (b bitset) any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

// intersects reports whether b and o share an item.
func (b bitset) intersects(o bitset) bool {
	n := len(b)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if b[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

// forEach calls fn for every item in the set, in ascending order.
func (b bitset) forEach(fn func(it txn.Item)) {
	for i, w := range b {
		for ; w != 0; w &= w - 1 {
			fn(txn.Item(i*64 + bits.TrailingZeros64(w)))
		}
	}
}

// count returns the number of items in the set.
func (b bitset) count() int {
	n := 0
	for _, w := range b {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// fromItems builds a bitset of capacity n from an item list.
func fromItems(n int, items []txn.Item) bitset {
	b := newBitset(n)
	for _, it := range items {
		b.add(it)
	}
	return b
}
