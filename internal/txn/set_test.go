package txn

import (
	"testing"
	"testing/quick"
)

func TestSetBasics(t *testing.T) {
	s := NewSet(3, 1, 2, 3)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (duplicates collapse)", s.Len())
	}
	if !s.Contains(1) || !s.Contains(2) || !s.Contains(3) {
		t.Fatal("missing member")
	}
	if s.Contains(4) {
		t.Fatal("spurious member")
	}
	if s.empty() {
		t.Fatal("non-empty set reported Empty")
	}
	var zero Set
	if !zero.empty() || zero.Len() != 0 {
		t.Fatal("zero Set is not empty")
	}
	if zero.Contains(1) {
		t.Fatal("zero Set contains an item")
	}
}

func TestSetUnion(t *testing.T) {
	u := NewSet(1, 2).union(NewSet(2, 3))
	if !u.equal(NewSet(1, 2, 3)) {
		t.Fatalf("Union = %v", u)
	}
	// Union must not mutate operands.
	a := NewSet(1)
	_ = a.union(NewSet(9))
	if a.Contains(9) {
		t.Fatal("Union mutated its receiver")
	}
}

func TestSetIntersects(t *testing.T) {
	if !NewSet(1, 2, 3).Intersects(NewSet(3, 4)) {
		t.Fatal("overlapping sets reported disjoint")
	}
	if NewSet(1, 2).Intersects(NewSet(3, 4)) {
		t.Fatal("disjoint sets reported overlapping")
	}
	var zero Set
	if zero.Intersects(NewSet(1)) || NewSet(1).Intersects(zero) {
		t.Fatal("empty set intersects something")
	}
}

func TestSetIntersection(t *testing.T) {
	got := NewSet(1, 2, 3, 4).intersection(NewSet(2, 4, 6))
	if !got.equal(NewSet(2, 4)) {
		t.Fatalf("intersection = %v, want {2, 4}", got)
	}
}

func TestSetSubsetEqual(t *testing.T) {
	a := NewSet(1, 2)
	b := NewSet(1, 2, 3)
	if !a.subset(b) {
		t.Fatal("subset not detected")
	}
	if b.subset(a) {
		t.Fatal("superset reported as subset")
	}
	if !a.equal(NewSet(2, 1)) {
		t.Fatal("order-independent equality failed")
	}
	if a.equal(b) {
		t.Fatal("unequal sets reported equal")
	}
}

func TestSetItemsSorted(t *testing.T) {
	got := NewSet(5, 1, 3).items()
	want := []Item{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Items() = %v, want %v", got, want)
		}
	}
}

func TestSetString(t *testing.T) {
	if s := NewSet(2, 1).String(); s != "{1, 2}" {
		t.Fatalf("String() = %q", s)
	}
	var zero Set
	if s := zero.String(); s != "{}" {
		t.Fatalf("empty String() = %q", s)
	}
}

func toSet(xs []uint8) Set {
	items := make([]Item, len(xs))
	for i, x := range xs {
		items[i] = Item(x % 32)
	}
	return NewSet(items...)
}

func TestQuickSetAlgebra(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := toSet(xs), toSet(ys)
		u := a.union(b)
		// union contains both operands
		if !a.subset(u) || !b.subset(u) {
			return false
		}
		// intersection is subset of both
		in := a.intersection(b)
		if !in.subset(a) || !in.subset(b) {
			return false
		}
		// Intersects agrees with intersection
		if a.Intersects(b) != !in.empty() {
			return false
		}
		// symmetry
		if a.Intersects(b) != b.Intersects(a) {
			return false
		}
		// inclusion-exclusion on sizes
		return u.Len() == a.Len()+b.Len()-in.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// intersection returns the set of items present in both s and t.
func (s Set) intersection(t Set) Set {
	small, large := s.m, t.m
	if len(large) < len(small) {
		small, large = large, small
	}
	u := Set{m: make(map[Item]struct{})}
	for it := range small {
		if _, ok := large[it]; ok {
			u.m[it] = struct{}{}
		}
	}
	return u
}

// subset reports whether every item of s is in t.
func (s Set) subset(t Set) bool {
	if len(s.m) > len(t.m) {
		return false
	}
	for it := range s.m {
		if _, ok := t.m[it]; !ok {
			return false
		}
	}
	return true
}

// equal reports whether s and t hold exactly the same items.
func (s Set) equal(t Set) bool {
	return len(s.m) == len(t.m) && s.subset(t)
}
