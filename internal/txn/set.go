// Package txn implements the paper's transaction model and pre-analysis
// (§3.2.2): transaction programs as trees whose branch points ("decision
// points") progressively refine the set of data items an execution may
// access, plus the derived conflict and safety relations used by the
// cost-conscious scheduler.
package txn

import (
	"fmt"
	"sort"
	"strings"
)

// Item identifies a database object.
type Item int

// Set is an immutable-by-convention set of database items. The zero value
// is the empty set.
type Set struct {
	m map[Item]struct{}
}

// NewSet returns a set holding the given items.
func NewSet(items ...Item) Set {
	s := Set{m: make(map[Item]struct{}, len(items))}
	for _, it := range items {
		s.m[it] = struct{}{}
	}
	return s
}

// Len returns the number of items in the set.
func (s Set) Len() int { return len(s.m) }

// empty reports whether the set has no items.
func (s Set) empty() bool { return len(s.m) == 0 }

// Contains reports whether the set holds it.
func (s Set) Contains(it Item) bool {
	_, ok := s.m[it]
	return ok
}

// union returns a new set holding the items of s and t.
func (s Set) union(t Set) Set {
	u := Set{m: make(map[Item]struct{}, len(s.m)+len(t.m))}
	for it := range s.m {
		u.m[it] = struct{}{}
	}
	for it := range t.m {
		u.m[it] = struct{}{}
	}
	return u
}

// Intersects reports whether s and t share at least one item.
func (s Set) Intersects(t Set) bool {
	small, large := s.m, t.m
	if len(large) < len(small) {
		small, large = large, small
	}
	for it := range small {
		if _, ok := large[it]; ok {
			return true
		}
	}
	return false
}

// items returns the elements in ascending order.
func (s Set) items() []Item {
	out := make([]Item, 0, len(s.m))
	for it := range s.m {
		out = append(out, it)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the set as "{1, 2, 3}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, it := range s.items() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", int(it))
	}
	b.WriteByte('}')
	return b.String()
}
