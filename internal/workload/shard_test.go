package workload

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/txn"
)

func TestHomeShardSingle(t *testing.T) {
	s := &Spec{Items: []txn.Item{4, 8, 12}} // all ≡ 0 mod 4
	home, cross := s.HomeShard(4)
	if home != 0 || cross {
		t.Fatalf("HomeShard = (%d, %v), want (0, false)", home, cross)
	}
	if home, cross := s.HomeShard(1); home != 0 || cross {
		t.Fatalf("1-shard HomeShard = (%d, %v), want (0, false)", home, cross)
	}
}

func TestHomeShardCross(t *testing.T) {
	s := &Spec{Items: []txn.Item{5, 8}} // shards 1 and 0 under n=4
	home, cross := s.HomeShard(4)
	if home != 0 || !cross {
		t.Fatalf("HomeShard = (%d, %v), want (0, true)", home, cross)
	}
}

// A transaction whose executed path stays on one shard but whose untaken
// branch crosses is still cross-shard: classification is by pre-analysis
// footprint, not by the executed path.
func TestHomeShardUsesFootprint(t *testing.T) {
	s := &Spec{
		Items:         []txn.Item{0, 4},
		MightFull:     []txn.Item{0, 4, 5}, // item 5 lives on shard 1
		DecisionIndex: 1,
	}
	if _, cross := s.HomeShard(4); !cross {
		t.Fatal("spec with cross-shard might-set classified single-shard")
	}
}

func TestSplitShards(t *testing.T) {
	s := &Spec{
		ID:       7,
		Arrival:  time.Second,
		Deadline: 2 * time.Second,
		Items:    []txn.Item{0, 5, 4, 9},
		Compute:  3 * time.Millisecond,
		Reads:    []bool{true, false, true, false},
		NeedsIO:  []bool{false, true, false, true},
		Class:    2,
	}
	parts := s.SplitShards(4)
	if len(parts) != 2 {
		t.Fatalf("got %d parts, want 2: %+v", len(parts), parts)
	}
	p0, p1 := parts[0], parts[1]
	if p0.Shard != 0 || p1.Shard != 1 {
		t.Fatalf("parts on shards %d, %d; want 0, 1", p0.Shard, p1.Shard)
	}
	if !reflect.DeepEqual(p0.Spec.Items, []txn.Item{0, 4}) {
		t.Fatalf("shard 0 items = %v", p0.Spec.Items)
	}
	if !reflect.DeepEqual(p0.Spec.Reads, []bool{true, true}) ||
		!reflect.DeepEqual(p0.Spec.NeedsIO, []bool{false, false}) {
		t.Fatalf("shard 0 flags misaligned: reads=%v io=%v", p0.Spec.Reads, p0.Spec.NeedsIO)
	}
	if !reflect.DeepEqual(p1.Spec.Items, []txn.Item{5, 9}) ||
		!reflect.DeepEqual(p1.Spec.Reads, []bool{false, false}) ||
		!reflect.DeepEqual(p1.Spec.NeedsIO, []bool{true, true}) {
		t.Fatalf("shard 1 part wrong: %+v", p1.Spec)
	}
	for _, p := range parts {
		if p.Spec.ID != 7 || p.Spec.Class != 2 || p.Spec.Deadline != 2*time.Second {
			t.Fatalf("part lost scalar fields: %+v", p.Spec)
		}
	}
}

func TestSplitShardsMightSet(t *testing.T) {
	s := &Spec{
		Items:         []txn.Item{0, 1},
		MightFull:     []txn.Item{0, 1, 2, 5}, // shard 2 only in the might-set
		DecisionIndex: 1,
	}
	parts := s.SplitShards(4)
	if len(parts) != 2 {
		t.Fatalf("got %d parts, want 2 (shard 2 has nothing to execute)", len(parts))
	}
	if !reflect.DeepEqual(parts[0].Spec.MightFull, []txn.Item{0}) {
		t.Fatalf("shard 0 might-set = %v, want [0]", parts[0].Spec.MightFull)
	}
	if !reflect.DeepEqual(parts[1].Spec.MightFull, []txn.Item{1, 5}) {
		t.Fatalf("shard 1 might-set = %v, want [1 5]", parts[1].Spec.MightFull)
	}
	for _, p := range parts {
		if p.Spec.DecisionIndex != -1 {
			t.Fatalf("part DecisionIndex = %d, want -1 (never narrows)", p.Spec.DecisionIndex)
		}
	}
}

func TestShardOfAndTouched(t *testing.T) {
	if txn.ShardOf(10, 4) != 2 {
		t.Fatal("ShardOf(10, 4) != 2")
	}
	if mask := txn.ShardsTouched([]txn.Item{1, 5, 9}, 4); mask != 1<<1 {
		t.Fatalf("mask = %b, want only shard 1", mask)
	}
	if mask := txn.ShardsTouched([]txn.Item{0, 3}, 4); mask != (1 | 1<<3) {
		t.Fatalf("mask = %b, want shards 0 and 3", mask)
	}
}
