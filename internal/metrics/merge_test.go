package metrics

// MergeRuns is how a sharded run becomes one system-wide Run. Samples are
// unbounded: merging concatenates them in argument order, so no sample is
// lost or counted twice, and percentiles (which sort) do not depend on the
// order.

import (
	"reflect"
	"testing"
	"time"
)

// obs records one commit with tardiness = finish (deadline 0), so every
// sample value identifies its commit instant in milliseconds.
func obs(r *Run, finishMs int) {
	f := time.Duration(finishMs) * time.Millisecond
	r.Observe(0, 0, f, 0)
}

// TestMergeRunsRingWrapAndOrder: there is no ring to wrap any more — every
// sample of every shard survives the merge, shard by shard in argument order,
// and the merged run keeps appending after it.
func TestMergeRunsRingWrapAndOrder(t *testing.T) {
	a := &Run{}
	for _, ms := range []int{10, 20, 30, 40, 50} {
		obs(a, ms)
	}
	if got, want := a.latenessSamples, []float64{10, 20, 30, 40, 50}; !reflect.DeepEqual(got, want) {
		t.Fatalf("samples = %v, want %v", got, want)
	}
	b := &Run{}
	for _, ms := range []int{15, 25, 35} {
		obs(b, ms)
	}

	m := MergeRuns(a, b)
	if got, want := m.latenessSamples, []float64{10, 20, 30, 40, 50, 15, 25, 35}; !reflect.DeepEqual(got, want) {
		t.Fatalf("merged samples = %v, want %v", got, want)
	}
	if m.Committed != a.Committed+b.Committed {
		t.Fatalf("merged Committed = %d, want %d", m.Committed, a.Committed+b.Committed)
	}
	if m.Missed != 8 || m.TardinessSum != a.TardinessSum+b.TardinessSum {
		t.Fatalf("merged miss counters wrong: %+v", m)
	}
	obs(&m, 60)
	if got := len(m.latenessSamples); got != 9 {
		t.Fatalf("post-merge observe left %d samples, want 9", got)
	}
	// Order is immaterial to the percentiles: merging the other way round
	// yields the same Result.
	if ab, ba := MergeRuns(a, b), MergeRuns(b, a); !reflect.DeepEqual(ab.Result(), ba.Result()) {
		t.Fatalf("merge order changed the Result:\n%+v\n%+v", ab.Result(), ba.Result())
	}
}

func TestMergeRunsUnboundedKeepsEverything(t *testing.T) {
	a := &Run{}
	for _, ms := range []int{5, 30} {
		obs(a, ms)
	}
	b := &Run{}
	for _, ms := range []int{10, 20, 40} {
		obs(b, ms)
	}
	m := MergeRuns(a, b)
	if got, want := m.latenessSamples, []float64{5, 30, 10, 20, 40}; !reflect.DeepEqual(got, want) {
		t.Fatalf("merged samples = %v, want %v", got, want)
	}
}

func TestMergeRunsSingleIsIdentity(t *testing.T) {
	r := &Run{CPUs: 1}
	for _, ms := range []int{10, 20, 30, 40} {
		obs(r, ms)
	}
	m := MergeRuns(r)
	if !reflect.DeepEqual(m.Result(), r.Result()) {
		t.Fatalf("MergeRuns of one run changed its Result:\n got %+v\nwant %+v", m.Result(), r.Result())
	}
}

func TestMergeRunsClasses(t *testing.T) {
	a, b := &Run{}, &Run{}
	a.Observe(1, 0, 10*time.Millisecond, 0)
	a.Observe(2, 0, 5*time.Millisecond, 20*time.Millisecond)
	b.Observe(1, 0, 30*time.Millisecond, 0)
	m := MergeRuns(a, b)
	res := m.Result()
	if len(res.Classes) != 2 {
		t.Fatalf("merged classes = %+v, want 2 entries", res.Classes)
	}
	if res.Classes[0].Class != 1 || res.Classes[0].Committed != 2 {
		t.Fatalf("class 1 = %+v, want 2 commits", res.Classes[0])
	}
	if res.Classes[1].Class != 2 || res.Classes[1].MissPercent != 0 {
		t.Fatalf("class 2 = %+v, want 0%% miss", res.Classes[1])
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := &Run{}
	obs(r, 10)
	r.Observe(3, 0, 5*time.Millisecond, 20*time.Millisecond)
	c := r.Clone()
	obs(r, 99)
	r.classes[3].committed++
	if got, want := c.latenessSamples, []float64{10, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("clone samples mutated: %v, want %v", got, want)
	}
	if c.classes[3].committed != 1 {
		t.Fatalf("clone classes mutated: %d commits, want 1", c.classes[3].committed)
	}
}
