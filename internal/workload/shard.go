package workload

// Shard classification of pre-analysed transactions. The router uses the
// *pre-analysis* footprint — everything a transaction might access, not
// just what its executed path touches — so a transaction is classified
// before it runs, exactly as the paper's pre-analysis intends: a
// transaction whose untaken branch would have crossed shards is still a
// cross-shard transaction, because its locks could have landed there.

import (
	"math/bits"

	"repro/internal/txn"
)

// footprint returns the pre-analysis access footprint used for shard
// classification: the pessimistic might-access set when the spec has a
// decision point, its executed item list otherwise.
func (s *Spec) footprint() []txn.Item {
	if len(s.MightFull) > 0 {
		return s.MightFull
	}
	return s.Items
}

// HomeShard classifies the spec against an n-way partition: the shard that
// owns its footprint, and whether the footprint spans more than one shard.
// For a cross-shard spec the returned home is the lowest touched shard
// (deterministic, but callers should treat it as arbitrary).
func (s *Spec) HomeShard(n int) (home int, cross bool) {
	if n == 1 {
		return 0, false
	}
	mask := txn.ShardsTouched(s.footprint(), n)
	if mask == 0 {
		// Empty footprint: a no-op transaction lives on shard 0.
		return 0, false
	}
	return bits.TrailingZeros64(mask), mask&(mask-1) != 0
}

// ShardPart is one shard's slice of a cross-shard transaction.
type ShardPart struct {
	Shard int
	Spec  Spec
}

// SplitShards cuts a cross-shard spec into per-shard sub-specs, in
// ascending shard order. Each part keeps the original update order of its
// shard's items, with the per-update Reads/NeedsIO flags realigned. Parts
// inherit the pre-decision might-access set restricted to their shard and
// carry DecisionIndex -1: the sub-spec pessimistically might-locks its
// whole footprint slice for its lifetime and never narrows, which is safe
// (narrowing only releases locks early) and keeps the split independent of
// where the decision point falls relative to the cut.
//
// Shards whose only presence is in the might-access set (an untaken
// branch) get no part — there is nothing to execute there.
func (s *Spec) SplitShards(n int) []ShardPart {
	parts := make([]ShardPart, 0, 2)
	for shard := 0; shard < n; shard++ {
		var items []txn.Item
		var reads []bool
		var io []bool
		for u, it := range s.Items {
			if txn.ShardOf(it, n) != shard {
				continue
			}
			items = append(items, it)
			if len(s.Reads) > 0 {
				reads = append(reads, s.Reads[u])
			}
			if len(s.NeedsIO) > 0 {
				io = append(io, s.NeedsIO[u])
			}
		}
		if len(items) == 0 {
			continue
		}
		part := Spec{
			ID:          s.ID,
			Type:        s.Type,
			Arrival:     s.Arrival,
			Deadline:    s.Deadline,
			Items:       items,
			Compute:     s.Compute,
			NeedsIO:     io,
			Reads:       reads,
			Criticality: s.Criticality,
			Class:       s.Class,
		}
		if len(s.MightFull) > 0 {
			var might []txn.Item
			for _, it := range s.MightFull {
				if txn.ShardOf(it, n) == shard {
					might = append(might, it)
				}
			}
			part.MightFull = might
			part.DecisionIndex = -1
		}
		parts = append(parts, ShardPart{Shard: shard, Spec: part})
	}
	return parts
}
