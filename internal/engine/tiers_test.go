package engine

import (
	"sync"
	"sync/atomic"
	"testing"
)

// eventTiers is the reference the engine's own tier split is checked
// against: it splits a plan's shards by answering tier from the OnShard
// event stream alone, the way run-ledger callers once had to.
func eventTiers() (func(ShardEvent), func() TierCounts) {
	var mu sync.Mutex
	var tc TierCounts
	onShard := func(ev ShardEvent) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case !ev.Cached:
			tc.Miss++
		case ev.Tier == TierMem:
			tc.Mem++
		case ev.Tier == TierDisk:
			tc.Disk++
		case ev.Tier == TierRemote:
			tc.Remote++
		default:
			tc.Join++
		}
	}
	return onShard, func() TierCounts {
		mu.Lock()
		defer mu.Unlock()
		return tc
	}
}

// TestTierSplitInvariants pins RunStats.Tiers and BatchStats.Tiers
// across every way a shard resolves: executed cold, from the mem tier,
// from the disk tier on a fresh engine, joined to an earlier ref of the
// same batch, and answered by a remote tier. Each plan's split accounts
// for its shards, its Miss is its Executed count, the rest are its
// CacheHits, and it equals the split counted off its own event stream.
func TestTierSplitInvariants(t *testing.T) {
	dir := t.TempDir()
	var n atomic.Int64
	disk := openDisk(t, dir, 0)
	cold := New(2, 0)
	cold.AttachDiskCache(disk)
	dup := New(2, 0)
	remote := New(2, 0)
	remote.AttachRemote(&fakeRemote{answers: map[string]any{Key("exp", "fp", "r"): "from-peer"}})
	remotePlan := overlappingPlan("exp", "fp", []string{"r", "s"}, &n)
	remotePlan.Remote = "meta"

	type step struct {
		name  string
		eng   func() *Engine
		plans []Plan
		want  TierCounts // the batch's split
	}
	steps := []step{
		{"cold", func() *Engine { return cold }, []Plan{countingPlan("exp", "fp", 4, &n)}, TierCounts{Miss: 4}},
		// A later ref to a cached key is a join, not a second mem hit.
		{"mem-warm", func() *Engine { return cold }, []Plan{
			countingPlan("exp", "fp", 4, &n),
			overlappingPlan("exp", "fp", []string{"shard-00"}, &n),
		}, TierCounts{Mem: 4, Join: 1}},
		{"disk-warm", func() *Engine {
			if err := disk.Flush(); err != nil {
				t.Fatal(err)
			}
			e := New(2, 0)
			e.AttachDiskCache(openDisk(t, dir, 0))
			return e
		}, []Plan{countingPlan("exp", "fp", 4, &n)}, TierCounts{Disk: 4}},
		{"in-batch-join", func() *Engine { return dup }, []Plan{
			overlappingPlan("exp", "fp", []string{"a", "b", "a"}, &n),
			overlappingPlan("exp", "fp", []string{"b", "c"}, &n),
		}, TierCounts{Join: 2, Miss: 3}},
		{"remote", func() *Engine { return remote }, []Plan{remotePlan}, TierCounts{Remote: 1, Miss: 1}},
	}
	for _, s := range steps {
		e := s.eng()
		snaps := make([]func() TierCounts, len(s.plans))
		for i := range s.plans {
			s.plans[i].OnShard, snaps[i] = eventTiers()
		}
		_, stats, errs, bs := e.ExecuteBatch(s.plans)
		var sum TierCounts
		for i, st := range stats {
			if errs[i] != nil {
				t.Fatalf("%s: plan %d: %v", s.name, i, errs[i])
			}
			tc := st.Tiers
			if tc.Total() != st.Shards || tc.Miss != st.Executed || tc.Total()-tc.Miss != st.CacheHits {
				t.Errorf("%s: plan %d split %+v does not match stats %+v", s.name, i, tc, st)
			}
			if ev := snaps[i](); tc != ev {
				t.Errorf("%s: plan %d split %+v, event stream counts %+v", s.name, i, tc, ev)
			}
			sum.Mem += tc.Mem
			sum.Disk += tc.Disk
			sum.Remote += tc.Remote
			sum.Join += tc.Join
			sum.Miss += tc.Miss
		}
		if bs.Tiers != sum || bs.Tiers.Total() != bs.ShardRefs {
			t.Errorf("%s: batch split %+v, plans sum to %+v over %d refs", s.name, bs.Tiers, sum, bs.ShardRefs)
		}
		if bs.Tiers != s.want {
			t.Errorf("%s: batch split %+v, want %+v", s.name, bs.Tiers, s.want)
		}
	}
}
