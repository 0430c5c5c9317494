package fabric

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/engine"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	return keys
}

// Equal configurations must build identical rings: ownership is a pure
// function of (key, member set), which is what lets every fleet member
// compute the same placement without coordination.
func TestRingDeterministic(t *testing.T) {
	peers := []string{"http://a:1", "http://b:1", "http://c:1"}
	r1 := newRing(peers, 64)
	r2 := newRing(peers, 64)
	for _, k := range ringKeys(1000) {
		if r1.owner(k) != r2.owner(k) {
			t.Fatalf("rings from equal configs disagree on %q: %d vs %d", k, r1.owner(k), r2.owner(k))
		}
	}
}

// With enough virtual nodes every member (the local process included)
// owns a meaningful share of a uniform keyspace.
func TestRingCoversAllMembers(t *testing.T) {
	peers := []string{"http://a:1", "http://b:1"}
	r := newRing(peers, 64)
	counts := map[int]int{}
	for _, k := range ringKeys(3000) {
		counts[r.owner(k)]++
	}
	for _, m := range []int{localMember, 0, 1} {
		if counts[m] < 300 { // a third of fair share (1000) is a generous floor
			t.Fatalf("member %d owns %d of 3000 keys; ring is badly unbalanced: %v", m, counts[m], counts)
		}
	}
}

// Removing one peer must remap only the keys that peer owned —
// every key owned by a surviving member keeps its owner. This is the
// property that keeps the shared remote cache warm across topology
// changes.
func TestRingConsistencyOnMemberRemoval(t *testing.T) {
	peers := []string{"http://a:1", "http://b:1", "http://c:1"}
	full := newRing(peers, 64)
	reduced := newRing(peers[:2], 64) // c removed
	moved := 0
	for _, k := range ringKeys(3000) {
		before := full.owner(k)
		after := reduced.owner(k)
		if before == 2 {
			moved++
			continue // c's keys must land somewhere else
		}
		if before != after {
			t.Fatalf("key %q moved from surviving member %d to %d when c left", k, before, after)
		}
	}
	if moved == 0 {
		t.Fatal("removed member owned no keys; the removal case was not exercised")
	}
}

// Every member's share of a uniform keyspace stays near fair across
// many peer sets of the shape a real fleet uses: one host, different
// ports. Hashed with FNV alone, the virtual nodes of such names
// cluster, and members' shares ranged from 0.01 to 3.6 times fair;
// through Mix64 they stay within 0.7–1.4. The keys are SHA-256
// digests, like shard addresses.
func TestRingBalancedAcrossPortSets(t *testing.T) {
	keys := make([]string, 4000)
	for i := range keys {
		keys[i] = engine.Key("ring-balance", strconv.Itoa(i))
	}
	port := 20000
	for _, npeers := range []int{1, 2, 8} {
		fair := 1 / float64(npeers+1)
		for set := 0; set < 40; set++ {
			peers := make([]string, npeers)
			for i := range peers {
				port = 20000 + (port*7919+13)%40000
				peers[i] = fmt.Sprintf("http://127.0.0.1:%d", port)
			}
			r := newRing(peers, virtualNodes)
			counts := map[int]int{}
			for _, k := range keys {
				counts[r.owner(k)]++
			}
			for m := localMember; m < npeers; m++ {
				share := float64(counts[m]) / float64(len(keys))
				if share < 0.6*fair || share > 1.5*fair {
					t.Fatalf("%d peers %v: member %d owns %.3f of the keys, fair is %.3f", npeers, peers, m, share, fair)
				}
			}
		}
	}
}
