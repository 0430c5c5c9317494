package fabric

import (
	"hash/fnv"
	"sort"
	"strconv"

	"repro/internal/stats"
)

// localMember is the ring member standing for the coordinator process
// itself: shard keys it owns are never dispatched, so the coordinator
// always carries its share of the keyspace and a one-peer fabric
// still splits work instead of forwarding everything.
const localMember = -1

// ringPoint is one virtual node: a member replicated at a hashed
// position on the unit circle.
type ringPoint struct {
	hash   uint64
	member int // peer index, or localMember
}

// ring is a consistent-hash ring over the peer set plus the local
// process. Shard addresses are already uniform SHA-256 digests, but
// the ring hashes them again through hash64 so ownership depends
// only on (key, member set) — adding or removing one peer remaps only
// the keys that peer's virtual nodes cover, which is what keeps a
// shared remote cache warm across topology changes.
type ring struct {
	points []ringPoint
}

// hash64 places a ring point or key: FNV-64a, then a SplitMix64
// finalizer. FNV alone leaves names that differ in a few trailing
// bytes (peer URLs on one host, "#i" vnode suffixes) clustered on
// the circle, and the clusters skew members' shares several-fold.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return stats.Mix64(h.Sum64())
}

// newRing builds the ring with vnodes virtual points per member.
func newRing(peers []string, vnodes int) *ring {
	r := &ring{points: make([]ringPoint, 0, (len(peers)+1)*vnodes)}
	add := func(name string, member int) {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(name + "#" + strconv.Itoa(i)), member: member})
		}
	}
	add("local", localMember)
	for i, p := range peers {
		add(p, i)
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Deterministic tie-break so equal configurations always build
		// identical rings.
		return r.points[a].member < r.points[b].member
	})
	return r
}

// owner returns the member owning key: the first virtual node at or
// clockwise of the key's hash.
func (r *ring) owner(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}
