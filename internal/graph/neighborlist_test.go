package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: after any sequence of inserts, the neighbor list is sorted by
// descending IP, duplicate-free, within capacity, and contains the
// highest-IP items ever offered.
func TestNeighborListInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(8)
		l := newNeighborList(capacity)
		type offer struct {
			id int32
			ip float32
		}
		var offers []offer
		n := 5 + rng.Intn(40)
		for i := 0; i < n; i++ {
			o := offer{id: int32(rng.Intn(20)), ip: float32(rng.Float64())}
			// Keep the first IP offered per id: duplicates are rejected
			// by id regardless of the new IP.
			dup := false
			for _, prev := range offers {
				if prev.id == o.id {
					dup = true
					break
				}
			}
			if !dup {
				offers = append(offers, o)
			}
			l.insert(o.id, o.ip)
		}
		// Sorted, unique, bounded.
		if len(l.ids) > capacity || len(l.ids) != len(l.ips) {
			return false
		}
		seen := map[int32]bool{}
		for i := range l.ids {
			if seen[l.ids[i]] {
				return false
			}
			seen[l.ids[i]] = true
			if i > 0 && l.ips[i] > l.ips[i-1] {
				return false
			}
		}
		// The worst kept IP must be at least the (capacity)-th best
		// offered IP (first-offer-per-id semantics).
		if len(l.ids) == capacity {
			better := 0
			worst := l.ips[len(l.ips)-1]
			for _, o := range offers {
				if o.ip > worst {
					better++
				}
			}
			// Everything strictly better than the worst kept must be kept.
			if better > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}
