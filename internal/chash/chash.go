// Package chash implements consistent hashing with virtual nodes.
//
// The paper (§3.5) discusses consistent hashing as the O(1)
// alternative to the UDR's state-full identity-location maps, and
// rejects it because the UDR must support multiple indexes (one per
// subscriber identity) and selective placement. Experiment E8 uses
// this package as the baseline the location stage is compared against.
package chash

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// Ring is a consistent-hash ring. It is safe for concurrent use.
type Ring struct {
	mu       sync.RWMutex
	replicas int // virtual nodes per member
	hashes   []uint64
	members  map[uint64]string // hash -> member
	set      map[string]bool
}

// New returns a ring with the given number of virtual nodes per
// member. replicas must be >= 1; typical values are 64–512.
func New(replicas int) *Ring {
	if replicas < 1 {
		replicas = 1
	}
	return &Ring{
		replicas: replicas,
		members:  make(map[uint64]string),
		set:      make(map[string]bool),
	}
}

func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	// FNV distributes poorly for very short keys (virtual-node
	// labels); a splitmix64-style finalizer restores avalanche.
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add inserts a member into the ring. Adding an existing member is a
// no-op.
func (r *Ring) Add(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.set[member] {
		return
	}
	r.set[member] = true
	for i := 0; i < r.replicas; i++ {
		h := hashKey(fmt.Sprintf("%s#%d", member, i))
		r.members[h] = member
		r.hashes = append(r.hashes, h)
	}
	sort.Slice(r.hashes, func(i, j int) bool { return r.hashes[i] < r.hashes[j] })
}

// Remove deletes a member and all of its virtual nodes.
func (r *Ring) Remove(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.set[member] {
		return
	}
	delete(r.set, member)
	keep := r.hashes[:0]
	for _, h := range r.hashes {
		if r.members[h] == member {
			delete(r.members, h)
		} else {
			keep = append(keep, h)
		}
	}
	r.hashes = keep
}

// Members returns the current members in sorted order.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.set))
	for m := range r.set {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Locate returns the member owning key, or "" if the ring is empty.
// Cost is O(log V) in the number of virtual nodes — constant in the
// number of keys, the property the paper credits hashing with and E8
// shows the location maps match.
func (r *Ring) Locate(key string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.hashes) == 0 {
		return ""
	}
	h := hashKey(key)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	return r.members[r.hashes[i]]
}

// LocateN returns the first n distinct members encountered clockwise
// from key's position: the natural replica set for the key.
func (r *Ring) LocateN(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.hashes) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.set) {
		n = len(r.set)
	}
	h := hashKey(key)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for j := 0; j < len(r.hashes) && len(out) < n; j++ {
		m := r.members[r.hashes[(i+j)%len(r.hashes)]]
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// Size returns the number of members.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.set)
}
