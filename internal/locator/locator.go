// Package locator implements the UDR's data location stage (§3.3.1,
// §3.5): the component at every point of access that resolves a
// subscriber identity (IMSI, MSISDN, IMPU, …) to the partition — and
// hence storage element — holding the subscriber's data, locally,
// without long packet exchanges over the backbone.
//
// The paper's design uses state-full identity-location maps rather
// than hashing because the UDR must support multiple indexes (one per
// identity type) and selective placement of subscriber data. Each map
// is a compact identity table (internal/idtable), so lookup cost does
// not grow with the subscriber count and the case against hashing
// rests on placement alone. Two management variants exist (§3.5):
//
//   - Provisioned: the provisioning flow writes the maps; a new stage
//     must copy every entry from a peer before serving (availability
//     dip on scale-out, §3.4.2).
//   - Cached: maps are built on the fly; no dip on scale-out, but a
//     cache miss must locate the subscriber by querying many or all
//     storage elements.
//
// The package also provides the consistent-hashing alternative the
// paper rejects, so experiment E8 can compare both.
package locator

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/chash"
	"repro/internal/idtable"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/subscriber"
	"repro/internal/trace"
)

// Placement records where a subscription lives.
type Placement struct {
	SubscriberID string
	Partition    string
}

// Errors returned by lookups.
var (
	// ErrNotFound reports an identity with no mapping.
	ErrNotFound = errors.New("locator: identity not found")
	// ErrNotReady reports a stage still synchronizing its maps
	// (§3.4.2: "operations issued on the PoA realized by the new
	// blade cluster cannot be handled" during sync).
	ErrNotReady = errors.New("locator: location stage not ready")
)

// Locator resolves identities to placements.
type Locator interface {
	// Lookup resolves one identity.
	Lookup(ctx context.Context, id subscriber.Identity) (Placement, error)
	// PutProfile indexes a subscription under all its identities.
	PutProfile(ids []subscriber.Identity, p Placement)
	// RemoveProfile removes all identity mappings of a subscription.
	RemoveProfile(ids []subscriber.Identity)
	// InvalidatePartition evicts every placement pointing at the
	// partition and returns how many were dropped. PoAs call it when
	// a resolved placement turns out stale (the partition was retired
	// or re-placed behind the locator's back) so the next lookup
	// re-resolves instead of replaying the stale mapping forever.
	InvalidatePartition(partition string) int
	// SupportsSelectivePlacement reports whether the locator can pin
	// a subscription to an arbitrary partition (§3.5's regulatory /
	// home-region requirement).
	SupportsSelectivePlacement() bool
}

// Mode selects how a Stage's maps are managed.
type Mode int

const (
	// Provisioned maps are written by the provisioning flow and
	// copied wholesale on scale-out.
	Provisioned Mode = iota
	// Cached maps fill on demand; misses fan out via the
	// MissResolver.
	Cached
)

// String returns the mode name.
func (m Mode) String() string {
	if m == Cached {
		return "cached"
	}
	return "provisioned"
}

// MissResolver locates a subscription the hard way — by asking
// storage elements — when a cached stage misses (§3.5: "every cache
// miss implies locating the subscriber data by querying multiple or
// even all the SE in the system"). It returns the placement and the
// number of SEs queried (E9 reports the fan-out cost).
type MissResolver func(ctx context.Context, id subscriber.Identity) (Placement, int, error)

// MapEntry is one identity mapping, the unit of stage-to-stage sync.
type MapEntry struct {
	Identity  subscriber.Identity
	Placement Placement
}

// SyncReq asks a peer stage for its full identity-location map.
type SyncReq struct{}

// SyncResp carries the map; Entries arrive sorted by identity.
type SyncResp struct {
	Entries []MapEntry
}

// Stage is one data location stage instance: the state-full
// identity-location map of the paper. It is safe for concurrent use.
//
// The map is an idtable.Table from identity to a subscriber handle and
// a partition index. subs resolves handles to subscriber IDs, refs
// counts the identities mapped to each handle so a handle is recycled
// once none remain, and parts interns partition names.
type Stage struct {
	site string
	mode Mode

	mu     sync.RWMutex
	ids    idtable.Table
	subs   []string
	refs   []uint32
	free   []uint32
	parts  []string
	partIx map[string]uint16
	ready  bool

	missResolver MissResolver

	// Hits and Misses count lookups; FanOutQueries counts SE queries
	// performed by miss resolution in cached mode.
	Hits          metrics.Counter
	Misses        metrics.Counter
	FanOutQueries metrics.Counter

	// tracer is the optional span recorder behind locator.lookup spans.
	tracer atomic.Pointer[trace.Recorder]
}

// SetTracer installs the span recorder; Lookup then records a
// locator.lookup span for requests whose context carries a sampled
// trace.
func (s *Stage) SetTracer(tr *trace.Recorder) { s.tracer.Store(tr) }

// NewStage returns a stage for the given site. Provisioned stages
// start ready only if primed is true (the first stage of a network is
// primed empty; later stages must sync).
func NewStage(site string, mode Mode, primed bool) *Stage {
	return &Stage{
		site:   site,
		mode:   mode,
		partIx: make(map[string]uint16),
		ready:  primed || mode == Cached,
	}
}

// Site returns the owning site.
func (s *Stage) Site() string { return s.site }

// Mode returns the map-management mode.
func (s *Stage) Mode() Mode { return s.mode }

// SetMissResolver installs the cached-mode miss path.
func (s *Stage) SetMissResolver(r MissResolver) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.missResolver = r
}

// Ready reports whether the stage can serve lookups.
func (s *Stage) Ready() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ready
}

// SetReady overrides readiness (tests and failover drills).
func (s *Stage) SetReady(ready bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ready = ready
}

// Len returns the number of identity mappings held.
func (s *Stage) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ids.Len()
}

// MapStats sizes the identity map. Bytes adds the handle and partition
// tables to the table's slots and key arena; the subscriber-ID and
// partition-name strings are shared with the callers and not counted.
func (s *Stage) MapStats() idtable.Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.ids.Stats()
	str := int(unsafe.Sizeof(""))
	st.Bytes += str*(cap(s.subs)+cap(s.parts)) + 4*(cap(s.refs)+cap(s.free))
	return st
}

// Lookup implements Locator.
func (s *Stage) Lookup(ctx context.Context, id subscriber.Identity) (Placement, error) {
	if tr := s.tracer.Load(); tr != nil {
		if tc := trace.FromContext(ctx); tc.Sampled && tc.Valid() {
			span := tr.StartChild(tc, "locator.lookup", s.site+"/locator")
			span.SetAttr("mode", s.mode.String())
			p, hit, fanout, err := s.lookup(ctx, id)
			if hit {
				span.SetAttr("result", "hit")
			} else {
				span.SetAttr("result", "miss")
			}
			if fanout > 0 {
				span.SetAttr("fanout", fmt.Sprint(fanout))
			}
			span.End(err)
			return p, err
		}
	}
	p, _, _, err := s.lookup(ctx, id)
	return p, err
}

// lookup is the span-free body; hit and fanout feed the span attrs.
func (s *Stage) lookup(ctx context.Context, id subscriber.Identity) (p Placement, hit bool, fanout int, err error) {
	s.mu.RLock()
	if !s.ready {
		s.mu.RUnlock()
		return Placement{}, false, 0, ErrNotReady
	}
	r, ok := s.ids.Get(uint8(id.Type), id.Value)
	if ok {
		p = s.placement(r)
	}
	resolver := s.missResolver
	s.mu.RUnlock()

	if ok {
		s.Hits.Inc()
		return p, true, 0, nil
	}
	s.Misses.Inc()
	if s.mode == Cached && resolver != nil {
		p, queried, err := resolver(ctx, id)
		s.FanOutQueries.Add(int64(queried))
		if err != nil {
			return Placement{}, false, queried, err
		}
		s.mu.Lock()
		s.putProfile([]subscriber.Identity{id}, p)
		s.mu.Unlock()
		return p, false, queried, nil
	}
	return Placement{}, false, 0, fmt.Errorf("%w: %s", ErrNotFound, id)
}

// PutProfile implements Locator.
func (s *Stage) PutProfile(ids []subscriber.Identity, p Placement) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.putProfile(ids, p)
}

// putProfile maps ids to p. When one of them already maps to the same
// subscriber, the others share its handle.
func (s *Stage) putProfile(ids []subscriber.Identity, p Placement) {
	if len(ids) == 0 {
		return
	}
	h, found := uint32(0), false
	for _, id := range ids {
		if r, ok := s.ids.Get(uint8(id.Type), id.Value); ok && s.subs[r.Sub] == p.SubscriberID {
			h, found = r.Sub, true
			break
		}
	}
	if !found {
		h = s.newHandle(p.SubscriberID)
	}
	part := s.partIndex(p.Partition)
	for _, id := range ids {
		s.put(id, h, part)
	}
}

// put maps one identity to handle h in partition part, releasing the
// handle it mapped to before.
func (s *Stage) put(id subscriber.Identity, h uint32, part uint16) {
	s.refs[h]++
	if old, ok := s.ids.Put(uint8(id.Type), id.Value, idtable.Ref{Sub: h, Part: part}); ok {
		s.release(old.Sub)
	}
}

// newHandle returns a recycled or fresh handle naming sub. Its count
// is zero until the caller maps an identity to it.
func (s *Stage) newHandle(sub string) uint32 {
	if n := len(s.free); n > 0 {
		h := s.free[n-1]
		s.free = s.free[:n-1]
		s.subs[h] = sub
		return h
	}
	s.subs = append(s.subs, sub)
	s.refs = append(s.refs, 0)
	return uint32(len(s.subs) - 1)
}

// release drops one identity's reference to handle h and recycles the
// handle when none remain.
func (s *Stage) release(h uint32) {
	s.refs[h]--
	if s.refs[h] == 0 {
		s.subs[h] = ""
		s.free = append(s.free, h)
	}
}

// partIndex interns a partition name. Names are never dropped: a
// deployment has at most a few hundred partitions.
func (s *Stage) partIndex(name string) uint16 {
	if i, ok := s.partIx[name]; ok {
		return i
	}
	if len(s.parts) > math.MaxUint16 {
		panic("locator: more than 65536 partition names")
	}
	i := uint16(len(s.parts))
	s.parts = append(s.parts, name)
	s.partIx[name] = i
	return i
}

func (s *Stage) placement(r idtable.Ref) Placement {
	return Placement{SubscriberID: s.subs[r.Sub], Partition: s.parts[r.Part]}
}

// RemoveProfile implements Locator.
func (s *Stage) RemoveProfile(ids []subscriber.Identity) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		if old, ok := s.ids.Delete(uint8(id.Type), id.Value); ok {
			s.release(old.Sub)
		}
	}
}

// InvalidatePartition implements Locator: every identity mapped to
// the partition is evicted. Provisioned stages relearn evicted
// entries from the provisioning flow; cached stages re-resolve on the
// next miss.
func (s *Stage) InvalidatePartition(partition string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	part, ok := s.partIx[partition]
	if !ok {
		return 0
	}
	return s.ids.DeleteFunc(func(r idtable.Ref) bool {
		if r.Part != part {
			return false
		}
		s.release(r.Sub)
		return true
	})
}

// SupportsSelectivePlacement implements Locator: state-full maps can
// pin any subscription anywhere.
func (s *Stage) SupportsSelectivePlacement() bool { return true }

// Dump returns every mapping in table order (sync serving). Load
// accepts any order, so the dump is not sorted.
func (s *Stage) Dump() []MapEntry {
	s.mu.RLock()
	out := make([]MapEntry, 0, s.ids.Len())
	s.ids.Range(func(typ uint8, value string, r idtable.Ref) {
		out = append(out, MapEntry{
			Identity:  subscriber.Identity{Type: subscriber.IdentityType(typ), Value: value},
			Placement: s.placement(r),
		})
	})
	s.mu.RUnlock()
	return out
}

// Load bulk-installs mappings (sync receiving). Entries naming the
// same subscriber share one handle.
func (s *Stage) Load(entries []MapEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	handles := make(map[string]uint32)
	for _, e := range entries {
		sub := e.Placement.SubscriberID
		// A later entry for the same identity may have released the
		// remembered handle, and a recycled one may name someone else.
		h, ok := handles[sub]
		if !ok || s.refs[h] == 0 || s.subs[h] != sub {
			h = s.newHandle(sub)
			handles[sub] = h
		}
		s.put(e.Identity, h, s.partIndex(e.Placement.Partition))
	}
}

// HandleMessage serves stage-to-stage sync requests over simnet.
func (s *Stage) HandleMessage(ctx context.Context, from simnet.Addr, msg any) (any, bool, error) {
	switch msg.(type) {
	case SyncReq:
		return SyncResp{Entries: s.Dump()}, true, nil
	default:
		return nil, false, nil
	}
}

// SyncFrom copies the full identity-location map from a peer stage
// over the network, then marks this stage ready. This is the §3.4.2
// scale-out procedure whose duration E9 measures; until it completes,
// Lookup fails with ErrNotReady.
func (s *Stage) SyncFrom(ctx context.Context, net *simnet.Network, self, peer simnet.Addr) (entries int, err error) {
	raw, err := net.Call(ctx, self, peer, SyncReq{})
	if err != nil {
		return 0, fmt.Errorf("locator: sync from %s: %w", peer, err)
	}
	resp, ok := raw.(SyncResp)
	if !ok {
		return 0, fmt.Errorf("locator: unexpected sync response %T", raw)
	}
	s.Load(resp.Entries)
	s.mu.Lock()
	s.ready = true
	s.mu.Unlock()
	return len(resp.Entries), nil
}

// HashLocator is the consistent-hashing alternative (§3.5). Each
// lookup hashes the identity directly onto a partition ring: O(1) in
// the subscriber count, no per-subscriber state — but the placement
// is dictated by the hash, so selective placement is impossible, and
// every identity of a subscription must be inserted as its own ring
// key ("multiple replicas being each replica indexed by a different
// identity"), which the paper deems impractical for the UDR's
// identity count.
type HashLocator struct {
	ring *chash.Ring

	mu sync.RWMutex
	// subID fixes up the subscriber ID for identities we have seen;
	// the partition always comes from the hash.
	subID map[string]string
}

// NewHashLocator builds a hash locator over the given partitions.
func NewHashLocator(partitions []string) *HashLocator {
	r := chash.New(128)
	for _, p := range partitions {
		r.Add(p)
	}
	return &HashLocator{ring: r, subID: make(map[string]string)}
}

// Lookup implements Locator in O(1) w.r.t. the subscriber count.
func (h *HashLocator) Lookup(ctx context.Context, id subscriber.Identity) (Placement, error) {
	part := h.ring.Locate(id.String())
	if part == "" {
		return Placement{}, ErrNotFound
	}
	h.mu.RLock()
	sub := h.subID[id.String()]
	h.mu.RUnlock()
	return Placement{SubscriberID: sub, Partition: part}, nil
}

// PutProfile implements Locator. Only the subscriber-ID fix-up is
// stored; the hash dictates the partition.
func (h *HashLocator) PutProfile(ids []subscriber.Identity, p Placement) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, id := range ids {
		h.subID[id.String()] = p.SubscriberID
	}
}

// RemoveProfile implements Locator.
func (h *HashLocator) RemoveProfile(ids []subscriber.Identity) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, id := range ids {
		delete(h.subID, id.String())
	}
}

// InvalidatePartition implements Locator. The hash dictates every
// placement, so there is no per-partition state to evict: re-placing
// a partition's data is exactly what the ring cannot express (§3.5's
// argument against hashing) and the method reports zero evictions.
func (h *HashLocator) InvalidatePartition(partition string) int { return 0 }

// SupportsSelectivePlacement implements Locator: a hash cannot honor
// a requested placement.
func (h *HashLocator) SupportsSelectivePlacement() bool { return false }

// PlacementFor reports where the hash would place an identity — used
// by E8 to demonstrate that co-placement of a subscription's multiple
// identities is not guaranteed.
func (h *HashLocator) PlacementFor(id subscriber.Identity) string {
	return h.ring.Locate(id.String())
}

var (
	_ Locator = (*Stage)(nil)
	_ Locator = (*HashLocator)(nil)
)
