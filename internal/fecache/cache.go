// Package fecache is the FE/PoA subscriber read cache: a bounded,
// sharded LRU over committed subscriber rows, keyed by primary key
// with secondary-identity aliases (IMSI/MSISDN/IMPI/IMPU), serving
// repeat reads at the access layer without an FE→SE round trip.
//
// Freshness is a contract, not best effort. Three signals keep the
// cache honest:
//
//   - CSN advance: every commit a co-located storage element installs
//     (local commit or replicated apply) flows through the store's
//     install observer into Observe, which refreshes resident entries
//     in commit order and marks the element "warm" for its partition.
//   - Placement-epoch bump: failover and migration cutover bump the
//     partition epoch (PR 5). CSNs are NOT comparable across epochs —
//     a promoted slave continues from its applied watermark — so a
//     bump flips every resident entry of the partition into a guarded
//     state: it is never served again, and cacheable reads for those
//     keys go master-direct until a new-lineage write-through replaces
//     the entry. Deleting instead of guarding would forget the per-key
//     read/write floor and let a stale slave or a stale re-fill
//     violate read-your-writes after a lossy failover.
//   - Local write-through: the PoA pushes its own committed
//     post-images (any session policy) into the cache, so a client's
//     next read observes its own write with zero round trips.
//
// The staleness bound is per-PoA: every entry carries a floor — the
// highest CSN this PoA has served or committed for the key — and
// read-through fills below the floor are rejected, which is what makes
// the PR-4 session checkers (read-your-writes, monotonic reads) hold
// through the cache for clients sticky to one PoA. Eviction drops the
// floor with the entry: capacity bounds the protected set, which is
// the explicit bounded-staleness trade documented in DESIGN.md.
//
// Aliases are learned, not derived. An entry is reachable through a
// secondary identity only once a request addressed it by that identity
// (Fill, WriteThrough and Learn take it as via), so a miss registers at
// most one alias and an eviction removes only what was registered.
// Installing a newer image re-checks the entry's registered aliases and
// drops those the row no longer carries; it never adds one. Invariant:
// an alias that resolves names a resident entry whose current image
// carries that identity.
//
// Lock hierarchy: shard.mu → aliasStripe.mu. An entry's alias list is
// guarded by its shard lock and every index mutation happens under it;
// ResolveIdentity takes only the stripe lock. partsMu and partState.mu
// are leaves: nothing is acquired while holding them, and the miss path
// reads partition state from the published partView without a lock.
package fecache

import (
	"hash/maphash"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/store"
	"repro/internal/subscriber"
)

// nShards is the lock-stripe count of the LRU and of the alias index;
// a power of two.
const nShards = 16

// DefaultCapacity bounds the cache when the config leaves it zero.
const DefaultCapacity = 4096

// LookupState classifies a cache probe.
type LookupState int

const (
	// Miss: no resident entry; read through and Fill.
	Miss LookupState = iota
	// Hit: the entry is current-epoch and serveable.
	Hit
	// Guarded: an entry exists but its placement epoch is stale. It
	// must not be served, and the key must read master-direct (whose
	// response is neither served from nor filled into the cache)
	// until a new-lineage write-through replaces it — the cross-epoch
	// read-your-writes guard.
	Guarded
)

// String names the probe outcome (span attributes, logs).
func (s LookupState) String() string {
	switch s {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	case Guarded:
		return "guarded"
	}
	return "unknown"
}

// Value is a served cache hit.
type Value struct {
	Part  string
	Entry store.Entry
	Meta  store.Meta
	Found bool
}

// record is one resident entry. Immutable post-images are shared with
// the store; the record never mutates them.
type record struct {
	key   string
	part  string
	ps    *partState
	epoch uint64
	entry store.Entry
	meta  store.Meta
	found bool
	floor uint64
	// aliases are the identities registered for this record in the
	// alias index (another record may since have taken one over).
	aliases []subscriber.Identity
	// prev/next link the shard's LRU ring.
	prev, next *record
}

// state is the probe outcome for a resident record.
func (r *record) state() LookupState {
	if r.epoch != r.ps.view.Load().epoch {
		return Guarded
	}
	return Hit
}

// partView is an immutable snapshot of a partition's freshness state:
// the current placement epoch and which co-located elements are
// provably applying that lineage ("warm").
type partView struct {
	epoch uint64
	// warmAll short-circuits warmth at bootstrap (epoch 1): freshly
	// assigned replicas are stream-attached from CSN 0, so every
	// listed replica is a safe fill source until the first bump.
	warmAll bool
	warm    map[string]struct{}
}

func (v *partView) isWarm(element string) bool {
	if v.warmAll {
		return true
	}
	_, ok := v.warm[element]
	return ok
}

// partState publishes a partition's partView; mu serialises the
// copy-on-write publishers (epoch bumps, first observation of an
// element under an epoch).
type partState struct {
	view atomic.Pointer[partView]
	mu   sync.Mutex
}

// markWarm records that element applied a record under epoch and
// reports whether that epoch is the partition's current one.
func (ps *partState) markWarm(element string, epoch uint64) bool {
	if v := ps.view.Load(); v.epoch != epoch || v.isWarm(element) {
		return v.epoch == epoch
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	v := ps.view.Load()
	if v.epoch != epoch {
		return false
	}
	warm := make(map[string]struct{}, len(v.warm)+1)
	for el := range v.warm {
		warm[el] = struct{}{}
	}
	warm[element] = struct{}{}
	ps.view.Store(&partView{epoch: epoch, warm: warm})
	return true
}

// cacheShard is one LRU stripe. root is the ring's sentinel: root.next
// is the most recently used record, root.prev the eviction candidate.
type cacheShard struct {
	mu   sync.Mutex
	idx  map[string]*record
	root record
	cap  int
}

func (sh *cacheShard) unlink(r *record) {
	r.prev.next, r.next.prev = r.next, r.prev
}

func (sh *cacheShard) pushFront(r *record) {
	r.prev, r.next = &sh.root, sh.root.next
	r.prev.next, r.next.prev = r, r
}

func (sh *cacheShard) moveToFront(r *record) {
	if sh.root.next != r {
		sh.unlink(r)
		sh.pushFront(r)
	}
}

// aliasStripe is one stripe of the alias index: identity → primary key.
type aliasStripe struct {
	mu sync.Mutex
	m  map[subscriber.Identity]string
}

// Cache is one site's FE/PoA subscriber read cache. Safe for
// concurrent use; must not be copied.
type Cache struct {
	site     string
	capacity int
	seed     maphash.Seed
	shards   [nShards]cacheShard
	aliases  [nShards]aliasStripe

	partsMu sync.RWMutex
	parts   map[string]*partState

	hits         atomic.Uint64
	misses       atomic.Uint64
	evictions    atomic.Uint64
	invEpoch     atomic.Uint64
	invCSN       atomic.Uint64
	staleRejects atomic.Uint64

	lastInvMu    sync.Mutex
	lastInvPart  string
	lastInvEpoch uint64
}

// Stats is a point-in-time counter snapshot for metrics and /status.
type Stats struct {
	Site               string `json:"site"`
	Entries            int    `json:"entries"`
	Capacity           int    `json:"capacity"`
	Hits               uint64 `json:"hits"`
	Misses             uint64 `json:"misses"`
	Evictions          uint64 `json:"evictions"`
	InvalidationsEpoch uint64 `json:"invalidationsEpoch"`
	InvalidationsCSN   uint64 `json:"invalidationsCsn"`
	StaleRejects       uint64 `json:"staleRejects"`
	// LastInvalidatedPartition/Epoch name the most recent epoch-bump
	// invalidation, so an operator can see a cold cache after a
	// migration or failover.
	LastInvalidatedPartition string `json:"lastInvalidatedPartition,omitempty"`
	LastInvalidationEpoch    uint64 `json:"lastInvalidationEpoch,omitempty"`
}

// New returns an empty cache for one site's PoA. capacity ≤ 0 selects
// DefaultCapacity.
func New(site string, capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	c := &Cache{site: site, capacity: capacity, seed: maphash.MakeSeed(),
		parts: make(map[string]*partState)}
	per := (capacity + nShards - 1) / nShards
	for i := range c.shards {
		sh := &c.shards[i]
		sh.idx, sh.cap = make(map[string]*record), per
		sh.root.prev, sh.root.next = &sh.root, &sh.root
		c.aliases[i].m = make(map[subscriber.Identity]string)
	}
	return c
}

// Site returns the owning PoA's site.
func (c *Cache) Site() string { return c.site }

// Capacity returns the configured entry bound.
func (c *Cache) Capacity() int { return c.capacity }

func (c *Cache) shard(key string) *cacheShard {
	return &c.shards[maphash.String(c.seed, key)&(nShards-1)]
}

func (c *Cache) stripe(id subscriber.Identity) *aliasStripe {
	return &c.aliases[maphash.String(c.seed, id.Value)&(nShards-1)]
}

func (c *Cache) part(part string) *partState {
	c.partsMu.RLock()
	ps := c.parts[part]
	c.partsMu.RUnlock()
	return ps
}

// Lookup probes the cache by primary key, counting the hit or miss.
// A Hit advances the key's floor to the served CSN (monotonic reads:
// later fills below what was just served will be rejected).
func (c *Cache) Lookup(key string) (Value, LookupState) {
	sh := c.shard(key)
	sh.mu.Lock()
	rec, st := sh.idx[key], Miss
	if rec != nil {
		st = rec.state()
	}
	if st != Hit {
		sh.mu.Unlock()
		c.misses.Add(1)
		return Value{}, st
	}
	sh.moveToFront(rec)
	if rec.meta.CSN > rec.floor {
		rec.floor = rec.meta.CSN
	}
	v := Value{Part: rec.part, Entry: rec.entry, Meta: rec.meta, Found: rec.found}
	sh.mu.Unlock()
	c.hits.Add(1)
	return v, Hit
}

// Peek reports the key's state without touching counters, LRU order
// or floors. The PoA uses it to detect the guarded state after a
// session-side probe already accounted the miss.
func (c *Cache) Peek(key string) LookupState {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if rec := sh.idx[key]; rec != nil {
		return rec.state()
	}
	return Miss
}

// ResolveIdentity maps a secondary identity (attribute name + value)
// to the primary key of a resident entry, if a request has addressed
// the entry through that identity before.
func (c *Cache) ResolveIdentity(attr, value string) (string, bool) {
	id, ok := subscriber.IdentityForAttr(attr, value)
	if !ok {
		return "", false
	}
	st := c.stripe(id)
	st.mu.Lock()
	key, ok := st.m[id]
	st.mu.Unlock()
	return key, ok
}

// Learn registers via as an alias of the resident entry for key: the
// PoA calls it when a request addressed by via found the entry only
// after the locator resolved the identity, so the next probe resolves
// it in the cache.
func (c *Cache) Learn(key string, via subscriber.Identity) {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if rec := sh.idx[key]; rec != nil {
		c.learnLocked(rec, via)
	}
}

// Floor returns the key's current-epoch staleness floor: the minimum
// CSN a read-through fill or slave response must carry to be
// acceptable at this PoA. 0 means unconstrained.
func (c *Cache) Floor(key string) uint64 {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if rec := sh.idx[key]; rec != nil && rec.state() == Hit {
		return rec.floor
	}
	return 0
}

// Fill installs a read-through result served by element under the
// given placement epoch, for a request that addressed the row through
// via (zero for DN/UID-addressed requests). Non-master sources must be
// warm (observed applying the current lineage) — a demoted master
// stuck on a divergent tail never becomes warm, so its rows cannot
// poison the cache after a failover. Negative results are cached only
// from the master (a slave's not-found may just be replication lag).
func (c *Cache) Fill(part string, epoch uint64, element string, fromMaster bool,
	key string, via subscriber.Identity, e store.Entry, m store.Meta, found bool) {
	ps := c.part(part)
	if ps == nil || (!found && !fromMaster) {
		return
	}
	if v := ps.view.Load(); v.epoch != epoch || (!fromMaster && !v.isWarm(element)) {
		return
	}
	c.install(ps, part, epoch, key, via, e, m, found, false)
}

// WriteThrough installs this PoA's own committed post-image, for a
// write that addressed the row through via. It is the only path
// allowed to replace a guarded (stale-epoch) entry: a commit under the
// current lineage supersedes any floor obligation the old lineage left
// behind, because its CSN is a valid floor in the new lineage and the
// written value is by construction at least as new as anything any
// local client has seen.
func (c *Cache) WriteThrough(part string, epoch uint64, key string,
	via subscriber.Identity, e store.Entry, m store.Meta, tombstone bool) {
	ps := c.part(part)
	if ps == nil || m.CSN == 0 || ps.view.Load().epoch != epoch {
		return
	}
	c.install(ps, part, epoch, key, via, e, m, !tombstone, true)
}

// install is the shared insert/update path. writeThrough relaxes the
// floor check (a commit may legitimately carry the floor CSN itself)
// and is the only caller allowed to cross epochs.
func (c *Cache) install(ps *partState, part string, epoch uint64, key string,
	via subscriber.Identity, e store.Entry, m store.Meta, found, writeThrough bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec := sh.idx[key]
	switch {
	case rec == nil:
		// A full shard recycles its coldest record for the new key.
		if len(sh.idx) >= sh.cap {
			rec = c.evictLocked(sh)
		} else {
			rec = new(record)
		}
		*rec = record{key: key, part: part, ps: ps, epoch: epoch, floor: m.CSN,
			aliases: rec.aliases[:0]}
		sh.idx[key] = rec
		sh.pushFront(rec)
	case rec.epoch == epoch:
		if rec.meta.CSN > m.CSN || (!writeThrough && m.CSN < rec.floor) {
			return // resident state is already newer
		}
		if m.CSN > rec.floor {
			rec.floor = m.CSN
		}
	case !writeThrough || epoch < rec.epoch:
		return // read-through must not lift the epoch guard
	default:
		rec.part, rec.ps, rec.epoch, rec.floor = part, ps, epoch, m.CSN
	}
	c.setValueLocked(rec, e, m, found)
	c.learnLocked(rec, via)
	sh.moveToFront(rec)
}

// Observe feeds a commit record installed by a co-located element
// (local commit or replicated apply) under the given epoch: it marks
// the element warm for the partition and refreshes resident entries
// in CSN order. It never inserts and never advances floors — it is a
// freshness signal, not a read.
func (c *Cache) Observe(part, element string, epoch uint64, rec *store.CommitRecord) {
	if epoch == 0 {
		return
	}
	ps := c.part(part)
	if ps == nil || !ps.markWarm(element, epoch) {
		return
	}
	for _, op := range rec.Ops {
		c.observeOp(ps, epoch, rec, op)
	}
}

func (c *Cache) observeOp(ps *partState, epoch uint64, rec *store.CommitRecord, op store.Op) {
	sh := c.shard(op.Key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r := sh.idx[op.Key]
	if r == nil || r.ps != ps || r.epoch != epoch || rec.CSN <= r.meta.CSN {
		return
	}
	m := store.Meta{CSN: rec.CSN, WallTS: rec.WallTS,
		Tombstone: op.Kind == store.OpDelete}
	c.setValueLocked(r, op.Entry, m, op.Kind != store.OpDelete)
	c.invCSN.Add(1)
}

// OnEpochBump records a partition's new placement epoch. The first
// call for a partition (initial assignment) bootstraps it with every
// replica presumed warm; later calls flip resident entries into the
// guarded state and reset warmth — replicas must re-prove themselves
// by applying records under the new lineage.
func (c *Cache) OnEpochBump(part string, epoch uint64) {
	c.partsMu.Lock()
	ps := c.parts[part]
	if ps == nil {
		ps = new(partState)
		ps.view.Store(&partView{epoch: epoch, warmAll: true})
		c.parts[part] = ps
		c.partsMu.Unlock()
		return
	}
	c.partsMu.Unlock()

	ps.mu.Lock()
	prev := ps.view.Load().epoch
	if epoch <= prev {
		ps.mu.Unlock()
		return
	}
	ps.view.Store(&partView{epoch: epoch})
	ps.mu.Unlock()

	// Count the entries that just became guarded. They stay resident
	// (served master-direct, never from cache) until a new-lineage
	// write-through replaces them: CSNs are not comparable across
	// epochs, and deleting would forget the per-key floor obligation.
	var n uint64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, r := range sh.idx {
			if r.ps == ps && r.epoch == prev {
				n++
			}
		}
		sh.mu.Unlock()
	}
	if n > 0 {
		c.invEpoch.Add(n)
	}
	c.lastInvMu.Lock()
	c.lastInvPart, c.lastInvEpoch = part, epoch
	c.lastInvMu.Unlock()
}

// Warm reports whether element is a safe read-through fill source for
// the partition under its current epoch.
func (c *Cache) Warm(part, element string) bool {
	ps := c.part(part)
	return ps != nil && ps.view.Load().isWarm(element)
}

// RecordStaleReject counts a slave response rejected for carrying a
// CSN below the key's floor (the PoA then tries the next replica).
func (c *Cache) RecordStaleReject() { c.staleRejects.Add(1) }

// Len returns the resident entry count.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.idx)
		sh.mu.Unlock()
	}
	return n
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	s := Stats{
		Site:               c.site,
		Entries:            c.Len(),
		Capacity:           c.capacity,
		Hits:               c.hits.Load(),
		Misses:             c.misses.Load(),
		Evictions:          c.evictions.Load(),
		InvalidationsEpoch: c.invEpoch.Load(),
		InvalidationsCSN:   c.invCSN.Load(),
		StaleRejects:       c.staleRejects.Load(),
	}
	c.lastInvMu.Lock()
	s.LastInvalidatedPartition, s.LastInvalidationEpoch = c.lastInvPart, c.lastInvEpoch
	c.lastInvMu.Unlock()
	return s
}

// carries reports whether the image holds the identity.
func carries(e store.Entry, id subscriber.Identity) bool {
	for _, v := range e[id.Type.Attr()] {
		if v == id.Value {
			return true
		}
	}
	return false
}

// learnLocked points via at rec in the alias index, provided rec's
// image carries it. The index keeps the image's copy of the value, not
// the caller's, so the cache never pins memory a caller's string was
// cut from (a decoded LDAP request). Caller holds rec's shard lock.
func (c *Cache) learnLocked(rec *record, via subscriber.Identity) {
	if via.Value == "" || !rec.found {
		return
	}
	vals := rec.entry[via.Type.Attr()]
	i := slices.Index(vals, via.Value)
	if i < 0 {
		return
	}
	via.Value = vals[i]
	st := c.stripe(via)
	st.mu.Lock()
	st.m[via] = rec.key
	st.mu.Unlock()
	for _, a := range rec.aliases {
		if a == via {
			return
		}
	}
	rec.aliases = append(rec.aliases, via)
}

// setValueLocked replaces rec's image and drops the registered aliases
// the new image no longer carries. Caller holds rec's shard lock.
func (c *Cache) setValueLocked(rec *record, e store.Entry, m store.Meta, found bool) {
	rec.entry, rec.meta, rec.found = e, m, found
	kept := rec.aliases[:0]
	for _, a := range rec.aliases {
		if found && carries(e, a) {
			kept = append(kept, a)
		} else {
			c.unalias(a, rec.key)
		}
	}
	rec.aliases = kept
}

// unalias removes the index entry for a unless another record has
// since taken the identity over.
func (c *Cache) unalias(a subscriber.Identity, key string) {
	st := c.stripe(a)
	st.mu.Lock()
	if st.m[a] == key {
		delete(st.m, a)
	}
	st.mu.Unlock()
}

// evictLocked unlinks and returns the shard's coldest record. Eviction
// drops the key's floor with it — the documented capacity/staleness-
// protection trade.
func (c *Cache) evictLocked(sh *cacheShard) *record {
	rec := sh.root.prev
	sh.unlink(rec)
	delete(sh.idx, rec.key)
	for _, a := range rec.aliases {
		c.unalias(a, rec.key)
	}
	c.evictions.Add(1)
	return rec
}
