// Package store implements the in-RAM transactional storage engine
// that backs one partition replica inside a storage element.
//
// It realizes the paper's §3.2 design decisions:
//
//   - ACID is guaranteed only for transactions on one storage element;
//     a Store is the unit of atomicity.
//   - Isolation between concurrent transactions is READ_COMMITTED:
//     readers always see the latest committed row version and are
//     never blocked by writers; writers buffer a private write-set
//     applied atomically at commit.
//   - Commits are totally ordered by a commit sequence number (CSN).
//     The commit order *is* the serialization order the replication
//     stream must preserve at every slave copy (§3.2).
//
// The engine is built for the paper's §2.3 load profile — millions of
// RAM-resident subscribers under sustained concurrent FE/PS traffic:
//
//   - The row map is sharded into lock-striped buckets, so reads and
//     writes to different keys proceed in parallel; only the CSN
//     assignment itself is serialized (commitMu).
//   - Row versions are immutable copy-on-write values: every install
//     puts a fresh entry in place and never mutates an installed one,
//     so reads hand back the shared entry with zero copying. Callers
//     MUST treat entries returned by reads as read-only and Clone()
//     before mutating.
//   - An optional secondary index over configured identity attributes
//     (IMSI/MSISDN/IMPI/IMPU), off unless SetIndexedAttrs names some,
//     is maintained on every install path — local commit, replicated
//     apply, repair merge, WAL replay — and turns the §3.4
//     identity-search fallback from a full scan into a map lookup.
//     Only elements that serve identity searches (cached location
//     maps) enable it; everywhere else it would be heap nothing reads.
//
// A Store holds one partition replica; a storage element owns several
// Stores (its primary partition plus secondary copies).
package store

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
	"repro/internal/vclock"
)

// Isolation selects the transaction isolation level.
type Isolation int

const (
	// ReadCommitted is the paper's chosen level for intra-SE
	// transactions (§3.2 decision 2).
	ReadCommitted Isolation = iota
	// ReadUncommitted is the level "afforded" to transactions
	// spanning multiple storage elements (§3.2): no guarantees.
	// Within a single Store it behaves like ReadCommitted reads with
	// no atomicity expectations across Stores; the constant exists so
	// cross-SE coordinators can label their parts honestly.
	ReadUncommitted
)

// Errors returned by transaction operations.
var (
	ErrTxnDone   = errors.New("store: transaction already committed or aborted")
	ErrReadOnly  = errors.New("store: store is a slave replica; writes must go to the master copy")
	ErrNoRow     = errors.New("store: no such row")
	ErrBadCSN    = errors.New("store: replicated commit out of order")
	ErrStoreFull = errors.New("store: capacity exceeded")
)

// Entry is a row value: an LDAP-style attribute map. Attribute names
// map to one or more values.
//
// Entries returned by Store reads (GetCommitted, GetAny, ForEach and
// friends) are the installed copy-on-write versions, shared with the
// engine and with every other reader: they must be treated as
// immutable. Clone before mutating.
type Entry map[string][]string

// Clone deep-copies the entry into the compact resident layout:
// interned attribute names and one shared backing array for all value
// slices (see intern.go). The result is safe to mutate independently
// of e.
func (e Entry) Clone() Entry {
	return compactClone(e)
}

// First returns the first value of an attribute, or "".
func (e Entry) First(attr string) string {
	if vs := e[attr]; len(vs) > 0 {
		return vs[0]
	}
	return ""
}

// Equal reports deep equality with another entry.
func (e Entry) Equal(o Entry) bool {
	if len(e) != len(o) {
		return false
	}
	for k, vs := range e {
		ws, ok := o[k]
		if !ok || len(vs) != len(ws) {
			return false
		}
		for i := range vs {
			if vs[i] != ws[i] {
				return false
			}
		}
	}
	return true
}

// ModKind is the kind of an attribute modification.
type ModKind int

// Attribute modification kinds, mirroring LDAP modify semantics.
const (
	ModAdd ModKind = iota
	ModReplace
	ModDelete
)

// Mod is one attribute modification inside a Modify operation.
type Mod struct {
	Kind ModKind
	Attr string
	Vals []string
}

// apply applies the modification to e. e may be a shallow post-image
// sharing value slices with the installed version it was copied from
// (modifyImage), so apply only ever replaces an attribute's slice and
// never writes into one it did not allocate. Attribute names go
// through Intern, the same as in a compact clone.
func (m Mod) apply(e Entry) {
	attr := Intern(m.Attr)
	switch m.Kind {
	case ModAdd:
		// The clamped capacity makes append copy instead of writing
		// past the end of a shared slice.
		old := e[attr]
		e[attr] = append(old[:len(old):len(old)], m.Vals...)
	case ModReplace:
		if len(m.Vals) == 0 {
			delete(e, attr)
		} else {
			e[attr] = append([]string(nil), m.Vals...)
		}
	case ModDelete:
		if len(m.Vals) == 0 {
			delete(e, attr)
			return
		}
		var kept []string
		for _, v := range e[attr] {
			if !slices.Contains(m.Vals, v) {
				kept = append(kept, v)
			}
		}
		if len(kept) == 0 {
			delete(e, attr)
		} else {
			e[attr] = kept
		}
	}
}

// modifyImage returns the post-image of mods applied over base (nil
// for an absent row) without touching base. The copy is shallow: the
// result shares base's value slices and only the attributes a mod
// touches get new ones, so a one-attribute modify of a wide row costs
// a map, not a re-interned and re-packed clone of every value.
func modifyImage(base Entry, mods []Mod) Entry {
	out := make(Entry, len(base)+1)
	maps.Copy(out, base)
	for _, m := range mods {
		m.apply(out)
	}
	return out
}

// OpKind is the kind of a committed write operation.
type OpKind int

// Write operation kinds.
const (
	OpPut OpKind = iota
	OpModify
	OpDelete
)

// Op is one write inside a committed transaction, in a form that can
// be shipped to slave replicas and replayed in order.
type Op struct {
	Kind OpKind
	Key  string
	// Entry is the full row image for OpPut — and also for OpModify,
	// where it carries the post-image so slaves converge even if
	// their pre-image drifted.
	Entry Entry
	Mods  []Mod // the logical modification, kept for audit/merge
	// VC is the row's version vector after this op, filled only in
	// multi-master mode so peers can detect concurrent writes (§5).
	VC vclock.VC
}

// CommitRecord is the replication/WAL unit: one committed transaction.
type CommitRecord struct {
	// CSN is the commit sequence number assigned by the master
	// store; slaves must apply records in strictly increasing CSN
	// order (§3.2's serialization-order guarantee).
	CSN uint64
	// WallTS is a wall-clock timestamp (UnixMicro) used by the
	// last-writer-wins resolver in multi-master mode (§5).
	WallTS int64
	// Origin is the replica ID that committed the transaction.
	Origin string
	Ops    []Op
	// Trace is the commit span's trace context, carried in-memory to
	// the durability pipeline (WAL, replication) so their spans nest
	// under the commit. Never persisted or replicated: the WAL codec
	// and anti-entropy ignore it.
	Trace trace.Ctx
}

// Meta is per-row metadata.
type Meta struct {
	// CSN of the commit that last wrote the row.
	CSN uint64
	// WallTS of that commit (UnixMicro).
	WallTS int64
	// VC is the row's version vector, maintained only in
	// multi-master mode (§5 evolution).
	VC vclock.VC
	// Tombstone marks a deleted row retained for replication and
	// multi-master anti-entropy.
	Tombstone bool
}

type row struct {
	entry Entry
	meta  Meta
}

// Role designates whether this replica accepts client writes.
type Role int

const (
	// Master is the copy handling all writes for the partition
	// (§3.2: "At every point in time for each piece of data there is
	// one copy handling all writes").
	Master Role = iota
	// Slave copies apply the master's replication stream only.
	Slave
	// Cached marks a response served out of a front-end/PoA subscriber
	// cache rather than by a replica. No store ever holds this role;
	// it only travels in read responses so session-guarantee checkers
	// can account for cache-served reads.
	Cached
)

// String returns the role name.
func (r Role) String() string {
	switch r {
	case Master:
		return "master"
	case Cached:
		return "cached"
	default:
		return "slave"
	}
}

// numShards is the lock-stripe count. A power of two so the shard
// selection is a mask; 64 stripes keep writer collisions rare at
// realistic FE/PS concurrency while the per-store footprint stays
// trivial next to the row data.
const numShards = 64

// shard is one lock stripe of the row map.
type shard struct {
	mu   sync.RWMutex
	rows map[string]*row
}

// shardIndex places a key on its stripe (inlined FNV-1a, no
// allocation).
func shardIndex(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h & (numShards - 1)
}

// identityIndex is the secondary index over configured identity
// attributes: attr → value → primary key. Identity values are unique
// per subscriber in the UDR data model; on a pathological collision
// the last installed row wins and removal is guarded so one row can
// never evict another row's mapping.
type identityIndex struct {
	// on is the lock-free fast path: stores with no indexed attrs
	// (every store unless its element serves identity searches) must
	// not pay a global lock per install just to discover the index is
	// disabled.
	on    atomic.Bool
	mu    sync.RWMutex
	attrs []string
	vals  map[string]map[string]string
}

// update re-points the index at a row's new version. old/oldLive
// describe the replaced version, cur/curLive the installed one. It is
// called with the row's shard lock held, which serializes updates per
// key; the index's own lock serializes updates across shards.
func (ix *identityIndex) update(key string, old Entry, oldLive bool, cur Entry, curLive bool) {
	if !ix.on.Load() {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(ix.attrs) == 0 {
		return
	}
	for _, attr := range ix.attrs {
		if oldLive {
			for _, v := range old[attr] {
				if ix.vals[attr][v] == key {
					delete(ix.vals[attr], v)
				}
			}
		}
		if curLive {
			for _, v := range cur[attr] {
				m := ix.vals[attr]
				if m == nil {
					m = make(map[string]string)
					ix.vals[attr] = m
				}
				m[v] = key
			}
		}
	}
}

// Store is one partition replica. It is safe for concurrent use.
type Store struct {
	replicaID string

	// shards hold the rows, lock-striped by key hash.
	shards [numShards]shard

	// live counts non-tombstone rows across all shards.
	live atomic.Int64

	// mu guards the role and the capacity.
	mu   sync.RWMutex
	role Role
	// capacity bounds the number of live rows (the paper's 200 GB /
	// 2M-subscriber SE limit, scaled); 0 means unbounded.
	capacity int
	// multiMaster enables version-vector maintenance and lifts the
	// slave write restriction (§5 evolution). It and the two hooks
	// below are atomics because every install reads them: a store-wide
	// lock there would serialize installs that the shards keep apart.
	multiMaster atomic.Bool
	// rowHook, when set, observes every installed row version (local
	// commits, replicated applies, WAL replay and direct puts). The
	// anti-entropy tracker keeps its Merkle tree current through it.
	// It runs under the row's shard lock — hooks for different keys
	// may run concurrently, hooks for one key run in install order —
	// and must not call back into the store; the entry is shared and
	// must not be retained or mutated.
	rowHook atomic.Pointer[func(key string, e Entry, m Meta)]
	// installObs, when set, observes every commit record this store
	// installs through the live paths — local commits (under commitMu,
	// in CSN order) and replicated applies (under applyMu, in stream
	// order, before the applied watermark advances so a caller that
	// has seen AppliedCSN reach N knows the observer ran for ≤ N).
	// WAL replay, snapshot seeding and repair merges do NOT fire it:
	// it exists for freshness tracking (the FE read cache), and those
	// paths reconstruct state rather than carry new commits. The
	// record and its entries are shared and must not be mutated.
	installObs atomic.Pointer[func(rec *CommitRecord)]

	// idx is the secondary identity index (see SetIndexedAttrs).
	idx identityIndex

	// commitMu serializes commits so CSN order equals apply order.
	commitMu sync.Mutex
	csn      uint64
	// commitPipeline, when set, is invoked under commitMu with every
	// record before the commit returns; the SE wires WAL staging and
	// replication shipping through it. The wait closure it returns
	// (may be nil) runs after commitMu is released, so durability
	// waits — group-commit fsyncs, synchronous replication acks — do
	// not serialize commits behind one another.
	commitPipeline func(*CommitRecord) (wait func() error, err error)

	// applyMu serializes the replicated-apply path so the CSN
	// gap/duplicate check and the apply are atomic; appliedCSN is
	// the replication stream high-water mark on slaves.
	applyMu    sync.Mutex
	appliedCSN atomic.Uint64
}

// New returns an empty master store identified by replicaID.
func New(replicaID string) *Store {
	s := &Store{replicaID: replicaID}
	for i := range s.shards {
		s.shards[i].rows = make(map[string]*row)
	}
	return s
}

// shardFor returns the stripe holding key.
func (s *Store) shardFor(key string) *shard {
	return &s.shards[shardIndex(key)]
}

// ReplicaID returns the identifier used in version vectors and
// replication origins.
func (s *Store) ReplicaID() string { return s.replicaID }

// SetRole switches the replica role (used at failover promotion).
func (s *Store) SetRole(r Role) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.role = r
}

// Role returns the current role.
func (s *Store) Role() Role {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.role
}

// SetMultiMaster toggles multi-master mode (§5): writes are accepted
// regardless of role and rows carry version vectors.
func (s *Store) SetMultiMaster(on bool) { s.multiMaster.Store(on) }

// MultiMaster reports whether multi-master mode is on.
func (s *Store) MultiMaster() bool { return s.multiMaster.Load() }

// SetCapacity bounds the number of live rows; 0 means unbounded.
func (s *Store) SetCapacity(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.capacity = n
}

// SetCommitHook installs fn to be called under the commit lock for
// every locally committed record (WAL append + replication shipping).
// A hook error aborts the commit. The whole hook runs under commitMu;
// hooks that block on durability should use SetCommitPipeline so the
// wait happens outside the lock.
func (s *Store) SetCommitHook(fn func(*CommitRecord) error) {
	if fn == nil {
		s.SetCommitPipeline(nil)
		return
	}
	s.SetCommitPipeline(func(rec *CommitRecord) (func() error, error) {
		return nil, fn(rec)
	})
}

// SetCommitPipeline installs the two-phase commit hook: fn runs under
// the commit lock (its side effects — WAL staging, replication
// enqueue — happen in CSN order), and the wait closure it returns, if
// any, runs after the lock is released and its error is returned from
// Commit. This is what lets concurrent durable commits share one
// group-commit fsync instead of serializing N fsyncs behind commitMu.
func (s *Store) SetCommitPipeline(fn func(*CommitRecord) (wait func() error, err error)) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.commitPipeline = fn
}

// SetRowHook installs fn to be called for every row version the store
// installs, whatever the path (commit, replication, replay, direct
// put). See the rowHook field contract.
func (s *Store) SetRowHook(fn func(key string, e Entry, m Meta)) {
	s.rowHook.Store(&fn)
}

// SetInstallObserver installs fn to be called with every commit record
// the store installs via Commit or ApplyReplicated. See the installObs
// field contract; unlike SetRowHook this slot is not used by the
// anti-entropy tracker, so both can coexist.
func (s *Store) SetInstallObserver(fn func(rec *CommitRecord)) {
	s.installObs.Store(&fn)
}

// loadFunc reads an atomic hook slot; a nil F means no hook.
func loadFunc[F any](slot *atomic.Pointer[F]) (fn F) {
	if p := slot.Load(); p != nil {
		fn = *p
	}
	return fn
}

// SetIndexedAttrs configures the secondary identity index over the
// given attributes and rebuilds it from the current live rows. Every
// later install path (commit, replicated apply, repair merge, WAL
// replay, direct put) keeps it current. Call it before the store
// takes concurrent traffic (a storage element serving identity
// searches does, at replica attach). A new store indexes nothing; no
// attributes disables the index again.
func (s *Store) SetIndexedAttrs(attrs ...string) {
	s.idx.mu.Lock()
	s.idx.attrs = append([]string(nil), attrs...)
	s.idx.vals = make(map[string]map[string]string, len(attrs))
	s.idx.mu.Unlock()
	s.idx.on.Store(len(attrs) > 0)
	if len(attrs) == 0 {
		return
	}
	s.ForEach(func(key string, e Entry, _ Meta) bool {
		s.idx.update(key, nil, false, e, true)
		return true
	})
}

// IndexedAttrs returns the attributes the identity index covers.
func (s *Store) IndexedAttrs() []string {
	s.idx.mu.RLock()
	defer s.idx.mu.RUnlock()
	return append([]string(nil), s.idx.attrs...)
}

// IndexesAttr reports whether attr is covered by the identity index,
// in which case LookupByAttr answers are authoritative: a miss means
// no live row carries the value.
func (s *Store) IndexesAttr(attr string) bool {
	s.idx.mu.RLock()
	defer s.idx.mu.RUnlock()
	for _, a := range s.idx.attrs {
		if a == attr {
			return true
		}
	}
	return false
}

// LookupByAttr resolves an indexed attribute value to the primary key
// of the live row carrying it. It is the map-lookup replacement for
// the §3.4 identity full scan.
func (s *Store) LookupByAttr(attr, value string) (string, bool) {
	if !s.idx.on.Load() {
		return "", false
	}
	s.idx.mu.RLock()
	defer s.idx.mu.RUnlock()
	key, ok := s.idx.vals[attr][value]
	return key, ok
}

// CSN returns the store's current commit sequence number.
func (s *Store) CSN() uint64 {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	return s.csn
}

// AppliedCSN returns the replication high-water mark (slaves).
func (s *Store) AppliedCSN() uint64 {
	return s.appliedCSN.Load()
}

// Len returns the number of live (non-tombstone) rows.
func (s *Store) Len() int {
	return int(s.live.Load())
}

// GetCommitted returns the latest committed value and metadata of a
// row. The entry is the shared immutable version: treat it as
// read-only and Clone before mutating.
func (s *Store) GetCommitted(key string) (Entry, Meta, bool) {
	sh := s.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r, ok := sh.rows[key]
	if !ok || r.meta.Tombstone {
		return nil, Meta{}, false
	}
	return r.entry, r.meta, true
}

// isLive reports whether a live (non-tombstone) row exists for key.
func (s *Store) isLive(key string) bool {
	sh := s.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r, ok := sh.rows[key]
	return ok && !r.meta.Tombstone
}

// ForEach calls fn for every live row until fn returns false.
// Iteration order is unspecified. The entry is the shared immutable
// version; fn must not mutate it, retain it past a Clone, or call
// back into the store (it runs under the shard read lock).
func (s *Store) ForEach(fn func(key string, e Entry, m Meta) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, r := range sh.rows {
			if r.meta.Tombstone {
				continue
			}
			if !fn(k, r.entry, r.meta) {
				sh.mu.RUnlock()
				return
			}
		}
		sh.mu.RUnlock()
	}
}

// ForEachAny calls fn for every row including tombstones until fn
// returns false: the zero-copy iteration behind anti-entropy tracker
// rebuilds, sync responses and WAL snapshots. The same sharing and
// no-reentrancy rules as ForEach apply.
func (s *Store) ForEachAny(fn func(key string, e Entry, m Meta) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, r := range sh.rows {
			if !fn(k, r.entry, r.meta) {
				sh.mu.RUnlock()
				return
			}
		}
		sh.mu.RUnlock()
	}
}

// ForEachMeta calls fn for the metadata of every row including
// tombstones until fn returns false, without touching entries at all:
// the cheapest full iteration for consumers that only inspect
// versions. fn must not call back into the store.
func (s *Store) ForEachMeta(fn func(key string, m Meta) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, r := range sh.rows {
			if !fn(k, r.meta) {
				sh.mu.RUnlock()
				return
			}
		}
		sh.mu.RUnlock()
	}
}

// FreezeWrites blocks every local commit until the returned release
// func runs, and returns the CSN of the last commit staged before the
// freeze. Migration uses it twice: a momentary freeze to attach the
// target to the replication stream exactly at the snapshot CSN, and
// the bounded cutover freeze that drains in-flight replication and
// hands over the master role. Replicated applies and direct puts are
// not blocked (the frozen store is a master; those paths are idle on
// it). The caller must not commit or read CSN on this store while
// frozen.
func (s *Store) FreezeWrites() (csn uint64, release func()) {
	s.commitMu.Lock()
	return s.csn, s.commitMu.Unlock
}

// StableSnapshot runs fn with the commit and replicated-apply paths
// excluded: while fn runs, no multi-row transaction can be observed
// half-installed across shards, and the CSN / applied-CSN passed to
// fn cover every installed row. The WAL snapshotter runs its whole
// collect-write-truncate cycle inside fn, so the log can never drop
// a commit record the snapshot image does not already contain.
// Single-row direct installs (repair merges, reseeding) may still
// interleave; they carry their own complete metadata. fn must not
// commit, apply records, or read CSNs on this store.
func (s *Store) StableSnapshot(fn func(csn, appliedCSN uint64)) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	fn(s.csn, s.appliedCSN.Load())
}

// writeOp is a buffered transaction write.
type writeOp struct {
	key   string
	kind  OpKind
	entry Entry // for put
	mods  []Mod // for modify (accumulated)
}

// txnInlineWrites is the write-set size a Txn holds without any
// heap allocation. Signaling transactions — location updates, SQN
// advances — touch one or two rows; only bulk provisioning batches
// spill.
const txnInlineWrites = 4

// txnIndexThreshold is the write-set size at which key lookup
// switches from a linear scan to a map index.
const txnIndexThreshold = 9

// Txn is an in-flight transaction. A Txn is not safe for concurrent
// use by multiple goroutines (matching the one-session-one-txn model
// of the LDAP front end).
//
// The write-set is ordered (commit order = staging order): the first
// txnInlineWrites writes sit in inline storage, the rest in spill.
// The Txn holds no pointer into itself, so a caller that keeps it
// local gets it on the stack: the common one-row transaction — read
// or write — allocates nothing for the Txn. Lookups scan linearly
// until the set grows large enough to justify a map index.
type Txn struct {
	s   *Store
	iso Isolation
	// n counts the buffered writes across inline and spill.
	n      int
	inline [txnInlineWrites]writeOp
	spill  []writeOp
	// idx maps key → write index, built once the write-set outgrows
	// a linear scan.
	idx  map[string]int
	done bool
	// tr is the trace context Commit stamps onto the commit record
	// (zero when the request is untraced).
	tr trace.Ctx
}

// SetTrace attaches a trace context to the transaction; Commit copies
// it onto the commit record for the durability pipeline's spans.
func (t *Txn) SetTrace(tc trace.Ctx) { t.tr = tc }

// Begin starts a transaction at the given isolation level.
func (s *Store) Begin(iso Isolation) *Txn {
	return &Txn{s: s, iso: iso}
}

// write returns the i-th buffered write in staging order.
func (t *Txn) write(i int) *writeOp {
	if i < txnInlineWrites {
		return &t.inline[i]
	}
	return &t.spill[i-txnInlineWrites]
}

// lookup returns the buffered write for key, or nil.
func (t *Txn) lookup(key string) *writeOp {
	if t.idx != nil {
		if i, ok := t.idx[key]; ok {
			return t.write(i)
		}
		return nil
	}
	for i := 0; i < t.n; i++ {
		if w := t.write(i); w.key == key {
			return w
		}
	}
	return nil
}

// Get returns the row as seen by this transaction: its own buffered
// writes first (read-your-writes), else the latest committed version
// (READ_COMMITTED: never uncommitted data from other transactions).
// Committed entries are returned shared, like Store.GetCommitted.
//
// The meta is that of the committed version the result is based on,
// read together with it: for a key with no buffered write, entry and
// meta come from one GetCommitted, so they always describe the same
// version even while commits land on the key. Not-found rows return a
// zero meta.
func (t *Txn) Get(key string) (Entry, Meta, bool) {
	if t.done {
		return nil, Meta{}, false
	}
	w := t.lookup(key)
	if w == nil {
		return t.s.GetCommitted(key)
	}
	if w.kind == OpDelete {
		return nil, Meta{}, false
	}
	base, m, _ := t.s.GetCommitted(key)
	if w.kind == OpPut {
		return w.entry.Clone(), m, true
	}
	return modifyImage(base, w.mods), m, true
}

func (t *Txn) stage(key string) (w *writeOp, isNew bool) {
	if w := t.lookup(key); w != nil {
		return w, false
	}
	if t.n >= txnInlineWrites {
		t.spill = append(t.spill, writeOp{})
	}
	w = t.write(t.n)
	w.key = key
	t.n++
	if t.idx != nil {
		t.idx[key] = t.n - 1
	} else if t.n >= txnIndexThreshold {
		t.idx = make(map[string]int, 2*t.n)
		for i := 0; i < t.n; i++ {
			t.idx[t.write(i).key] = i
		}
	}
	return w, true
}

// Put buffers a full-row write.
func (t *Txn) Put(key string, e Entry) {
	w, _ := t.stage(key)
	w.kind = OpPut
	w.entry = e.Clone()
	w.mods = nil
}

// Modify buffers attribute modifications against the row.
func (t *Txn) Modify(key string, mods ...Mod) {
	w, isNew := t.stage(key)
	switch {
	case isNew:
		w.kind = OpModify
		w.mods = append(w.mods, mods...)
	case w.kind == OpPut:
		for _, m := range mods {
			m.apply(w.entry)
		}
	case w.kind == OpDelete:
		// Modifying a deleted row recreates it from the mods.
		w.kind = OpPut
		w.entry = Entry{}
		for _, m := range mods {
			m.apply(w.entry)
		}
	default:
		w.kind = OpModify
		w.mods = append(w.mods, mods...)
	}
}

// Delete buffers a row deletion.
func (t *Txn) Delete(key string) {
	w, _ := t.stage(key)
	w.kind = OpDelete
	w.entry = nil
	w.mods = nil
}

// Abort discards the transaction.
func (t *Txn) Abort() { t.done = true }

// Commit atomically applies the write-set, assigns the next CSN, runs
// the commit hook (WAL + replication) and returns the commit record.
// Read-only transactions return a nil record.
//
// The store-wide commit lock makes the CSN order identical to the
// apply order, which is what lets slaves reproduce the master's
// serialization order exactly (§3.2). Rows install per shard: each
// individual row is only ever observed in a committed state, but a
// concurrent reader may see a multi-row transaction partially applied
// — row-granular READ_COMMITTED, the honest concurrent reading of the
// paper's isolation level.
func (t *Txn) Commit() (*CommitRecord, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	t.done = true
	if t.n == 0 {
		return nil, nil
	}

	s := t.s
	s.commitMu.Lock()
	// The role gate lives under the commit lock: a commit parked on a
	// migration cutover's write-freeze must re-observe the demotion
	// the freeze protected, or it would install rows on a store that
	// stopped being the master while it waited (a lost write — the new
	// master never sees it).
	mm := s.multiMaster.Load()
	s.mu.RLock()
	roleOK := s.role == Master || mm
	capacity := s.capacity
	s.mu.RUnlock()
	if !roleOK {
		s.commitMu.Unlock()
		return nil, ErrReadOnly
	}

	// Capacity check: count net new live rows. commitMu serializes
	// commits, so the check cannot race another commit; background
	// direct puts (seeding, repair) are accounted through the shared
	// live counter.
	if capacity > 0 {
		delta := 0
		for i := 0; i < t.n; i++ {
			w := t.write(i)
			liveNow := s.isLive(w.key)
			switch w.kind {
			case OpPut, OpModify:
				if !liveNow {
					delta++
				}
			case OpDelete:
				if liveNow {
					delta--
				}
			}
		}
		if int(s.live.Load())+delta > capacity {
			s.commitMu.Unlock()
			return nil, ErrStoreFull
		}
	}

	rec := newCommitRecord(t.n)
	rec.CSN = s.csn + 1
	rec.WallTS = nowMicro()
	rec.Origin = s.replicaID
	rec.Trace = t.tr

	// Build each op and install its post-image under the row's shard
	// lock, so the post-image computation and the install are atomic
	// per row. The txn is done, so write-set entries and mod slices
	// transfer into the record without copying; and because installed
	// entries are immutable copy-on-write values, the record and the
	// row share one post-image instead of cloning it twice.
	for wi := 0; wi < t.n; wi++ {
		w := t.write(wi)
		op := Op{Key: w.key}
		sh := s.shardFor(w.key)
		sh.mu.Lock()
		r, exists := sh.rows[w.key]
		if !exists {
			r = &row{}
			sh.rows[w.key] = r
		}
		wasLive := exists && !r.meta.Tombstone
		oldEntry := r.entry
		switch w.kind {
		case OpPut:
			op.Kind = OpPut
			op.Entry = w.entry // txn is done; ownership transfers
			r.entry = op.Entry
			r.meta.Tombstone = false
		case OpModify:
			op.Kind = OpModify
			op.Mods = w.mods // ownership transfers
			var base Entry
			if wasLive {
				base = r.entry
			}
			// Post-image, shared with the row; it shares the untouched
			// attributes' value slices with the version it replaces.
			op.Entry = modifyImage(base, w.mods)
			r.entry = op.Entry
			r.meta.Tombstone = false
		case OpDelete:
			op.Kind = OpDelete
			r.entry = nil
			r.meta.Tombstone = true
		}
		r.meta.CSN = rec.CSN
		r.meta.WallTS = rec.WallTS
		if mm {
			r.meta.VC = r.meta.VC.Clone().Tick(s.replicaID)
			op.VC = r.meta.VC.Clone()
		}
		s.finishInstallLocked(w.key, oldEntry, wasLive, r)
		sh.mu.Unlock()
		rec.Ops = append(rec.Ops, op)
	}

	if obs := loadFunc(&s.installObs); obs != nil {
		obs(rec)
	}

	var wait func() error
	if s.commitPipeline != nil {
		var err error
		wait, err = s.commitPipeline(rec)
		if err != nil {
			// Roll back is not possible after apply; the paper's
			// design has the same property (commit then replicate).
			// Hooks therefore only fail for full-durability mode
			// (dump-before-commit), where the SE treats a hook error
			// as fatal. We surface the error; the row state keeps the
			// committed data, matching a master that persists after
			// a failed synchronous replication (§5 dual-in-sequence
			// "leaving just one of the replicas updated is
			// acceptable").
			s.csn = rec.CSN
			s.commitMu.Unlock()
			return rec, err
		}
	}
	s.csn = rec.CSN
	s.commitMu.Unlock()

	// Durability wait — group-commit fsync, synchronous replication
	// acks — happens outside commitMu: concurrent commits stage in
	// CSN order but share cohort fsyncs instead of queueing N of them.
	if wait != nil {
		if err := wait(); err != nil {
			return rec, err
		}
	}
	return rec, nil
}

// newCommitRecord returns an empty record with room for n ops. The
// common one-write record and its op share one allocation.
func newCommitRecord(n int) *CommitRecord {
	if n == 1 {
		one := &struct {
			rec CommitRecord
			op  [1]Op
		}{}
		one.rec.Ops = one.op[:0]
		return &one.rec
	}
	return &CommitRecord{Ops: make([]Op, 0, n)}
}

// finishInstallLocked settles the side state of one installed row
// version: the live counter, the identity index (when enabled) and the
// row hook. The caller holds the key's shard write lock;
// oldEntry/wasLive describe the replaced version. The hook is loaded
// per install, under the shard lock, so a tracker attached mid-commit
// cannot miss installs that land after its rebuild scan (NewTracker's
// hook-before-scan invariant).
func (s *Store) finishInstallLocked(key string, oldEntry Entry, wasLive bool, r *row) {
	nowLive := !r.meta.Tombstone
	if nowLive && !wasLive {
		s.live.Add(1)
	} else if !nowLive && wasLive {
		s.live.Add(-1)
	}
	s.idx.update(key, oldEntry, wasLive, r.entry, nowLive)
	if hook := loadFunc(&s.rowHook); hook != nil {
		hook(key, r.entry, r.meta)
	}
}

// applyOps installs a record's post-images, locking each op's shard
// individually. local marks a locally committed record (ticks the
// version vector in multi-master mode).
func (s *Store) applyOps(rec *CommitRecord, local bool) {
	mm := s.multiMaster.Load()
	for i := range rec.Ops {
		op := &rec.Ops[i]
		sh := s.shardFor(op.Key)
		sh.mu.Lock()
		r, ok := sh.rows[op.Key]
		if !ok {
			r = &row{}
			sh.rows[op.Key] = r
		}
		wasLive := ok && !r.meta.Tombstone
		oldEntry := r.entry
		switch op.Kind {
		case OpPut, OpModify:
			// Post-images are immutable once committed, so the applied
			// row shares the record's entry instead of cloning it —
			// the same sharing the local install path uses.
			r.entry = op.Entry
			r.meta.Tombstone = false
		case OpDelete:
			r.entry = nil
			r.meta.Tombstone = true
		}
		r.meta.CSN = rec.CSN
		r.meta.WallTS = rec.WallTS
		if mm && local {
			r.meta.VC = r.meta.VC.Clone().Tick(s.replicaID)
			op.VC = r.meta.VC.Clone()
		} else if !local && len(op.VC) > 0 {
			r.meta.VC = op.VC.Clone()
		}
		s.finishInstallLocked(op.Key, oldEntry, wasLive, r)
		sh.mu.Unlock()
	}
}

// ApplyReplicated applies a master's commit record on a slave (or a
// peer's record in multi-master mode). Records must arrive in
// strictly increasing CSN order per origin stream; the caller (the
// replication session) enforces ordering and retransmission.
func (s *Store) ApplyReplicated(rec *CommitRecord) error {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	applied := s.appliedCSN.Load()
	if rec.CSN <= applied {
		// Duplicate delivery; idempotent skip.
		return nil
	}
	if rec.CSN != applied+1 {
		return fmt.Errorf("%w: have %d, got %d", ErrBadCSN, applied, rec.CSN)
	}
	s.applyOps(rec, false)
	if obs := loadFunc(&s.installObs); obs != nil {
		// Fire before the watermark advances: anyone who polls
		// AppliedCSN() up to rec.CSN may rely on observer effects
		// (cache freshness marks) being complete.
		obs(rec)
	}
	s.appliedCSN.Store(rec.CSN)
	return nil
}

// SetAppliedCSN primes the replication high-water mark (used when a
// slave is seeded from a snapshot, or re-attached after repair).
func (s *Store) SetAppliedCSN(csn uint64) {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	s.appliedCSN.Store(csn)
}

// AdvanceAppliedCSN raises the replication high-water mark to csn
// only if it is currently lower, atomically with respect to stream
// applies (migration watermark priming: the live stream may already
// have applied past the snapshot point, and rewinding would gap-stick
// it on records nobody will re-deliver).
func (s *Store) AdvanceAppliedCSN(csn uint64) {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	if s.appliedCSN.Load() < csn {
		s.appliedCSN.Store(csn)
	}
}

// SetCSN primes the commit sequence number (used by WAL recovery so
// the next local commit continues the sequence).
func (s *Store) SetCSN(csn uint64) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.csn = csn
}

// Replay applies a recovered commit record during WAL redo. Unlike
// ApplyReplicated it also advances the local CSN, because replayed
// records were this replica's own commits.
func (s *Store) Replay(rec *CommitRecord) {
	s.applyOps(rec, false)
	s.commitMu.Lock()
	if rec.CSN > s.csn {
		s.csn = rec.CSN
	}
	s.commitMu.Unlock()
}

// PutDirect installs a row bypassing the transaction machinery. It is
// used by snapshot load, anti-entropy merge and bulk seeding. The
// meta is stored as given.
func (s *Store) PutDirect(key string, e Entry, m Meta) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s.putShardLocked(sh, key, e, m)
}

// PutOwned is PutDirect without the defensive clone: ownership of e
// transfers to the store, and the caller must not retain or mutate it
// afterwards. Streaming snapshot load uses it so a multi-million-row
// image is decoded and installed with one allocation per row instead
// of two.
func (s *Store) PutOwned(key string, e Entry, m Meta) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r, ok := sh.rows[key]
	wasLive := ok && !r.meta.Tombstone
	if !ok {
		r = &row{}
		sh.rows[key] = r
	}
	oldEntry := r.entry
	r.entry = e
	r.meta = m
	s.finishInstallLocked(key, oldEntry, wasLive, r)
}

// CompareAndPut installs a row version only if the row's current
// state still matches the expected metadata (or expected absence).
// It reports whether the install happened. Anti-entropy merges use
// it to close the window between reading a row, resolving, and
// writing the result: a commit or stream apply that lands in between
// fails the compare and the merge retries against the fresh version.
func (s *Store) CompareAndPut(key string, expect Meta, expectExists bool, e Entry, m Meta) bool {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r, ok := sh.rows[key]
	if ok != expectExists {
		return false
	}
	if ok && !sameVersion(r.meta, expect) {
		return false
	}
	s.putShardLocked(sh, key, e, m)
	return true
}

// sameVersion compares the version-identifying metadata fields.
func sameVersion(a, b Meta) bool {
	return a.CSN == b.CSN && a.WallTS == b.WallTS &&
		a.Tombstone == b.Tombstone && a.VC.Compare(b.VC) == vclock.Equal
}

// putShardLocked is the shared install path of PutDirect and
// CompareAndPut. Callers hold sh.mu.
func (s *Store) putShardLocked(sh *shard, key string, e Entry, m Meta) {
	r, ok := sh.rows[key]
	wasLive := ok && !r.meta.Tombstone
	if !ok {
		r = &row{}
		sh.rows[key] = r
	}
	oldEntry := r.entry
	r.entry = e.Clone()
	r.meta = m
	s.finishInstallLocked(key, oldEntry, wasLive, r)
}

// MetaOf returns row metadata even for tombstones (anti-entropy needs
// tombstone versions).
func (s *Store) MetaOf(key string) (Meta, bool) {
	sh := s.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r, ok := sh.rows[key]
	if !ok {
		return Meta{}, false
	}
	return r.meta, true
}

// AllMeta returns the metadata of every row including tombstones,
// used by the multi-master anti-entropy scan (§5).
func (s *Store) AllMeta() map[string]Meta {
	out := make(map[string]Meta, s.Len())
	s.ForEachMeta(func(k string, m Meta) bool {
		out[k] = m
		return true
	})
	return out
}

// GetAny returns the row even if tombstoned (anti-entropy). Like
// GetCommitted, the entry is the shared immutable version.
func (s *Store) GetAny(key string) (Entry, Meta, bool) {
	sh := s.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r, ok := sh.rows[key]
	if !ok {
		return nil, Meta{}, false
	}
	return r.entry, r.meta, true
}
