// Package replication keeps the multiple copies of every data piece
// in sync (§3.1 decision 2, §3.2, §3.3.1).
//
// Master/slave mode (the paper's baseline design):
//
//   - Every partition has one master copy handling all writes and one
//     or more slave copies.
//   - The master ships committed transactions (CommitRecords) to each
//     slave strictly in commit-sequence-number order, reproducing the
//     master's serialization order at every slave (§3.2).
//   - Shipping is asynchronous by default (§3.3.1 decision 2): the
//     commit does not wait for propagation, so a master failure can
//     lose the un-replicated tail — the durability gap E4 measures.
//   - DualSeq and SyncAll durability levels implement the §5
//     evolution: commit waits for one (in sequence) or all slaves.
//   - Quorum (see quorum.go) is the tunable middle ground: commit
//     waits for k of n acks (count, majority or site-aware), so a
//     durable write pays the median replica's RTT, not the slowest's.
//
// Multi-master mode (§5 evolution): every replica accepts writes;
// records propagate asynchronously to peers and are merged using
// per-row version vectors; after a partition heals, anti-entropy
// SyncWith calls run the paper's "consistency restoration process".
package replication

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// Durability selects how many replicas must confirm a transaction
// before its commit returns (§5's tunable durability).
type Durability int

const (
	// Async commits after the local apply only; replication happens
	// in the background (§3.3.1 decision 2, the paper's default).
	Async Durability = iota
	// DualSeq applies the transaction in sequence to the master and
	// its first slave, committing only when both report success
	// (§5). If the slave is unreachable the commit fails, but the
	// master keeps the data ("leaving just one of the replicas
	// updated is acceptable").
	DualSeq
	// SyncAll waits for every slave: the Cassandra-like high end.
	SyncAll
	// Quorum waits until the configured QuorumPolicy is satisfied —
	// k of n peer acks, a majority of all copies, or a site-aware
	// split ("one local + one remote") — so a durable commit pays the
	// median replica's RTT instead of the slowest's, and stays live
	// with a replica down. Stragglers catch up asynchronously behind
	// the quorum watermark.
	Quorum
)

// String returns the durability level name.
func (d Durability) String() string {
	switch d {
	case Async:
		return "async"
	case DualSeq:
		return "dual-seq"
	case SyncAll:
		return "sync-all"
	case Quorum:
		return "quorum"
	}
	return fmt.Sprintf("Durability(%d)", int(d))
}

// ParseDurability parses an operator-facing durability level name.
func ParseDurability(s string) (Durability, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "async", "":
		return Async, nil
	case "dual-seq", "dualseq":
		return DualSeq, nil
	case "sync-all", "syncall", "sync":
		return SyncAll, nil
	case "quorum":
		return Quorum, nil
	}
	return Async, fmt.Errorf("replication: unknown durability %q", s)
}

// ErrDurability reports a commit that could not reach its required
// replica count.
var ErrDurability = errors.New("replication: durability requirement not met")

// Message types exchanged between replicas. They are exported so the
// storage element's simnet handler can route them here.

// ApplyMsg carries a CSN-ordered batch of commit records from master
// to slave. Batching keeps the replication stream efficient over the
// high-latency backbone (one round trip amortizes many commits)
// without weakening the ordering guarantee: records inside a batch
// are applied strictly in order. Every batch starts at the first
// record the master has not seen acknowledged, so batches that
// overtake each other never open a CSN gap; records the slave already
// holds are skipped. It travels as a pointer owned by the sending
// worker, and a nil response acknowledges it.
type ApplyMsg struct {
	Partition string
	Recs      []*store.CommitRecord
}

// MMApplyMsg carries a batch of commit records between multi-master
// peers, as a pointer like ApplyMsg. Re-merging a record is a no-op,
// so overlapping batches converge.
type MMApplyMsg struct {
	Partition string
	Recs      []*store.CommitRecord
}

// SyncReqMsg asks a peer for every row whose version is not dominated
// by the requester's (anti-entropy pull).
type SyncReqMsg struct {
	Partition string
	Have      map[string]store.Meta
}

// RowTransfer is one row in an anti-entropy response.
type RowTransfer struct {
	Key   string
	Entry store.Entry
	Meta  store.Meta
}

// SyncRespMsg answers a SyncReqMsg.
type SyncRespMsg struct {
	Rows []RowTransfer
}

// Resolver merges two concurrent versions of a row (§5: "trying to
// merge the different views into one single, consistent view"). It
// must be deterministic and symmetric so that both replicas converge
// without further communication.
type Resolver interface {
	Resolve(key string, a store.Entry, am store.Meta, b store.Entry, bm store.Meta) (store.Entry, store.Meta)
}

// Replica is one partition replica's replication state.
type Replica struct {
	partition string
	node      *Node
	store     *store.Store

	mu         sync.Mutex
	durability Durability
	policy     QuorumPolicy
	peers      []simnet.Addr
	senders    map[simnet.Addr]*sender
	resolver   Resolver
	// eligLocal, eligRemote and eligible cache the non-standby
	// senders split by site and combined (rebuildEligibleLocked).
	eligLocal, eligRemote, eligible []*sender

	// quorumWM is the highest CSN satisfying the quorum policy; ackCh
	// (lazily created) is closed on every acknowledgement and peer-set
	// or policy change.
	quorumWM uint64
	ackCh    chan struct{}
	// headCSN mirrors the highest CSN staged through commitPipeline.
	// The quorum refresh runs under r.mu on every ack and must not
	// touch the store's commit lock (the commit path holds it while
	// taking r.mu), so the head is tracked here atomically.
	headCSN atomic.Uint64

	// Conflicts counts concurrent-write conflicts resolved in
	// multi-master mode.
	Conflicts metrics.Counter
	// Shipped counts records handed to background senders.
	Shipped metrics.Counter
	// AckWait records how long quorum commits waited for their
	// acknowledgements (the udr_replication_quorum_ack_wait_seconds
	// histogram).
	AckWait metrics.Histogram
}

// Node multiplexes the replication traffic of every partition replica
// hosted by one storage element address.
type Node struct {
	net  *simnet.Network
	addr simnet.Addr

	mu       sync.RWMutex
	replicas map[string]*Replica

	// RetryInterval is how long a background sender waits after a
	// failed ship before retrying (partition probing cadence).
	RetryInterval time.Duration
	// CallTimeout bounds each replication RPC.
	CallTimeout time.Duration
	// InFlightWindow bounds each non-standby sender's unacknowledged
	// backlog (records). When a straggler falls further behind, its
	// oldest queued records are shed: the peer's stream gaps and the
	// periodic anti-entropy repair re-attaches it, so one slow WAN
	// link bounds its memory instead of growing without limit. Zero
	// means unbounded (the default).
	InFlightWindow int

	// tracer is the optional span recorder; atomic so the commit path
	// and background senders read it without locks.
	tracer atomic.Pointer[trace.Recorder]
}

// SetTracer installs the span recorder recording repl.send and
// repl.ackwait spans for traced commits.
func (n *Node) SetTracer(tr *trace.Recorder) { n.tracer.Store(tr) }

// NewNode returns a replication node for the storage element at addr.
func NewNode(net *simnet.Network, addr simnet.Addr) *Node {
	return &Node{
		net:           net,
		addr:          addr,
		replicas:      make(map[string]*Replica),
		RetryInterval: 5 * time.Millisecond,
		CallTimeout:   50 * time.Millisecond,
	}
}

// Addr returns the node's network address.
func (n *Node) Addr() simnet.Addr { return n.addr }

// AddReplica registers a partition replica backed by st. The caller
// chooses the store's role; the replica ships outbound records only
// while the store is (multi-)master.
func (n *Node) AddReplica(partition string, st *store.Store) *Replica {
	r := &Replica{
		partition: partition,
		node:      n,
		store:     st,
		senders:   make(map[simnet.Addr]*sender),
		resolver:  LWW{},
	}
	// Seed the staged-head mirror from the store (nonzero after WAL
	// recovery) so quorum accounting starts from the recovered CSN.
	r.headCSN.Store(st.CSN())
	st.SetCommitPipeline(r.commitPipeline)
	n.mu.Lock()
	n.replicas[partition] = r
	n.mu.Unlock()
	return r
}

// Replica returns the replica for a partition, or nil.
func (n *Node) Replica(partition string) *Replica {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.replicas[partition]
}

// RemoveReplica stops a replica's senders and unregisters it (replica
// retirement after a released migration). Later messages for the
// partition get the unknown-partition error.
func (n *Node) RemoveReplica(partition string) {
	n.mu.Lock()
	r := n.replicas[partition]
	delete(n.replicas, partition)
	n.mu.Unlock()
	if r != nil {
		r.stopSenders()
	}
}

// Stop terminates all background senders.
func (n *Node) Stop() {
	n.mu.RLock()
	defer n.mu.RUnlock()
	for _, r := range n.replicas {
		r.stopSenders()
	}
}

// HandleMessage processes a replication message. It reports handled =
// false for messages belonging to other subsystems so the storage
// element can route them elsewhere.
func (n *Node) HandleMessage(ctx context.Context, from simnet.Addr, msg any) (resp any, handled bool, err error) {
	switch m := msg.(type) {
	case *ApplyMsg:
		r := n.Replica(m.Partition)
		if r == nil {
			return nil, true, fmt.Errorf("replication: unknown partition %q", m.Partition)
		}
		for _, rec := range m.Recs {
			if err := r.store.ApplyReplicated(rec); err != nil {
				return nil, true, err
			}
		}
		return nil, true, nil
	case *MMApplyMsg:
		r := n.Replica(m.Partition)
		if r == nil {
			return nil, true, fmt.Errorf("replication: unknown partition %q", m.Partition)
		}
		for _, rec := range m.Recs {
			r.mergeRecord(rec)
		}
		return nil, true, nil
	case SyncReqMsg:
		r := n.Replica(m.Partition)
		if r == nil {
			return nil, true, fmt.Errorf("replication: unknown partition %q", m.Partition)
		}
		return r.buildSyncResp(m.Have), true, nil
	default:
		return nil, false, nil
	}
}

// Store returns the replica's backing store.
func (r *Replica) Store() *store.Store { return r.store }

// Partition returns the partition ID.
func (r *Replica) Partition() string { return r.partition }

// SetDurability selects the commit durability level.
func (r *Replica) SetDurability(d Durability) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.durability = d
	r.refreshQuorumLocked()
}

// Durability returns the current level.
func (r *Replica) Durability() Durability {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.durability
}

// SetResolver installs the multi-master conflict resolver.
func (r *Replica) SetResolver(res Resolver) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.resolver = res
}

// SetPeers replaces the replication targets (slave addresses for a
// master; peer masters in multi-master mode) and (re)starts their
// background senders.
func (r *Replica) SetPeers(peers ...simnet.Addr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stopSendersLocked()
	r.peers = append([]simnet.Addr(nil), peers...)
	for _, p := range r.peers {
		r.senders[p] = newSender(r, p)
	}
	r.rebuildEligibleLocked()
	r.refreshQuorumLocked()
}

// AddStandbyPeer attaches one replication target without disturbing
// the senders — and queued records — of the existing peers (SetPeers
// restarts every sender, dropping unshipped tails). Migration uses it
// to attach the bulk-copy target to the live stream; the new sender
// ships only records committed after the attach, so the caller must
// prime the peer's applied watermark to the attach-point CSN.
//
// The peer is standby: excluded from the DualSeq/SyncAll durability
// wait. Until its watermark is primed (after the bulk copy) it
// rejects every batch on a CSN gap, and making client commits wait on
// it would fail their durability deadline for the whole copy phase.
// The cutover drain checks its applied watermark directly; a standby
// peer is removed (RemovePeer) or replaced by SetPeers at cutover, so
// the flag never needs clearing.
func (r *Replica) AddStandbyPeer(p simnet.Addr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.senders[p]; ok {
		return
	}
	r.peers = append(r.peers, p)
	s := newSender(r, p)
	s.standby = true
	r.senders[p] = s
	r.rebuildEligibleLocked()
}

// RemovePeer detaches one replication target, stopping its sender and
// dropping whatever it had queued. The other peers' senders are
// untouched.
func (r *Replica) RemovePeer(p simnet.Addr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.senders[p]; ok {
		s.stop()
		delete(r.senders, p)
	}
	for i, q := range r.peers {
		if q == p {
			r.peers = append(r.peers[:i], r.peers[i+1:]...)
			break
		}
	}
	r.rebuildEligibleLocked()
	// Shrinking the peer set can complete a pending quorum (a dead
	// peer no longer counts toward n): re-evaluate and wake waiters.
	r.refreshQuorumLocked()
}

// Peers returns the current replication targets.
func (r *Replica) Peers() []simnet.Addr {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]simnet.Addr(nil), r.peers...)
}

func (r *Replica) stopSenders() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stopSendersLocked()
}

func (r *Replica) stopSendersLocked() {
	for a, s := range r.senders {
		s.stop()
		delete(r.senders, a)
	}
	r.rebuildEligibleLocked()
}

// Lag returns, per peer, how many committed records have not yet been
// acknowledged — the staleness window behind E5's slave reads.
func (r *Replica) Lag() map[simnet.Addr]uint64 {
	// Read the CSN before taking r.mu: the commit path holds the
	// store's commit lock while taking r.mu, so the reverse order
	// here would risk deadlock.
	csn := r.store.CSN()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[simnet.Addr]uint64, len(r.senders))
	for a, s := range r.senders {
		acked := s.ackedCSN()
		if csn > acked {
			out[a] = csn - acked
		} else {
			out[a] = 0
		}
	}
	return out
}

// WaitCaughtUp blocks until every peer has acknowledged the master's
// current CSN or the context expires.
func (r *Replica) WaitCaughtUp(ctx context.Context) error {
	target := r.store.CSN()
	for {
		allCaught := true
		r.mu.Lock()
		for _, s := range r.senders {
			if s.ackedCSN() < target {
				allCaught = false
				break
			}
		}
		r.mu.Unlock()
		if allCaught {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(500 * time.Microsecond):
		}
	}
}

// CommitPipeline exposes the replica's commit processing so a
// storage element can chain other commit-time work (WAL staging) in
// front of replication shipping. The stage phase must run in commit
// order (under the store's commit lock); the returned wait, if any,
// carries the synchronous-durability wait and runs after the lock is
// released.
func (r *Replica) CommitPipeline(rec *store.CommitRecord) (wait func() error, err error) {
	return r.commitPipeline(rec)
}

// commitPipeline runs under the store's commit lock for every local
// commit. It enqueues the record to every peer — that is the ordered
// part — and, for DualSeq, SyncAll and Quorum, returns a wait that
// blocks until the required replicas acknowledge. Waiting outside the
// commit lock lets concurrent synchronous commits overlap their
// replication round trips instead of serializing them.
func (r *Replica) commitPipeline(rec *store.CommitRecord) (func() error, error) {
	r.headCSN.Store(rec.CSN)
	// Sampled commits register per-peer send watches at enqueue time.
	// The watch start doubles as the ack-wait span start, so by
	// construction the ack-wait span can only end at or after every
	// counted peer's send span ends — the attribution invariant the
	// chaos harness asserts. Unsampled commits skip all of it: the
	// cost is one atomic load and one bool test.
	tr := r.node.tracer.Load()
	traced := tr != nil && rec.Trace.Sampled
	var traceStart time.Time
	if traced {
		traceStart = time.Now()
	}
	r.mu.Lock()
	durability := r.durability
	mm := r.store.MultiMaster()
	// Hand the record to background senders in commit order so
	// ordered delivery is preserved even for sync modes (the
	// synchronous wait below rides the same per-peer ordered queue).
	for _, s := range r.senders {
		// Watch before enqueue: enqueue wakes the sender, which on a fast
		// link can take the record's ack before a later-registered watch
		// exists; the peer's next ack would then pop and mis-stamp it.
		if traced && !s.standby {
			s.addWatch(rec.CSN, rec.Trace, traceStart)
		}
		s.enqueue(rec)
	}
	r.Shipped.Inc()
	var senders []*sender
	wait := false
	switch {
	case mm || durability == Async:
	case durability == Quorum:
		// The quorum wait rides the watermark, not a fixed sender
		// list, so peers added or removed mid-wait are accounted for.
		// With no eligible peers (single-copy partition, or every peer
		// standby) the local commit is the whole quorum.
		if nl, nr := r.requiredAcksLocked(); nl+nr == 0 {
			r.quorumWM = max(r.quorumWM, rec.CSN)
		} else {
			wait = true
		}
	default:
		// DualSeq and SyncAll wait on the eligible senders fixed at
		// commit time, in peer order (first peer first, matching §5's
		// dual-in-sequence description). Standby peers (a migration
		// target mid-bulk-copy) never gate commit durability: their
		// stream is gap-stuck until the copy primes their watermark.
		senders = r.eligible
		if durability == DualSeq && len(senders) > 1 {
			senders = senders[:1]
		}
		wait = len(senders) > 0
	}
	r.mu.Unlock()
	if !wait {
		return nil, nil
	}

	csn := rec.CSN
	tc := rec.Trace
	if !traced {
		tr = nil
	}
	return func() error {
		return r.awaitAcks(csn, senders, durability, tc, tr, traceStart)
	}, nil
}

// ackTimers recycles the deadline timers of durability waits. Go 1.23
// timers may be stopped and reset without draining their channel, so
// a pooled timer never delivers a stale tick.
var ackTimers sync.Pool

// awaitAcks blocks a synchronous commit until csn is durable at its
// level or the durability deadline (CallTimeout) expires. Quorum waits
// for the quorum watermark to cover csn (senders is nil); DualSeq and
// SyncAll wait for every sender in the list captured at commit time.
// Senders wake it on every acknowledgement through ackSignal, and one
// pooled timer bounds the whole wait. On timeout the commit returns
// ErrDurability but the record stays applied locally and keeps
// shipping; a late quorum still advances the watermark.
//
// The repl.ackwait span runs from replication enqueue (shared with the
// per-peer send watches) to now, so its duration dominates every
// counted peer's send span by construction.
func (r *Replica) awaitAcks(csn uint64, senders []*sender, durability Durability,
	tc trace.Ctx, tr *trace.Recorder, enq time.Time) error {
	start := time.Now()
	var timer *time.Timer
	expired := false
	for !expired && !r.acked(csn, senders) {
		if timer == nil {
			if t, ok := ackTimers.Get().(*time.Timer); ok {
				timer = t
				timer.Reset(r.node.CallTimeout)
			} else {
				timer = time.NewTimer(r.node.CallTimeout)
			}
		}
		ch := r.ackSignal()
		// Re-check after subscribing: an ack between the check and the
		// subscription would otherwise be missed.
		if r.acked(csn, senders) {
			break
		}
		select {
		case <-ch:
		case <-timer.C:
			expired = true
		}
	}
	if timer != nil {
		timer.Stop()
		ackTimers.Put(timer)
	}
	var err error
	if expired && !r.acked(csn, senders) {
		err = r.durabilityErr(csn, senders, durability)
	}
	if durability == Quorum && err == nil {
		d := time.Since(start)
		r.AckWait.Record(d)
		if tr != nil {
			r.AckWait.SetExemplar(d, tc.Trace.String())
		}
	}
	if tr != nil {
		attrs := []trace.Attr{{Key: "mode", Value: durability.String()}}
		if durability == Quorum {
			// "need" is the peer-ack requirement, letting verifiers pick
			// the counted set (the need fastest sends) out of the
			// recorded siblings.
			attrs = append(attrs, trace.Attr{Key: "need", Value: fmt.Sprint(r.QuorumSize() - 1)})
		}
		tr.RecordSpan(tc, "repl.ackwait", string(r.node.addr), enq, time.Since(enq), err, attrs...)
	}
	return err
}

// acked reports whether csn is durable: covered by the quorum
// watermark (nil senders) or acknowledged by every listed sender.
func (r *Replica) acked(csn uint64, senders []*sender) bool {
	if senders == nil {
		return r.QuorumWatermark() >= csn
	}
	for _, s := range senders {
		if s.ackedCSN() < csn {
			return false
		}
	}
	return true
}

// durabilityErr describes a commit whose durability deadline expired.
func (r *Replica) durabilityErr(csn uint64, senders []*sender, durability Durability) error {
	for _, s := range senders {
		if s.ackedCSN() < csn {
			return fmt.Errorf("%w: peer %s did not confirm CSN %d (%s)",
				ErrDurability, s.peer, csn, durability)
		}
	}
	return fmt.Errorf("%w: quorum (%s) not reached for CSN %d",
		ErrDurability, r.QuorumPolicy(), csn)
}

// WaitQuorum blocks until the quorum watermark reaches the master's
// CSN at the time of the call — every commit so far is quorum-durable
// — or the context expires. The catch-up counterpart of WaitCaughtUp
// under quorum mode: it does not require stragglers.
func (r *Replica) WaitQuorum(ctx context.Context) error {
	target := r.store.CSN()
	for {
		if r.QuorumWatermark() >= target {
			return nil
		}
		ch := r.ackSignal()
		if r.QuorumWatermark() >= target {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

// Promote turns a slave replica into the partition master after the
// previous master failed: the store starts accepting writes and its
// commit sequence continues from the replication high-water mark.
func (r *Replica) Promote(newPeers ...simnet.Addr) {
	r.store.SetCSN(r.store.AppliedCSN())
	r.store.SetRole(store.Master)
	r.headCSN.Store(r.store.AppliedCSN())
	r.SetPeers(newPeers...)
}

// Demote turns the replica back into a slave (post-repair rejoin).
func (r *Replica) Demote() {
	r.store.SetRole(store.Slave)
	r.SetPeers() // stop shipping
}

// mergeRecord applies a peer's record in multi-master mode using
// version-vector dominance; concurrent versions go through the
// resolver.
func (r *Replica) mergeRecord(rec *store.CommitRecord) {
	for _, op := range rec.Ops {
		incoming := RowTransfer{
			Key:   op.Key,
			Entry: op.Entry,
			Meta: store.Meta{
				CSN:       rec.CSN,
				WallTS:    rec.WallTS,
				VC:        op.VC,
				Tombstone: op.Kind == store.OpDelete,
			},
		}
		r.mergeRow(incoming)
	}
}

// mergeRow merges one incoming row version into the local store. The
// read-decide-write runs as a compare-and-swap loop: a peer's
// overlapping batches are merged concurrently, and an older version
// merged after a newer one must find the newer one and stop, not
// overwrite it.
func (r *Replica) mergeRow(in RowTransfer) {
	for {
		localEntry, localMeta, exists := r.store.GetAny(in.Key)
		merged, mergedMeta, conflict := in.Entry, in.Meta, false
		if exists {
			switch localMeta.VC.Compare(in.Meta.VC) {
			case vclock.Equal, vclock.After: // already have it, or newer
				return
			case vclock.Before: // incoming dominates
			default: // concurrent — true conflict
				r.mu.Lock()
				res := r.resolver
				r.mu.Unlock()
				merged, mergedMeta = res.Resolve(in.Key, localEntry, localMeta, in.Entry, in.Meta)
				mergedMeta.VC = localMeta.VC.Merge(in.Meta.VC)
				conflict = true
			}
		}
		if r.store.CompareAndPut(in.Key, localMeta, exists, merged, mergedMeta) {
			if conflict {
				r.Conflicts.Inc()
			}
			return
		}
	}
}

// MergeRepair merges a row version received from the anti-entropy
// repair subsystem and reports whether the local row changed. Rows
// carrying version vectors (multi-master mode) follow the vclock
// dominance rules of mergeRow; master/slave rows — whose CSNs are not
// comparable across a failover — go through the configured resolver,
// whose determinism and symmetry make both replicas converge to the
// same version without further communication.
//
// The read-resolve-write sequence runs as a compare-and-swap loop: a
// commit or stream apply landing between the read and the write
// fails the CompareAndPut and the merge re-resolves against the
// fresh version, so repair can never roll a row back behind
// concurrent progress.
func (r *Replica) MergeRepair(in RowTransfer) (changed bool) {
	for attempt := 0; attempt < 8; attempt++ {
		localEntry, localMeta, exists := r.store.GetAny(in.Key)
		if !exists {
			if r.store.CompareAndPut(in.Key, store.Meta{}, false, in.Entry, in.Meta) {
				return true
			}
			continue
		}

		var merged store.Entry
		var mergedMeta store.Meta
		if len(localMeta.VC) > 0 || len(in.Meta.VC) > 0 {
			switch localMeta.VC.Compare(in.Meta.VC) {
			case vclock.Equal, vclock.After: // local is current or newer
				return false
			case vclock.Before: // incoming dominates
				merged, mergedMeta = in.Entry, in.Meta
			default: // concurrent — true conflict
				r.mu.Lock()
				res := r.resolver
				r.mu.Unlock()
				r.Conflicts.Inc()
				merged, mergedMeta = res.Resolve(in.Key, localEntry, localMeta, in.Entry, in.Meta)
				mergedMeta.VC = localMeta.VC.Merge(in.Meta.VC)
			}
		} else {
			if metaEqual(localMeta, in.Meta) && localEntry.Equal(in.Entry) {
				return false
			}
			r.mu.Lock()
			res := r.resolver
			r.mu.Unlock()
			merged, mergedMeta = res.Resolve(in.Key, localEntry, localMeta, in.Entry, in.Meta)
			if metaEqual(mergedMeta, localMeta) && merged.Equal(localEntry) {
				return false
			}
		}
		if r.store.CompareAndPut(in.Key, localMeta, true, merged, mergedMeta) {
			return true
		}
	}
	// Contention every attempt: leave the row to the next round.
	return false
}

// metaEqual compares the version-relevant metadata fields.
func metaEqual(a, b store.Meta) bool {
	return a.CSN == b.CSN && a.WallTS == b.WallTS &&
		a.Tombstone == b.Tombstone && a.VC.Compare(b.VC) == vclock.Equal
}

// buildSyncResp returns every row whose local version is not known to
// the requester (missing, newer or concurrent). Rows are collected
// zero-copy (shared immutable versions) and sorted afterwards for a
// deterministic wire order.
func (r *Replica) buildSyncResp(have map[string]store.Meta) SyncRespMsg {
	var resp SyncRespMsg
	r.store.ForEachAny(func(k string, e store.Entry, m store.Meta) bool {
		if hm, known := have[k]; known {
			// Skip rows the requester already dominates.
			if c := hm.VC.Compare(m.VC); c == vclock.Equal || c == vclock.After {
				return true
			}
		}
		resp.Rows = append(resp.Rows, RowTransfer{Key: k, Entry: e, Meta: m})
		return true
	})
	sort.Slice(resp.Rows, func(i, j int) bool { return resp.Rows[i].Key < resp.Rows[j].Key })
	return resp
}

// SyncWith pulls the peer's divergent rows and merges them locally:
// one direction of the paper's post-partition consistency
// restoration. Run it in both directions (or twice, swapping roles)
// to fully converge two replicas.
func (r *Replica) SyncWith(ctx context.Context, peer simnet.Addr) (merged int, err error) {
	req := SyncReqMsg{Partition: r.partition, Have: r.store.AllMeta()}
	raw, err := r.node.net.Call(ctx, r.node.addr, peer, req)
	if err != nil {
		return 0, err
	}
	resp, ok := raw.(SyncRespMsg)
	if !ok {
		return 0, fmt.Errorf("replication: unexpected sync response %T", raw)
	}
	for _, row := range resp.Rows {
		r.mergeRow(row)
		merged++
	}
	return merged, nil
}

// SenderStats describes one peer sender's shipping state: the
// per-sender throughput and batch-size metrics behind the OaM lag
// view.
type SenderStats struct {
	Peer simnet.Addr
	// AckedCSN is the highest CSN the peer has confirmed.
	AckedCSN uint64
	// QueueDepth is the number of records awaiting shipment.
	QueueDepth int
	// BatchCap is the current adaptive batch-size ceiling.
	BatchCap int
	// Batches and Records count completed round trips and records
	// delivered; Records/Batches is the achieved amortization.
	Batches int64
	Records int64
	// Shed counts records dropped by the per-peer in-flight window;
	// nonzero means the peer's stream gapped and is waiting on
	// anti-entropy re-attach.
	Shed int64
}

// SenderStats returns a snapshot of every peer sender's shipping
// metrics, ordered like Peers().
func (r *Replica) SenderStats() []SenderStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SenderStats, 0, len(r.peers))
	for _, p := range r.peers {
		s, ok := r.senders[p]
		if !ok {
			continue
		}
		s.mu.Lock()
		out = append(out, SenderStats{
			Peer:       p,
			AckedCSN:   s.acked,
			QueueDepth: len(s.queue),
			BatchCap:   s.batchCap,
			Batches:    s.batches.Value(),
			Records:    s.records.Value(),
			Shed:       s.shed.Value(),
		})
		s.mu.Unlock()
	}
	return out
}

// Batch sizing bounds: the adaptive cap starts at minBatch so a lone
// commit ships with minimum latency, grows toward maxBatch while a
// backlog is draining (partition heal, burst), and shrinks back once
// the queue runs shallow.
const (
	minBatch = 16
	maxBatch = 256
)

// pipelineDepth is how many batches a sender keeps in flight to its
// peer, one worker goroutine each. A commit staged while a batch is on
// the wire ships at once instead of waiting out that round trip. Four
// matches commit_quorum_wan's four committers; see DESIGN.md for the
// measured figures.
const pipelineDepth = 4

// sendWatch tracks one traced commit awaiting this peer's
// acknowledgement: the data behind a repl.send span. start is the
// replication-enqueue instant, shared with the commit's ack-wait span.
type sendWatch struct {
	csn   uint64
	tc    trace.Ctx
	start time.Time
}

// maxSendWatches bounds the per-peer watch list; a straggling peer
// sheds the oldest watches (losing their send spans) instead of
// growing without limit.
const maxSendWatches = 64

// sender ships one replica's commit records to one peer, in order,
// with up to pipelineDepth batches in flight.
type sender struct {
	r    *Replica
	peer simnet.Addr

	mu sync.Mutex
	// queue holds the records the peer has not acknowledged, in CSN
	// order; every batch is a copy of its prefix.
	queue   []*store.CommitRecord
	watches []sendWatch
	acked   uint64
	// sentThrough is the highest CSN a worker has put on the wire
	// since the last failure; a worker ships only a batch reaching
	// past it.
	sentThrough uint64
	// inFlight counts the workers holding a window slot: shipping, or
	// backing off after a failed ship.
	inFlight int
	// probing collapses the window to one slot after a failed ship,
	// until a ship succeeds.
	probing bool
	// standby excludes the peer from synchronous durability waits
	// (set once at creation, before the sender is published).
	standby bool
	// batchCap is the adaptive per-round-trip record ceiling.
	batchCap int
	// waking is set while a wake-up is pending: the worker it wakes
	// will cut every record queued before it runs, so further enqueues
	// need not wake another.
	waking bool
	wake   chan struct{}
	done   chan struct{}

	batches metrics.Counter
	records metrics.Counter
	// shed counts records dropped by the in-flight window; a nonzero
	// value means the peer's stream gapped and anti-entropy repair
	// must re-attach it.
	shed metrics.Counter
}

// worker is one pipeline slot's scratch state, reused every round
// trip so steady-state shipping allocates nothing per batch: the
// batch, the message that carries it and the watches an ack pops.
type worker struct {
	batch []*store.CommitRecord
	// depth is the queue length when batch was cut.
	depth int
	apply ApplyMsg
	mm    MMApplyMsg
	acked []sendWatch
}

func newSender(r *Replica, peer simnet.Addr) *sender {
	s := &sender{
		r:        r,
		peer:     peer,
		batchCap: minBatch,
		wake:     make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	for range pipelineDepth {
		go s.run()
	}
	return s
}

func (s *sender) enqueue(rec *store.CommitRecord) {
	s.mu.Lock()
	s.queue = append(s.queue, rec)
	wake := !s.waking
	s.waking = true
	s.mu.Unlock()
	if wake {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// addWatch registers a traced commit for a repl.send span when this
// peer acknowledges its CSN. Called with r.mu held (same order as
// SenderStats: r.mu then s.mu).
func (s *sender) addWatch(csn uint64, tc trace.Ctx, start time.Time) {
	s.mu.Lock()
	if len(s.watches) >= maxSendWatches {
		n := copy(s.watches, s.watches[1:])
		s.watches = s.watches[:n]
	}
	s.watches = append(s.watches, sendWatch{csn: csn, tc: tc, start: start})
	s.mu.Unlock()
}

func (s *sender) ackedCSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acked
}

func (s *sender) stop() {
	select {
	case <-s.done:
	default:
		close(s.done)
	}
}

// run is one pipeline worker. It ships the queue from the first
// unacknowledged record, so a retry after a failure resends from
// there and the master's serialization order holds at the slave
// (§3.2); a batch that overtakes an earlier one carries that one's
// records too, so the peer never sees a CSN gap. Batching amortizes
// backbone round trips across many commits. Any worker that frees a
// slot looks for work again before it waits, so no record is left
// behind an idle window.
func (s *sender) run() {
	var w worker
	for {
		batch := s.next(&w)
		if batch == nil {
			select {
			case <-s.done:
				return
			case <-s.wake:
				continue
			}
		}
		var msg any
		if s.r.store.MultiMaster() {
			w.mm = MMApplyMsg{Partition: s.r.partition, Recs: batch}
			msg = &w.mm
		} else {
			w.apply = ApplyMsg{Partition: s.r.partition, Recs: batch}
			msg = &w.apply
		}
		_, err := s.r.node.net.CallWithin(s.r.node.addr, s.peer, msg, s.r.node.CallTimeout)
		last := batch[len(batch)-1].CSN
		// Drop the scratch slice's references, or an idle worker would
		// pin the last batch's records (and their row images) until its
		// next round trip overwrites them.
		clear(batch)

		if err != nil {
			s.fail()
			select {
			case <-s.done:
				return
			case <-time.After(s.r.node.RetryInterval):
			}
			s.mu.Lock()
			s.inFlight--
			s.mu.Unlock()
			continue
		}
		s.ack(&w, len(batch), last)
	}
}

// next cuts w's next batch: the queue prefix up to batchCap, if a
// window slot is free and the prefix reaches past sentThrough. It
// returns nil when there is nothing new to ship or the window is full.
func (s *sender) next(w *worker) []*store.CommitRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.waking = false
	// Per-peer in-flight window: a straggler behind a slow WAN link
	// sheds its oldest queued records instead of holding them (and
	// their row images) without bound. The peer's stream gaps — its
	// next delivered batch is rejected on the CSN gap — until the
	// periodic anti-entropy repair advances its watermark and
	// re-attaches it; quorum commits never waited on it anyway.
	// Standby peers are exempt: migration owns their backlog.
	if w := s.r.node.InFlightWindow; w > 0 && !s.standby && len(s.queue) > w {
		drop := len(s.queue) - w
		clear(s.queue[:drop])
		m := copy(s.queue, s.queue[drop:])
		clear(s.queue[m:])
		s.queue = s.queue[:m]
		s.shed.Add(int64(drop))
	}
	window := pipelineDepth
	if s.probing {
		window = 1
	}
	n := min(len(s.queue), s.batchCap)
	if n == 0 || s.inFlight >= window || s.queue[n-1].CSN <= s.sentThrough {
		return nil
	}
	w.batch = append(w.batch[:0], s.queue[:n]...)
	w.depth = len(s.queue)
	s.sentThrough = s.queue[n-1].CSN
	s.inFlight++
	return w.batch
}

// fail records a failed ship: the next batch resends from the first
// unacknowledged record, and the window collapses to the one slot the
// failed worker keeps through its backoff, so a partitioned peer is
// probed no more often than by a single worker.
func (s *sender) fail() {
	s.mu.Lock()
	s.sentThrough = s.acked
	s.probing = true
	s.mu.Unlock()
}

// ack completes a successful ship of n records through CSN last: the
// peer holds every record up to it. Acks of overlapping batches may
// arrive in any order, so the queue is trimmed by CSN and the
// acknowledged CSN only rises.
func (s *sender) ack(w *worker, n int, last uint64) {
	s.batches.Inc()
	s.records.Add(int64(n))
	s.mu.Lock()
	s.inFlight--
	s.probing = false
	ackedCSN := max(s.acked, last)
	// Compact the queue in place: the retained capacity is reused by
	// future enqueues and the consumed slots are cleared so shipped
	// records become collectible immediately.
	i := 0
	for i < len(s.queue) && s.queue[i].CSN <= ackedCSN {
		i++
	}
	m := copy(s.queue, s.queue[i:])
	clear(s.queue[m:])
	s.queue = s.queue[:m]
	// Pop the watches this ack completes. The ack instant is taken
	// here, before s.acked is published: once it is, another sender's
	// noteAck can count this peer and wake the commit's waiter, and
	// the ack-wait span must not end before a counted peer's send span
	// does.
	w.acked = w.acked[:0]
	var ackTime time.Time
	if len(s.watches) > 0 {
		i := 0
		for i < len(s.watches) && s.watches[i].csn <= ackedCSN {
			i++
		}
		if i > 0 {
			ackTime = time.Now()
			w.acked = append(w.acked, s.watches[:i]...)
			n := copy(s.watches, s.watches[i:])
			s.watches = s.watches[:n]
		}
	}
	advanced := ackedCSN > s.acked
	s.acked = ackedCSN
	// Adapt the ceiling: a backlog deeper than what we just shipped
	// means round trips are the bottleneck — grow; a batch well under
	// the ceiling means traffic is light — shrink back toward minimum
	// latency.
	switch {
	case w.depth > n && s.batchCap < maxBatch:
		s.batchCap *= 2
	case n < s.batchCap/2 && s.batchCap > minBatch:
		s.batchCap /= 2
	}
	s.mu.Unlock()
	if len(w.acked) > 0 {
		if tr := s.r.node.tracer.Load(); tr != nil {
			for _, sw := range w.acked {
				tr.RecordSpan(sw.tc, "repl.send", string(s.r.node.addr),
					sw.start, ackTime.Sub(sw.start), nil,
					trace.Attr{Key: "peer", Value: string(s.peer)},
					trace.Attr{Key: "csn", Value: fmt.Sprint(sw.csn)})
			}
		}
	}
	if advanced {
		// Outside s.mu: the replica takes r.mu then s.mu when it polls
		// acked CSNs, so notifying under s.mu would invert the lock
		// order.
		s.r.noteAck()
	}
}
