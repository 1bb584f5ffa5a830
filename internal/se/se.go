// Package se implements the storage element (SE), the unit of storage
// in the UDR architecture (§2.3, §3.4.1): a shared-nothing group of
// two to four blades holding one primary partition copy plus one or
// two secondary copies of other partitions, all in RAM, with periodic
// disk saves and replication endpoints.
//
// One Element owns several partition replicas (store.Store instances),
// a WAL per replica, and a replication.Node. It serves three kinds of
// traffic at a single simnet address:
//
//   - client transactions (TxnReq) from LDAP servers / front-ends,
//   - replication messages from peer elements,
//   - identity-search fan-out (FindReq) from cached location stages.
package se

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/antientropy"
	"repro/internal/metrics"
	"repro/internal/rebalance"
	"repro/internal/replication"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/subscriber"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Errors returned to clients.
var (
	ErrUnknownPartition = errors.New("se: partition not hosted here")
	ErrBadRequest       = errors.New("se: malformed request")
	// ErrStalePlacement is the retryable referral a request carrying
	// an out-of-date placement epoch gets: the partition's master
	// moved (migration cutover, failover) since the caller read its
	// placement. The caller must refresh the partition table and
	// retry instead of treating the response as authoritative — a
	// write accepted under a stale epoch could land on a demoted
	// master and be lost.
	ErrStalePlacement = errors.New("se: stale placement epoch, refresh and retry")
)

// TxnOpKind enumerates the operations a one-shot transaction may
// carry.
type TxnOpKind int

// Transaction operation kinds.
const (
	TxnGet TxnOpKind = iota
	TxnPut
	TxnModify
	TxnDelete
	TxnCompare
)

// TxnOp is one operation inside a TxnReq.
type TxnOp struct {
	Kind  TxnOpKind
	Key   string
	Entry store.Entry // for TxnPut
	Mods  []store.Mod // for TxnModify
	Attr  string      // for TxnCompare
	Value string      // for TxnCompare
}

// TxnReq executes a one-shot transaction against one partition
// replica on this element. All writes apply atomically at commit;
// reads see READ_COMMITTED state (§3.2). Transactions spanning
// multiple elements are the client's problem — exactly as in the
// paper, no cross-SE guarantees exist.
type TxnReq struct {
	Partition string
	Iso       store.Isolation
	Ops       []TxnOp
	// Tag is an opaque client-supplied operation label, carried
	// through the PoA unchanged and handed to the element's
	// TxnObserver. The consistency checker uses it to attribute
	// server-side commit windows to client operations whose response
	// was lost in a partition.
	Tag string
	// Epoch is the placement epoch the caller routed under (0 skips
	// the check). A mismatch against the replica's current epoch gets
	// the ErrStalePlacement referral: the partition's master moved
	// since the caller read its placement.
	Epoch uint64
	// ReturnPostImage asks the element to copy each write op's
	// committed post-image (and its commit CSN) into the matching
	// OpResult slot. The PoA sets it when a front-end read cache wants
	// to write-through its own commits without a second round trip.
	ReturnPostImage bool
	// Trace is the caller's trace context: the element's se.txn span
	// and the whole durability chain below it (WAL stage/fsync,
	// replication send and ack wait) nest under it.
	Trace trace.Ctx
}

// TraceCtx implements trace.Carrier.
func (r TxnReq) TraceCtx() trace.Ctx { return r.Trace }

// WithTraceCtx implements trace.Carrier: the network uses it to nest
// the receiving element's spans under the per-hop net.call span.
func (r TxnReq) WithTraceCtx(tc trace.Ctx) any { r.Trace = tc; return r }

// OpResult is the per-operation outcome inside a TxnResp.
type OpResult struct {
	Entry     store.Entry
	Meta      store.Meta
	Found     bool
	CompareOK bool
}

// TxnResp reports a transaction's results.
type TxnResp struct {
	Results []OpResult
	// CSN is the commit sequence number assigned (0 for read-only).
	CSN uint64
	// Role echoes the serving replica's role so clients can tell a
	// potentially stale slave read from a master read.
	Role store.Role
}

// FindReq asks the element to search its hosted master replicas for a
// subscription with the given identity: the expensive path behind
// cached-locator misses (§3.5).
type FindReq struct {
	Identity subscriber.Identity
}

// FindResp answers a FindReq.
type FindResp struct {
	Found        bool
	SubscriberID string
	Partition    string
}

// StatusReq asks for element status (OaM poll).
type StatusReq struct{}

// ReplicaStatus describes one hosted replica.
type ReplicaStatus struct {
	Partition  string
	Role       store.Role
	Rows       int
	CSN        uint64
	AppliedCSN uint64
}

// StatusResp answers a StatusReq.
type StatusResp struct {
	ID       string
	Site     string
	Blades   int
	Replicas []ReplicaStatus
}

// walFlushInterval is the periodic-mode WAL flush cadence.
const walFlushInterval = 50 * time.Millisecond

// Config configures an Element.
type Config struct {
	// ID names the element (e.g. "se-eu-1").
	ID string
	// Site is the geographic site (blade cluster) hosting it.
	Site string
	// Blades is the number of blades forming the element (2–4,
	// §3.4.1); it only feeds capacity accounting.
	Blades int
	// CapacityPerPartition bounds rows per hosted master partition
	// (the scaled 2M-subscriber SE limit); 0 = unbounded.
	CapacityPerPartition int
	// WALDir, when non-empty, enables disk persistence under
	// WALDir/<partition>/.
	WALDir string
	// WALMode selects periodic or sync-every-commit durability.
	WALMode wal.Mode
	// CheckpointInterval, when non-zero, runs an incremental WAL
	// checkpoint on every replica on this cadence — the paper's §3.1
	// "saves data in RAM to local persistent storage on a periodic
	// basis". The image streams while commits flow; only the covered
	// log prefix is dropped.
	CheckpointInterval time.Duration
	// AntiEntropy enables Merkle-digest replica repair: every hosted
	// replica keeps a hash tree over its rows and serves the repair
	// protocol; master replicas additionally run repair rounds.
	AntiEntropy bool
	// RepairInterval is the periodic repair cadence for hosted master
	// replicas; 0 disables the periodic tick (rounds then run only on
	// RepairNow / heal triggers).
	RepairInterval time.Duration
	// IdentityIndex makes every hosted replica, master or slave, keep
	// the secondary identity index that FindReq resolves through, so a
	// promoted slave or a migrated-in replica answers at once. The UDR
	// sets it only for cached location maps, the one mode that sends
	// FindReq; without it find scans the partition in full.
	IdentityIndex bool
}

// TxnObserver observes every one-shot transaction the element serves.
// It runs synchronously inside the element's request handler — after
// the commit installed, before the response leaves the element — so an
// observer sees the authoritative outcome (including the CSN of
// commits whose response is later lost to a partition) without racing
// the system under test. resp carries the assigned CSN even when err
// is non-nil and the transaction still applied (a durability-wait
// failure); a zero CSN with a non-nil err means nothing was installed.
// Observers must be fast and must not call back into the element.
type TxnObserver func(from simnet.Addr, req TxnReq, resp TxnResp, err error)

// Element is one storage element.
type Element struct {
	cfg  Config
	net  *simnet.Network
	addr simnet.Addr
	node *replication.Node

	mu        sync.RWMutex
	replicas  map[string]*PartitionReplica
	repairers map[string]*antientropy.Repairer
	// epochs holds each hosted partition's placement epoch, pushed by
	// the topology owner at every master change; requests carrying an
	// older epoch get the ErrStalePlacement referral.
	epochs map[string]uint64
	txnObs TxnObserver
	// installObs fans out every hosted store's install observer (see
	// store.SetInstallObserver) tagged with the owning partition; the
	// UDR wires the site's FE read cache freshness tracking here.
	installObs func(partition string, rec *store.CommitRecord)
	down       bool

	// ae serves the anti-entropy repair protocol; sched paces master
	// repair rounds. Both are nil unless cfg.AntiEntropy.
	ae    *antientropy.Peer
	sched *antientropy.Scheduler

	// reb serves the partition-migration protocol (always on: any
	// element can become a migration source or target).
	reb *rebalance.Peer

	ckptStop chan struct{}
	ckptWG   sync.WaitGroup

	// Reads / Writes count client operations served.
	Reads  metrics.Counter
	Writes metrics.Counter
	// Checkpoints counts completed checkpoint passes.
	Checkpoints metrics.Counter

	// tracer is the optional span recorder (atomic: the commit path
	// reads it without locks).
	tracer atomic.Pointer[trace.Recorder]
}

// SetTracer installs the span recorder for this element's se.txn /
// se.commit / wal.* spans and its replication node's repl.* spans.
func (e *Element) SetTracer(tr *trace.Recorder) {
	e.tracer.Store(tr)
	e.node.SetTracer(tr)
}

// PartitionReplica bundles one partition copy's moving parts.
type PartitionReplica struct {
	Partition string
	Store     *store.Store
	Repl      *replication.Replica
	Log       *wal.Log
	// Tracker is the anti-entropy Merkle tracker (nil unless the
	// element runs with AntiEntropy).
	Tracker *antientropy.Tracker
}

// New creates an element and registers it on the network at
// "<site>/<id>".
func New(net *simnet.Network, cfg Config) *Element {
	if cfg.Blades == 0 {
		cfg.Blades = 2
	}
	e := &Element{
		cfg:       cfg,
		net:       net,
		addr:      simnet.MakeAddr(cfg.Site, cfg.ID),
		replicas:  make(map[string]*PartitionReplica),
		repairers: make(map[string]*antientropy.Repairer),
		epochs:    make(map[string]uint64),
		reb:       rebalance.NewPeer(),
	}
	e.node = replication.NewNode(net, e.addr)
	if cfg.AntiEntropy {
		e.ae = antientropy.NewPeer()
		e.sched = antientropy.NewScheduler(cfg.RepairInterval, func(ctx context.Context) {
			e.RepairRound(ctx)
		})
		e.sched.Start()
	}
	net.Register(e.addr, e.handle)
	if cfg.WALDir != "" && cfg.CheckpointInterval > 0 {
		e.startCheckpointer()
	}
	return e
}

// startCheckpointer launches the periodic WAL-compaction pass.
func (e *Element) startCheckpointer() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.startCheckpointerLocked()
}

// startCheckpointerLocked is the e.mu-held variant (element recovery
// restarts the pass while already holding the lock). Keeping the
// WaitGroup Add under the same lock stopCheckpointer reads under gives
// Add/Wait the happens-before ordering the race detector demands.
func (e *Element) startCheckpointerLocked() {
	if e.ckptStop != nil {
		return
	}
	stop := make(chan struct{})
	e.ckptStop = stop

	e.ckptWG.Add(1)
	go func() {
		defer e.ckptWG.Done()
		t := time.NewTicker(e.cfg.CheckpointInterval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				e.CheckpointAll()
			}
		}
	}()
}

// stopCheckpointer halts the periodic pass (crash or shutdown).
func (e *Element) stopCheckpointer() {
	e.mu.Lock()
	stop := e.ckptStop
	e.ckptStop = nil
	e.mu.Unlock()
	if stop != nil {
		close(stop)
		e.ckptWG.Wait()
	}
}

// CheckpointAll runs an incremental checkpoint on every replica's
// WAL: a durable store image plus pruning of the covered log prefix.
// It returns the number of replicas checkpointed.
func (e *Element) CheckpointAll() int {
	e.mu.RLock()
	prs := make([]*PartitionReplica, 0, len(e.replicas))
	if !e.down {
		for _, pr := range e.replicas {
			if pr.Log != nil {
				prs = append(prs, pr)
			}
		}
	}
	e.mu.RUnlock()
	n := 0
	for _, pr := range prs {
		if err := pr.Log.Checkpoint(pr.Store); err == nil {
			n++
		}
	}
	if n > 0 {
		e.Checkpoints.Inc()
	}
	return n
}

// Addr returns the element's network address.
func (e *Element) Addr() simnet.Addr { return e.addr }

// ID returns the element ID.
func (e *Element) ID() string { return e.cfg.ID }

// Site returns the hosting site.
func (e *Element) Site() string { return e.cfg.Site }

// Node exposes the replication node (topology wiring).
func (e *Element) Node() *replication.Node { return e.node }

// AddReplica hosts a partition replica with the given role. The
// returned PartitionReplica carries the store and replication handle
// for topology wiring.
func (e *Element) AddReplica(partition string, role store.Role) (*PartitionReplica, error) {
	e.mu.RLock()
	_, dup := e.replicas[partition]
	e.mu.RUnlock()
	if dup {
		return nil, fmt.Errorf("se %s: already hosts a replica of %q", e.cfg.ID, partition)
	}
	st, l, _, err := e.openStore(partition, role, nil)
	if err != nil {
		return nil, err
	}
	pr := &PartitionReplica{Partition: partition, Store: st, Log: l}
	pr.Repl = e.node.AddReplica(partition, st)
	if pr.Log != nil {
		st.SetCommitPipeline(e.commitPipeline(pr.Log, pr.Repl))
	}
	e.attachAntiEntropy(pr)
	e.reb.Register(partition, st)

	e.mu.Lock()
	e.replicas[partition] = pr
	e.mu.Unlock()
	return pr, nil
}

// openStore builds a hosted partition's store and, when the element
// persists, its WAL, for AddReplica and Recover. A non-nil crashed
// store marks recovery: its multi-master flag carries over and the new
// store is first rebuilt from the WAL directory (snapshot + redo of the
// synced tail); replayed counts the redone commit records.
func (e *Element) openStore(partition string, role store.Role, crashed *store.Store) (st *store.Store, l *wal.Log, replayed int, err error) {
	st = store.New(e.cfg.ID + "/" + partition)
	st.SetRole(role)
	if crashed != nil {
		st.SetMultiMaster(crashed.MultiMaster())
	}
	if e.cfg.IdentityIndex {
		st.SetIndexedAttrs(subscriber.IdentityAttrs...)
	}
	if role == store.Master && e.cfg.CapacityPerPartition > 0 {
		st.SetCapacity(e.cfg.CapacityPerPartition)
	}
	e.wireInstallObserver(partition, st)
	if e.cfg.WALDir == "" {
		return st, nil, 0, nil
	}
	dir := e.cfg.WALDir + "/" + partition
	if crashed != nil {
		if _, replayed, err = wal.Recover(dir, st); err != nil {
			return nil, nil, 0, fmt.Errorf("se %s: recover %s: %w", e.cfg.ID, partition, err)
		}
	}
	if l, err = wal.Open(dir, e.cfg.WALMode); err != nil {
		return nil, nil, 0, fmt.Errorf("se %s: %w", e.cfg.ID, err)
	}
	l.StartPeriodic(walFlushInterval)
	return st, l, replayed, nil
}

// SetInstallObserver installs fn to observe every commit record any
// hosted replica installs (local commit or replicated apply), tagged
// with the partition. Applies to replicas added or recovered later
// too. The record is shared and must not be mutated.
func (e *Element) SetInstallObserver(fn func(partition string, rec *store.CommitRecord)) {
	e.mu.Lock()
	e.installObs = fn
	e.mu.Unlock()
}

// wireInstallObserver connects one store's install hook to the
// element-level observer. The indirection survives observer swaps and
// Recover's store replacement.
func (e *Element) wireInstallObserver(partition string, st *store.Store) {
	st.SetInstallObserver(func(rec *store.CommitRecord) {
		e.mu.RLock()
		fn := e.installObs
		e.mu.RUnlock()
		if fn != nil {
			fn(partition, rec)
		}
	})
}

// SetPartitionEpoch installs a hosted partition's placement epoch
// (pushed by the topology owner at master changes).
func (e *Element) SetPartitionEpoch(partition string, epoch uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.epochs[partition] = epoch
}

// PartitionEpoch returns the hosted partition's placement epoch (0 if
// never set).
func (e *Element) PartitionEpoch(partition string) uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.epochs[partition]
}

// DropReplica retires a hosted replica: senders stop, the WAL closes
// and its on-disk state is removed so a later re-hosting of the
// partition cannot replay a retired history. Used by migration abort
// rollback (target side) and released migrations (source side).
func (e *Element) DropReplica(partition string) error {
	e.mu.Lock()
	pr := e.replicas[partition]
	delete(e.replicas, partition)
	delete(e.repairers, partition)
	delete(e.epochs, partition)
	e.mu.Unlock()
	if pr == nil {
		return fmt.Errorf("%w: %q", ErrUnknownPartition, partition)
	}
	pr.Repl.SetPeers() // stop senders
	e.node.RemoveReplica(partition)
	e.reb.Unregister(partition)
	if pr.Log != nil {
		_ = pr.Log.Close()
		if e.cfg.WALDir != "" {
			_ = os.RemoveAll(e.cfg.WALDir + "/" + partition)
		}
	}
	return nil
}

// MigrationHandle implements rebalance.Host.
func (e *Element) MigrationHandle(partition string) (rebalance.Replica, bool) {
	pr := e.Replica(partition)
	if pr == nil {
		return rebalance.Replica{}, false
	}
	return rebalance.Replica{Store: pr.Store, Repl: pr.Repl}, true
}

// AddMigrationTarget implements rebalance.Host: host a fresh slave
// replica for an incoming migration. Stale on-disk WAL state for the
// partition (a previous hosting) is wiped first — replaying a retired
// history under bulk-copied rows would corrupt recovery.
func (e *Element) AddMigrationTarget(partition string) (rebalance.Replica, error) {
	if e.cfg.WALDir != "" {
		if err := os.RemoveAll(e.cfg.WALDir + "/" + partition); err != nil {
			return rebalance.Replica{}, fmt.Errorf("se %s: wipe stale wal: %w", e.cfg.ID, err)
		}
	}
	pr, err := e.AddReplica(partition, store.Slave)
	if err != nil {
		return rebalance.Replica{}, err
	}
	return rebalance.Replica{Store: pr.Store, Repl: pr.Repl}, nil
}

// PersistReplica implements rebalance.Host: snapshot the replica's
// store into its WAL so state that never went through the commit log
// (a migration's bulk-copied prefix) survives a crash. No-op without
// a WAL.
func (e *Element) PersistReplica(partition string) error {
	pr := e.Replica(partition)
	if pr == nil {
		return fmt.Errorf("%w: %q", ErrUnknownPartition, partition)
	}
	if pr.Log == nil {
		return nil
	}
	return pr.Log.Checkpoint(pr.Store)
}

var _ rebalance.Host = (*Element)(nil)

// commitPipeline chains WAL persistence in front of replication
// shipping as the store's two-phase commit hook. Both stage phases —
// WAL record staging and replication enqueue — run under the store's
// commit lock, so WAL order and per-peer ship order equal CSN order.
// The durability waits (the WAL group-commit fsync, then the
// synchronous-replication acks, when either applies) run after the
// lock is released: concurrent durable commits stage in order but
// share one cohort fsync instead of queueing N fsyncs behind the
// lock.
func (e *Element) commitPipeline(log *wal.Log, repl *replication.Replica) func(*store.CommitRecord) (func() error, error) {
	return func(rec *store.CommitRecord) (func() error, error) {
		// Sampled commits time the WAL stage and fsync phases; the
		// unsampled path pays one atomic load and a bool test.
		tr := e.tracer.Load()
		traced := tr != nil && rec.Trace.Sampled
		var stageStart time.Time
		if traced {
			stageStart = time.Now()
		}
		ticket, needSync, err := log.AppendStage(rec)
		if traced {
			tr.RecordSpan(rec.Trace, "wal.stage", string(e.addr),
				stageStart, time.Since(stageStart), err)
		}
		if err != nil {
			return nil, err
		}
		replWait, err := repl.CommitPipeline(rec)
		if err != nil {
			return nil, err
		}
		if !needSync && replWait == nil {
			return nil, nil
		}
		elem := string(e.addr)
		return func() error {
			if needSync {
				if traced {
					fsyncStart := time.Now()
					led, werr := log.WaitDurableEx(ticket)
					// Group commit attribution: did this commit lead the
					// fsync cohort or ride another goroutine's flush?
					role := "follower"
					if led {
						role = "leader"
					}
					tr.RecordSpan(rec.Trace, "wal.fsync", elem, fsyncStart,
						time.Since(fsyncStart), werr, trace.Attr{Key: "role", Value: role})
					if werr != nil {
						return werr
					}
				} else if err := log.WaitDurable(ticket); err != nil {
					return err
				}
			}
			if replWait != nil {
				return replWait()
			}
			return nil
		}, nil
	}
}

// attachAntiEntropy builds the Merkle tracker and repairer of one
// replica and registers it with the protocol server.
func (e *Element) attachAntiEntropy(pr *PartitionReplica) {
	if e.ae == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.attachAntiEntropyLocked(pr)
}

// attachAntiEntropyLocked is the e.mu-held variant (element recovery
// rebinds trackers while already holding the lock). Registration
// replaces any previous tracker/repairer for the partition.
func (e *Element) attachAntiEntropyLocked(pr *PartitionReplica) {
	pr.Tracker = antientropy.NewTracker(pr.Store)
	e.ae.Register(pr.Partition, pr.Tracker, pr.Repl)
	e.repairers[pr.Partition] = antientropy.NewRepairer(e.net, e.addr, pr.Partition, pr.Tracker, pr.Repl)
}

// Repairer returns the anti-entropy repairer for a hosted partition,
// or nil when the element runs without anti-entropy.
func (e *Element) Repairer(partition string) *antientropy.Repairer {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.repairers[partition]
}

// AntiEntropyPeer returns the element's repair-protocol server (its
// slave-side row-repair counters feed the metrics registry), or nil
// when the element runs without anti-entropy.
func (e *Element) AntiEntropyPeer() *antientropy.Peer { return e.ae }

// RebalancePeer returns the element's migration-protocol server (its
// rows-received/batch counters feed the metrics registry).
func (e *Element) RebalancePeer() *rebalance.Peer { return e.reb }

// RepairNow kicks an immediate repair round (heal triggers, OaM).
// It is a no-op without anti-entropy.
func (e *Element) RepairNow() {
	if e.sched != nil {
		e.sched.Kick()
	}
}

// RepairRound repairs every hosted (multi-)master replica against its
// replication peers and returns the per-peer stats. Slave replicas
// are skipped: their masters repair them.
func (e *Element) RepairRound(ctx context.Context) []antientropy.Stats {
	e.mu.RLock()
	if e.down {
		e.mu.RUnlock()
		return nil
	}
	reps := make([]*antientropy.Repairer, 0, len(e.repairers))
	for _, p := range e.partitionsLocked() {
		if r := e.repairers[p]; r != nil {
			reps = append(reps, r)
		}
	}
	e.mu.RUnlock()
	var out []antientropy.Stats
	for _, r := range reps {
		st := r.Replica().Store()
		if st.Role() != store.Master && !st.MultiMaster() {
			continue
		}
		for _, peer := range r.Replica().Peers() {
			stats, err := r.RepairPeer(ctx, peer)
			if err != nil {
				continue // unreachable peer: next round retries
			}
			out = append(out, stats)
		}
	}
	return out
}

// RepairPartition repairs one hosted partition against its peers.
func (e *Element) RepairPartition(ctx context.Context, partition string) ([]antientropy.Stats, error) {
	r := e.Repairer(partition)
	if r == nil {
		return nil, fmt.Errorf("se %s: no anti-entropy repairer for %q", e.cfg.ID, partition)
	}
	var out []antientropy.Stats
	var firstErr error
	for _, peer := range r.Replica().Peers() {
		stats, err := r.RepairPeer(ctx, peer)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		out = append(out, stats)
	}
	return out, firstErr
}

// SetTxnObserver installs (or, with nil, removes) the element's
// transaction observer. See TxnObserver for the calling contract.
func (e *Element) SetTxnObserver(fn TxnObserver) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.txnObs = fn
}

// Replica returns the hosted replica for a partition, or nil.
func (e *Element) Replica(partition string) *PartitionReplica {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.replicas[partition]
}

// Partitions lists hosted partitions, sorted.
func (e *Element) Partitions() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.replicas))
	for p := range e.replicas {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Crash simulates a complete element failure (§3.1): the element
// disappears from the network and — because data lives in RAM — all
// store contents are dropped. WAL files survive on "disk" with only
// their synced contents.
func (e *Element) Crash() {
	e.stopCheckpointer()
	if e.sched != nil {
		e.sched.Stop()
	}
	e.net.SetDown(e.addr, true)
	e.node.Stop()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.down = true
	for _, pr := range e.replicas {
		if pr.Log != nil {
			pr.Log.Close() // no final sync: unsynced tail is lost
		}
	}
}

// Recover restores a crashed element: stores are rebuilt from their
// WAL directories (snapshot + redo of the synced tail) and the
// element rejoins the network. Replication peers must be re-wired by
// the topology owner. It returns the number of replayed commit
// records per partition.
func (e *Element) Recover() (map[string]int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.down {
		return nil, errors.New("se: not crashed")
	}
	replayed := make(map[string]int)
	for part, pr := range e.replicas {
		st, l, n, err := e.openStore(part, pr.Store.Role(), pr.Store)
		if err != nil {
			return nil, err
		}
		if l != nil {
			replayed[part] = n
			pr.Log = l
		}
		pr.Store = st
		pr.Repl = e.node.AddReplica(part, st)
		if pr.Log != nil {
			st.SetCommitPipeline(e.commitPipeline(pr.Log, pr.Repl))
		}
		if e.ae != nil {
			e.attachAntiEntropyLocked(pr)
		}
		e.reb.Register(part, st)
	}
	e.down = false
	e.net.SetDown(e.addr, false)
	if e.sched != nil {
		e.sched.Start()
	}
	if e.cfg.WALDir != "" && e.cfg.CheckpointInterval > 0 {
		e.startCheckpointerLocked()
	}
	return replayed, nil
}

// Down reports whether the element is crashed.
func (e *Element) Down() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.down
}

// Stop shuts the element down cleanly (final WAL sync).
func (e *Element) Stop() {
	e.stopCheckpointer()
	if e.sched != nil {
		e.sched.Stop()
	}
	e.node.Stop()
	e.net.Unregister(e.addr)
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, pr := range e.replicas {
		if pr.Log != nil {
			_ = pr.Log.Sync()
			_ = pr.Log.Close()
		}
	}
}

// handle is the element's simnet handler.
func (e *Element) handle(ctx context.Context, from simnet.Addr, msg any) (any, error) {
	// Replication traffic first, then the anti-entropy protocol.
	if resp, handled, err := e.node.HandleMessage(ctx, from, msg); handled {
		return resp, err
	}
	if e.ae != nil {
		if resp, handled, err := e.ae.HandleMessage(ctx, from, msg); handled {
			return resp, err
		}
	}
	if resp, handled, err := e.reb.HandleMessage(ctx, from, msg); handled {
		return resp, err
	}
	switch m := msg.(type) {
	case TxnReq:
		return e.applyTxn(from, m)
	case FindReq:
		return e.find(m), nil
	case StatusReq:
		return e.status(), nil
	default:
		return nil, fmt.Errorf("%w: %T", ErrBadRequest, msg)
	}
}

// applyTxn wraps the transaction in an se.txn span when the request
// carries a trace context and a recorder is installed.
func (e *Element) applyTxn(from simnet.Addr, req TxnReq) (TxnResp, error) {
	tr := e.tracer.Load()
	if tr == nil || !req.Trace.Valid() {
		return e.applyTxnInner(from, req)
	}
	span := tr.StartChild(req.Trace, "se.txn", string(e.addr))
	req.Trace = span.Ctx()
	resp, err := e.applyTxnInner(from, req)
	// Sampled only: formatting the attr would otherwise be a per-op
	// allocation on the unsampled fast path.
	if resp.CSN != 0 && req.Trace.Sampled {
		span.SetAttr("csn", fmt.Sprint(resp.CSN))
	}
	span.End(err)
	return resp, err
}

// applyTxnInner runs a one-shot transaction.
func (e *Element) applyTxnInner(from simnet.Addr, req TxnReq) (TxnResp, error) {
	e.mu.RLock()
	pr := e.replicas[req.Partition]
	epoch := e.epochs[req.Partition]
	obs := e.txnObs
	e.mu.RUnlock()
	if pr == nil {
		return TxnResp{}, fmt.Errorf("%w: %q", ErrUnknownPartition, req.Partition)
	}
	if req.Epoch != 0 && epoch != 0 && req.Epoch != epoch {
		// The caller routed under an epoch that is no longer this
		// replica's: the master moved (cutover, failover) after the
		// caller read its placement. Refuse before executing anything —
		// accepting a stale-epoch write here could land it on a demoted
		// master — with the retryable referral.
		return TxnResp{}, fmt.Errorf("%w: partition %s at epoch %d, request epoch %d",
			ErrStalePlacement, req.Partition, epoch, req.Epoch)
	}

	txn := pr.Store.Begin(req.Iso)
	resp := TxnResp{Role: pr.Store.Role()}
	wrote := false
	for _, op := range req.Ops {
		var res OpResult
		switch op.Kind {
		case TxnGet:
			// One read yields entry and meta: a second lookup for the
			// meta could see a later commit and pair it with this image.
			entry, m, found := txn.Get(op.Key)
			res = OpResult{Entry: entry, Meta: m, Found: found}
			e.Reads.Inc()
		case TxnCompare:
			entry, _, found := txn.Get(op.Key)
			res.Found = found
			if found {
				for _, v := range entry[op.Attr] {
					if v == op.Value {
						res.CompareOK = true
						break
					}
				}
			}
			e.Reads.Inc()
		case TxnPut:
			txn.Put(op.Key, op.Entry)
			wrote = true
		case TxnModify:
			txn.Modify(op.Key, op.Mods...)
			wrote = true
		case TxnDelete:
			txn.Delete(op.Key)
			wrote = true
		default:
			txn.Abort()
			return TxnResp{}, fmt.Errorf("%w: op kind %d", ErrBadRequest, op.Kind)
		}
		resp.Results = append(resp.Results, res)
	}

	var rec *store.CommitRecord
	var err error
	if wrote {
		// se.commit covers install, WAL stage/fsync and the
		// synchronous-replication wait; those phases record their own
		// child spans under it via the record's trace context.
		commitSpan := e.tracer.Load().StartChild(req.Trace, "se.commit", string(e.addr))
		txn.SetTrace(commitSpan.Ctx())
		rec, err = txn.Commit()
		commitSpan.End(err)
	} else {
		rec, err = txn.Commit()
	}
	if rec != nil {
		// Set even on error: a durability-wait failure (WAL fsync,
		// synchronous replication) still installed the transaction,
		// and the observer needs the authoritative CSN.
		resp.CSN = rec.CSN
	}
	if err == nil && rec != nil && req.ReturnPostImage {
		fillPostImages(&resp, req.Ops, rec)
	}
	if obs != nil {
		obs(from, req, resp, err)
	}
	if err != nil {
		return TxnResp{}, err
	}
	if wrote {
		e.Writes.Inc()
	}
	return resp, nil
}

// fillPostImages copies each committed write's post-image into the
// matching OpResult slot. rec.Ops holds the installed writes in
// request order (reads stage nothing), so one cursor pairs them. The
// entries are the store's shared immutable post-images — safe to ship
// and cache, never to mutate.
func fillPostImages(resp *TxnResp, ops []TxnOp, rec *store.CommitRecord) {
	ri := 0
	for i, op := range ops {
		switch op.Kind {
		case TxnPut, TxnModify, TxnDelete:
			if ri >= len(rec.Ops) || i >= len(resp.Results) {
				return
			}
			rop := rec.Ops[ri]
			ri++
			resp.Results[i].Entry = rop.Entry
			resp.Results[i].Found = rop.Kind != store.OpDelete
			resp.Results[i].Meta = store.Meta{
				CSN:       rec.CSN,
				WallTS:    rec.WallTS,
				Tombstone: rop.Kind == store.OpDelete,
			}
		}
	}
}

// find resolves an identity against hosted master replicas: the
// expensive path behind cached-locator misses (§3.5). An element built
// with Config.IdentityIndex answers each replica from its secondary
// identity index with one map lookup. A store that does not index the
// attribute is scanned in full — that cost is the reason the paper's
// provisioned location maps exist, and E9 measures it on stores
// without the index.
func (e *Element) find(req FindReq) FindResp {
	attr, value := req.Identity.Type.Attr(), req.Identity.Value
	if attr == "" {
		return FindResp{}
	}

	e.mu.RLock()
	prs := make([]*PartitionReplica, 0, len(e.replicas))
	for _, pr := range e.replicas {
		if pr.Store.Role() == store.Master {
			prs = append(prs, pr)
		}
	}
	e.mu.RUnlock()

	var out FindResp
	for _, pr := range prs {
		if pr.Store.IndexesAttr(attr) {
			// Indexed path: a miss is authoritative — no live row in
			// this partition carries the value.
			if key, ok := pr.Store.LookupByAttr(attr, value); ok {
				return FindResp{Found: true, SubscriberID: key, Partition: pr.Partition}
			}
			continue
		}
		pr.Store.ForEach(func(key string, entry store.Entry, _ store.Meta) bool {
			for _, v := range entry[attr] {
				if v == value {
					out = FindResp{Found: true, SubscriberID: key, Partition: pr.Partition}
					return false
				}
			}
			return true
		})
		if out.Found {
			break
		}
	}
	return out
}

func (e *Element) status() StatusResp {
	e.mu.RLock()
	defer e.mu.RUnlock()
	resp := StatusResp{ID: e.cfg.ID, Site: e.cfg.Site, Blades: e.cfg.Blades}
	for _, p := range e.partitionsLocked() {
		pr := e.replicas[p]
		resp.Replicas = append(resp.Replicas, ReplicaStatus{
			Partition:  p,
			Role:       pr.Store.Role(),
			Rows:       pr.Store.Len(),
			CSN:        pr.Store.CSN(),
			AppliedCSN: pr.Store.AppliedCSN(),
		})
	}
	return resp
}

func (e *Element) partitionsLocked() []string {
	out := make([]string, 0, len(e.replicas))
	for p := range e.replicas {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
