package antientropy

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/replication"
	"repro/internal/simnet"
	"repro/internal/store"
)

// Messages exchanged by the repair protocol. They are exported so the
// storage element's simnet handler can route them here, mirroring the
// replication package's message types.

// DigestReq asks for the digests of the nodes at one tree level
// (root = level 0, leaves = level Depth). Indexes may be empty for
// the root.
type DigestReq struct {
	Partition string
	Level     int
	Indexes   []int
}

// DigestResp carries the requested digests, parallel to Indexes (or a
// single root digest).
type DigestResp struct {
	Digests []uint64
}

// LeafReq asks for the (key, digest) rows of the listed leaves.
type LeafReq struct {
	Partition string
	Leaves    []int
}

// LeafResp answers a LeafReq; Leaves is parallel to the request.
type LeafResp struct {
	Leaves [][]LeafRow
}

// RepairReq ships the caller's versions of divergent rows and names
// the keys whose peer versions the caller wants back, so one round
// trip repairs both directions.
type RepairReq struct {
	Partition string
	Rows      []replication.RowTransfer
	Want      []string
}

// RepairResp reports how many shipped rows changed the peer and
// returns the peer's (post-merge) versions of the wanted keys.
type RepairResp struct {
	Applied int
	Rows    []replication.RowTransfer
}

// WatermarkReq advances a slave's replication high-water mark to CSN
// after a complete repair round: every commit at or below CSN is
// reflected in the repaired rows, so the slave can rejoin the
// master's stream mid-sequence instead of staying stuck on a CSN gap.
type WatermarkReq struct {
	Partition string
	CSN       uint64
}

// WatermarkResp reports whether the mark moved.
type WatermarkResp struct {
	Advanced bool
}

// Peer serves the repair protocol for the partition replicas hosted
// on one storage element.
type Peer struct {
	mu    sync.RWMutex
	parts map[string]*peerPart

	// RowsRepaired counts incoming repair rows that changed a local
	// row; RowsReturned counts rows sent back to repairers.
	RowsRepaired metrics.Counter
	RowsReturned metrics.Counter
}

type peerPart struct {
	tracker *Tracker
	replica *replication.Replica
}

// NewPeer returns an empty protocol server.
func NewPeer() *Peer {
	return &Peer{parts: make(map[string]*peerPart)}
}

// Register serves the repair protocol for a partition replica,
// replacing any previous registration (element recovery rebuilds the
// store and re-registers).
func (p *Peer) Register(partition string, tr *Tracker, rep *replication.Replica) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.parts[partition] = &peerPart{tracker: tr, replica: rep}
}

// Tracker returns the registered tracker for a partition, or nil.
func (p *Peer) Tracker(partition string) *Tracker {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if pp := p.parts[partition]; pp != nil {
		return pp.tracker
	}
	return nil
}

func (p *Peer) part(partition string) (*peerPart, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	pp := p.parts[partition]
	if pp == nil {
		return nil, fmt.Errorf("antientropy: partition %q not tracked here", partition)
	}
	return pp, nil
}

// HandleMessage processes a repair-protocol message. It reports
// handled = false for messages belonging to other subsystems so the
// storage element can route them elsewhere.
func (p *Peer) HandleMessage(ctx context.Context, from simnet.Addr, msg any) (resp any, handled bool, err error) {
	switch m := msg.(type) {
	case DigestReq:
		pp, err := p.part(m.Partition)
		if err != nil {
			return nil, true, err
		}
		tree := pp.tracker.Tree()
		if m.Level == 0 {
			return DigestResp{Digests: []uint64{tree.Root()}}, true, nil
		}
		return DigestResp{Digests: tree.Digests(m.Level, m.Indexes)}, true, nil
	case LeafReq:
		pp, err := p.part(m.Partition)
		if err != nil {
			return nil, true, err
		}
		tree := pp.tracker.Tree()
		out := make([][]LeafRow, len(m.Leaves))
		for i, leaf := range m.Leaves {
			out[i] = tree.LeafRows(leaf)
		}
		return LeafResp{Leaves: out}, true, nil
	case RepairReq:
		pp, err := p.part(m.Partition)
		if err != nil {
			return nil, true, err
		}
		var out RepairResp
		shipped := make(map[string]uint64, len(m.Rows))
		for _, row := range m.Rows {
			shipped[row.Key] = RowDigest(row.Key, row.Entry, row.Meta)
			if pp.replica.MergeRepair(row) {
				out.Applied++
				p.RowsRepaired.Inc()
			}
		}
		st := pp.tracker.Store()
		for _, key := range m.Want {
			e, meta, ok := st.GetAny(key)
			if !ok {
				continue
			}
			// Skip rows identical to the version just shipped: the
			// caller already holds them; returning them would double
			// the repair traffic for rows the caller's version won.
			if d, was := shipped[key]; was && d == RowDigest(key, e, meta) {
				continue
			}
			out.Rows = append(out.Rows, replication.RowTransfer{Key: key, Entry: e, Meta: meta})
			p.RowsReturned.Inc()
		}
		return out, true, nil
	case WatermarkReq:
		pp, err := p.part(m.Partition)
		if err != nil {
			return nil, true, err
		}
		st := pp.tracker.Store()
		if st.MultiMaster() || st.Role() != store.Slave || st.AppliedCSN() >= m.CSN {
			return WatermarkResp{}, true, nil
		}
		st.SetAppliedCSN(m.CSN)
		return WatermarkResp{Advanced: true}, true, nil
	default:
		return nil, false, nil
	}
}

// Stats reports one repair round against one peer.
type Stats struct {
	Partition string      `json:"partition"`
	Peer      simnet.Addr `json:"peer"`
	// InSync is true when the root digests matched: nothing shipped.
	InSync bool `json:"inSync"`
	// LeavesDiffed is how many leaves mismatched.
	LeavesDiffed int `json:"leavesDiffed"`
	// RowsShipped / RowsPulled count row transfers in each direction.
	RowsShipped int `json:"rowsShipped"`
	RowsPulled  int `json:"rowsPulled"`
	// RowsRepairedLocal / RowsRepairedPeer count rows that actually
	// changed on each side.
	RowsRepairedLocal int `json:"rowsRepairedLocal"`
	RowsRepairedPeer  int `json:"rowsRepairedPeer"`
	// Truncated is true when the per-round row cap cut the round
	// short; another round is needed.
	Truncated bool `json:"truncated"`
	// WatermarkAdvanced is true when the peer's replication high-water
	// mark was moved up to re-attach it to the master's stream.
	WatermarkAdvanced bool `json:"watermarkAdvanced"`
}

// RowsTransferred is the round's total row traffic in both
// directions — the number E16 compares against a full re-replication.
func (s Stats) RowsTransferred() int { return s.RowsShipped + s.RowsPulled }

// Repairer drives repair rounds for one partition replica (normally
// the master copy) against its replication peers.
type Repairer struct {
	net       *simnet.Network
	addr      simnet.Addr
	partition string
	tracker   *Tracker
	replica   *replication.Replica

	// MaxRowsPerRound caps row transfers per round per peer — the
	// bandwidth cap that keeps repair from starving client traffic on
	// the backbone. 0 means unlimited.
	MaxRowsPerRound int
	// CallTimeout bounds each protocol RPC.
	CallTimeout time.Duration

	// runMu serializes rounds: the scheduler tick, the heal-watcher
	// kick and an operator's udrctl repair may race, and two
	// concurrent walks would both ship the same divergent rows.
	runMu sync.Mutex

	// Rounds counts repair rounds run; InSyncRounds those that ended
	// at the root comparison. RowsShipped / RowsPulled aggregate row
	// traffic; LeavesDiffed aggregates mismatched leaves.
	Rounds       metrics.Counter
	InSyncRounds metrics.Counter
	RowsShipped  metrics.Counter
	RowsPulled   metrics.Counter
	LeavesDiffed metrics.Counter
}

// NewRepairer returns a repairer for the replica tracked by tr,
// calling out from addr on net.
func NewRepairer(net *simnet.Network, addr simnet.Addr, partition string, tr *Tracker, rep *replication.Replica) *Repairer {
	return &Repairer{
		net:         net,
		addr:        addr,
		partition:   partition,
		tracker:     tr,
		replica:     rep,
		CallTimeout: 250 * time.Millisecond,
	}
}

// Partition returns the repaired partition.
func (r *Repairer) Partition() string { return r.partition }

// Replica returns the local replica the repairer works from.
func (r *Repairer) Replica() *replication.Replica { return r.replica }

func (r *Repairer) call(ctx context.Context, peer simnet.Addr, req any) (any, error) {
	cctx, cancel := context.WithTimeout(ctx, r.CallTimeout)
	defer cancel()
	return r.net.Call(cctx, r.addr, peer, req)
}

// RepairPeer runs one repair round against a peer: digest walk from
// the root, leaf diff, bidirectional row exchange through the
// resolver, and — when the round was complete — a watermark advance
// that re-attaches the peer to the replication stream. Rows written
// concurrently with the walk may be missed; the next round catches
// them (anti-entropy is a convergent background process, not a
// barrier).
func (r *Repairer) RepairPeer(ctx context.Context, peer simnet.Addr) (Stats, error) {
	r.runMu.Lock()
	defer r.runMu.Unlock()
	stats := Stats{Partition: r.partition, Peer: peer}
	r.Rounds.Inc()
	tree := r.tracker.Tree()
	// Capture the CSN before reading any digest: every commit at or
	// below it is fully reflected in the tree, so it is a safe
	// watermark once the divergent rows are shipped.
	csn0 := r.replica.Store().CSN()

	raw, err := r.call(ctx, peer, DigestReq{Partition: r.partition, Level: 0})
	if err != nil {
		return stats, err
	}
	rootResp, ok := raw.(DigestResp)
	if !ok || len(rootResp.Digests) != 1 {
		return stats, fmt.Errorf("antientropy: bad digest response %T", raw)
	}
	if rootResp.Digests[0] == tree.Root() {
		stats.InSync = true
		r.InSyncRounds.Inc()
		return stats, r.advanceWatermark(ctx, peer, csn0, &stats)
	}

	// Walk mismatched subtrees level by level down to the leaves.
	frontier := []int{0}
	for level := 1; level <= tree.Depth(); level++ {
		indexes := make([]int, 0, len(frontier)*tree.Fanout())
		for _, node := range frontier {
			for c := node * tree.Fanout(); c < (node+1)*tree.Fanout(); c++ {
				indexes = append(indexes, c)
			}
		}
		raw, err := r.call(ctx, peer, DigestReq{Partition: r.partition, Level: level, Indexes: indexes})
		if err != nil {
			return stats, err
		}
		resp, ok := raw.(DigestResp)
		if !ok || len(resp.Digests) != len(indexes) {
			return stats, fmt.Errorf("antientropy: bad digest response %T", raw)
		}
		local := tree.Digests(level, indexes)
		frontier = frontier[:0]
		for i, idx := range indexes {
			if local[i] != resp.Digests[i] {
				frontier = append(frontier, idx)
			}
		}
		if len(frontier) == 0 {
			// Divergence raced away (concurrent writes); done.
			return stats, nil
		}
	}
	stats.LeavesDiffed = len(frontier)
	r.LeavesDiffed.Add(int64(len(frontier)))

	// Compare leaf contents to find the divergent keys.
	raw, err = r.call(ctx, peer, LeafReq{Partition: r.partition, Leaves: frontier})
	if err != nil {
		return stats, err
	}
	leafResp, ok := raw.(LeafResp)
	if !ok || len(leafResp.Leaves) != len(frontier) {
		return stats, fmt.Errorf("antientropy: bad leaf response %T", raw)
	}
	var divergent []string
	for i, leaf := range frontier {
		remote := make(map[string]uint64, len(leafResp.Leaves[i]))
		for _, row := range leafResp.Leaves[i] {
			remote[row.Key] = row.Digest
		}
		for _, row := range tree.LeafRows(leaf) {
			if d, ok := remote[row.Key]; !ok || d != row.Digest {
				divergent = append(divergent, row.Key)
			}
			delete(remote, row.Key)
		}
		for key := range remote { // peer-only keys
			divergent = append(divergent, key)
		}
	}
	sort.Strings(divergent)
	if r.MaxRowsPerRound > 0 && len(divergent) > r.MaxRowsPerRound {
		divergent = divergent[:r.MaxRowsPerRound]
		stats.Truncated = true
	}
	if len(divergent) == 0 {
		return stats, nil
	}

	// Re-check authority before exchanging rows: a replica demoted
	// mid-walk (failover, OSS repair) must not ship its now-stale
	// versions or advance anyone's watermark from its dead commit
	// sequence.
	st := r.replica.Store()
	if st.Role() != store.Master && !st.MultiMaster() {
		return stats, fmt.Errorf("antientropy: %s demoted mid-repair", r.partition)
	}

	// Ship our versions and pull the peer's in one round trip.
	req := RepairReq{Partition: r.partition, Want: divergent}
	for _, key := range divergent {
		if e, m, ok := st.GetAny(key); ok {
			req.Rows = append(req.Rows, replication.RowTransfer{Key: key, Entry: e, Meta: m})
		}
	}
	raw, err = r.call(ctx, peer, req)
	if err != nil {
		return stats, err
	}
	repResp, ok := raw.(RepairResp)
	if !ok {
		return stats, fmt.Errorf("antientropy: bad repair response %T", raw)
	}
	stats.RowsShipped = len(req.Rows)
	stats.RowsPulled = len(repResp.Rows)
	stats.RowsRepairedPeer = repResp.Applied
	r.RowsShipped.Add(int64(len(req.Rows)))
	r.RowsPulled.Add(int64(len(repResp.Rows)))
	for _, row := range repResp.Rows {
		if r.replica.MergeRepair(row) {
			stats.RowsRepairedLocal++
		}
	}

	if stats.Truncated {
		return stats, nil
	}
	return stats, r.advanceWatermark(ctx, peer, csn0, &stats)
}

// advanceWatermark re-attaches the peer to the replication stream
// after a complete round. Multi-master replicas have no stream
// sequence to advance; the peer enforces that side of the check.
func (r *Repairer) advanceWatermark(ctx context.Context, peer simnet.Addr, csn uint64, stats *Stats) error {
	st := r.replica.Store()
	if st.MultiMaster() || st.Role() != store.Master || csn == 0 {
		return nil
	}
	raw, err := r.call(ctx, peer, WatermarkReq{Partition: r.partition, CSN: csn})
	if err != nil {
		return err
	}
	if resp, ok := raw.(WatermarkResp); ok {
		stats.WatermarkAdvanced = resp.Advanced
	}
	return nil
}
