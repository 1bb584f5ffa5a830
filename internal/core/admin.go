package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/antientropy"
	"repro/internal/fecache"
	"repro/internal/rebalance"
	"repro/internal/replication"
	"repro/internal/se"
	"repro/internal/store"
	"repro/internal/trace"
)

// The control operations an operator drives — status, repair, move,
// rebalance and the trace views — each have one implementation here.
// The udrctl LDAP extended operations (LDAPBackend.Extended) and the
// admin HTTP routes (internal/obs) are codecs over them: they parse a
// request, call in, render the report, and map the error's
// AdminClass onto their own result code. Every entry point accepts a
// nil *UDR, the endpoint with no topology attached.

// AdminTimeout bounds each control operation on every transport. It
// is far above the data path's per-request timeout because a move
// streams a whole partition over the backbone.
const AdminTimeout = 15 * time.Second

// Control-plane errors, beyond the unknown-name and in-flight errors
// the partition table reports.
var (
	// ErrNoTopology reports a control operation on an endpoint with
	// no UDR attached (a data-only or metrics-only endpoint).
	ErrNoTopology = errors.New("core: not available on this endpoint: no topology attached")
	// ErrAntiEntropyDisabled reports a repair on a UDR running
	// without the anti-entropy subsystem.
	ErrAntiEntropyDisabled = errors.New("core: anti-entropy repair is disabled")
	// ErrUnknownTrace reports a trace id the recorder does not hold.
	ErrUnknownTrace = errors.New("core: unknown trace (never sampled, or already overwritten)")
	// ErrBadRequest reports malformed control-operation arguments.
	ErrBadRequest = errors.New("core: bad request")
)

// ErrClass is the operator-facing class of a control-operation error.
// Each transport maps a class onto exactly one result code; DESIGN.md
// ("Control operations") holds the table.
type ErrClass int

// Error classes, in AdminClass's matching order after ClassOther.
const (
	ClassOther ErrClass = iota
	ClassNotFound
	ClassBusy
	ClassConflict
	ClassDisabled
	ClassUnavailableHere
	ClassBadRequest
	ClassTimeout
)

// AdminClass classifies a control-operation error.
func AdminClass(err error) ErrClass {
	switch {
	case errors.Is(err, ErrUnknownPartition), errors.Is(err, ErrUnknownElement),
		errors.Is(err, ErrUnknownTrace):
		return ClassNotFound
	case errors.Is(err, ErrMigrationInFlight):
		return ClassBusy
	case errors.Is(err, rebalance.ErrConflict):
		return ClassConflict
	case errors.Is(err, ErrAntiEntropyDisabled):
		return ClassDisabled
	case errors.Is(err, ErrNoTopology):
		return ClassUnavailableHere
	case errors.Is(err, ErrBadRequest):
		return ClassBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return ClassTimeout
	default:
		return ClassOther
	}
}

// ReplicaStatus is one partition copy in the status view.
type ReplicaStatus struct {
	Element    string `json:"element"`
	Site       string `json:"site"`
	Role       string `json:"role"`
	Up         bool   `json:"up"`
	Rows       int    `json:"rows"`
	CSN        uint64 `json:"csn"`
	AppliedCSN uint64 `json:"appliedCsn"`
}

// PeerLag is one replication sender's shipping state as seen from the
// partition master.
type PeerLag struct {
	Peer       string `json:"peer"`
	AckedCSN   uint64 `json:"ackedCsn"`
	QueueDepth int    `json:"queueDepth"`
	// LagRecords is master CSN minus the peer's acked CSN.
	LagRecords uint64 `json:"lagRecords"`
	// AcksPending is the quorum watermark minus the peer's acked CSN:
	// records the peer still owes before it catches the quorum.
	AcksPending uint64 `json:"acksPending,omitempty"`
}

// PartitionStatus is one partition-table entry plus live replication
// state.
type PartitionStatus struct {
	ID        string `json:"id"`
	HomeSite  string `json:"homeSite"`
	Epoch     uint64 `json:"epoch"`
	MasterCSN uint64 `json:"masterCsn"`
	// Durability is the master's commit durability level (async,
	// dual-seq, quorum, sync-all); empty when no replica holds the
	// master role.
	Durability string `json:"durability,omitempty"`
	// QuorumPolicy is the quorum shape under quorum durability.
	QuorumPolicy string `json:"quorumPolicy,omitempty"`
	// QuorumWatermark is the highest CSN durable under the master's
	// quorum policy; commits at or below it have their quorum of acks.
	QuorumWatermark uint64          `json:"quorumWatermark,omitempty"`
	Replicas        []ReplicaStatus `json:"replicas"`
	ReplicationLag  []PeerLag       `json:"replicationLag,omitempty"`
}

// ElementStatus is one storage element in the status view.
type ElementStatus struct {
	ID         string   `json:"id"`
	Site       string   `json:"site"`
	Down       bool     `json:"down"`
	Partitions []string `json:"partitions"`
}

// MigrationStatus is one in-flight partition move.
type MigrationStatus struct {
	Partition string `json:"partition"`
	Phase     string `json:"phase"`
}

// Status is the consolidated OaM view the UDR reports to the OSS
// (§2.4): topology, placement epochs, replication state, in-flight
// migrations and per-site FE cache state. GET /status serves it as
// JSON; udrctl status renders it as text.
type Status struct {
	Sites      []string          `json:"sites"`
	Elements   []ElementStatus   `json:"elements"`
	Partitions []PartitionStatus `json:"partitions"`
	Migrations []MigrationStatus `json:"migrations"`
	Caches     []fecache.Stats   `json:"caches,omitempty"`
}

// Status snapshots the consolidated OaM view.
func (u *UDR) Status() (*Status, error) {
	if u == nil {
		return nil, ErrNoTopology
	}
	st := &Status{Sites: u.Sites(), Migrations: []MigrationStatus{}}
	for _, elID := range u.Elements() {
		if el := u.Element(elID); el != nil {
			st.Elements = append(st.Elements, ElementStatus{
				ID: el.ID(), Site: el.Site(), Down: el.Down(), Partitions: el.Partitions(),
			})
		}
	}
	for _, partID := range u.Partitions() {
		if part, ok := u.Partition(partID); ok {
			st.Partitions = append(st.Partitions, u.partitionStatus(part))
		}
	}
	for part, phase := range u.MigrationsInFlight() {
		st.Migrations = append(st.Migrations, MigrationStatus{Partition: part, Phase: phase.String()})
	}
	st.Caches = u.CacheStats()
	return st, nil
}

// partitionStatus reads one partition's replicas and, from the copy
// holding the master role, its durability and per-peer shipping lag.
func (u *UDR) partitionStatus(part Partition) PartitionStatus {
	ps := PartitionStatus{ID: part.ID, HomeSite: part.HomeSite, Epoch: part.Epoch}
	for i, ref := range part.Replicas {
		rs := ReplicaStatus{Element: ref.Element, Site: ref.Site, Role: "slave"}
		if i == 0 {
			rs.Role = "master"
		}
		el := u.Element(ref.Element)
		var pr *se.PartitionReplica
		if el != nil {
			rs.Up = !el.Down()
			pr = el.Replica(part.ID)
		}
		if pr != nil {
			rs.Rows = pr.Store.Len()
			rs.CSN = pr.Store.CSN()
			rs.AppliedCSN = pr.Store.AppliedCSN()
		}
		if i == 0 && pr != nil && pr.Store.Role() == store.Master {
			ps.MasterCSN = rs.CSN
			ps.Durability = pr.Repl.Durability().String()
			if pr.Repl.Durability() == replication.Quorum {
				ps.QuorumPolicy = pr.Repl.QuorumPolicy().String()
			}
			ps.QuorumWatermark = pr.Repl.QuorumWatermark()
			pending := pr.Repl.WatermarkLag()
			for _, sst := range pr.Repl.SenderStats() {
				lag := uint64(0)
				if ps.MasterCSN > sst.AckedCSN {
					lag = ps.MasterCSN - sst.AckedCSN
				}
				ps.ReplicationLag = append(ps.ReplicationLag, PeerLag{
					Peer:        string(sst.Peer),
					AckedCSN:    sst.AckedCSN,
					QueueDepth:  sst.QueueDepth,
					LagRecords:  lag,
					AcksPending: pending[sst.Peer],
				})
			}
		}
		ps.Replicas = append(ps.Replicas, rs)
	}
	return ps
}

// AdminRepair runs an anti-entropy round under the admin deadline:
// for one partition, or for every partition when partID is empty.
func (u *UDR) AdminRepair(ctx context.Context, partID string) ([]antientropy.Stats, error) {
	if u == nil {
		return nil, ErrNoTopology
	}
	ctx, cancel := context.WithTimeout(ctx, AdminTimeout)
	defer cancel()
	if partID != "" {
		return u.RepairPartition(ctx, partID)
	}
	return u.RepairAll(ctx)
}

// AdminMove live-migrates a partition master onto the target element
// under the admin deadline (see MigratePartition).
func (u *UDR) AdminMove(ctx context.Context, partID, target string, release bool) (*rebalance.Report, error) {
	if u == nil {
		return nil, ErrNoTopology
	}
	if partID == "" || target == "" {
		return nil, fmt.Errorf("%w: move wants a partition and a target element", ErrBadRequest)
	}
	ctx, cancel := context.WithTimeout(ctx, AdminTimeout)
	defer cancel()
	return u.MigratePartition(ctx, partID, target, release)
}

// AdminRebalance plans and executes a rebalancing pass under the admin
// deadline. Unlike Rebalance, a pass with failed moves is an error.
func (u *UDR) AdminRebalance(ctx context.Context) (*RebalanceResult, error) {
	if u == nil {
		return nil, ErrNoTopology
	}
	ctx, cancel := context.WithTimeout(ctx, AdminTimeout)
	defer cancel()
	res, err := u.Rebalance(ctx)
	if err == nil && res.Failed > 0 {
		err = fmt.Errorf("%d of %d moves failed", res.Failed, len(res.Plan))
	}
	return res, err
}

// Traces lists sampled traces with the recorder's head-sampling rate:
// the n newest, or with slow the n slowest roots since startup. n ≤ 0
// takes the default (20 newest, 10 slowest); n is capped at 256. With
// tracing disabled, or no topology attached, the listing is empty.
func (u *UDR) Traces(slow bool, n int) (sampleRate float64, sums []trace.TraceSummary) {
	var tr *trace.Recorder
	if u != nil {
		tr = u.cfg.Trace
	}
	if n <= 0 {
		n = 20
		if slow {
			n = 10
		}
	}
	n = min(n, 256)
	if !slow {
		return tr.SampleRate(), tr.Recent(n)
	}
	for _, root := range tr.Slow(n) {
		sums = append(sums, trace.TraceSummary{Trace: root.Trace, Root: root, Spans: len(tr.Get(root.Trace))})
	}
	return tr.SampleRate(), sums
}

// TraceSpans returns the buffered spans of the trace with the given
// 16-hex-digit id.
func (u *UDR) TraceSpans(id string) ([]trace.Span, error) {
	tid, err := trace.ParseID(id)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	var spans []trace.Span
	if u != nil {
		spans = u.cfg.Trace.Get(tid)
	}
	if len(spans) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTrace, id)
	}
	return spans, nil
}
