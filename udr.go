// Package udr is the public API of this reproduction of "CAP Limits
// in Telecom Subscriber Database Design" (Arauz, VLDB 2014): a
// geo-distributed, RAM-resident, partitioned telecom subscriber
// database — the 3GPP UDC architecture's User Data Repository —
// with the paper's CAP/PACELC policy knobs exposed.
//
// # Quick start
//
//	net := udr.NewNetwork(udr.DefaultNetConfig())
//	u, err := udr.New(net, udr.DefaultConfig()) // 3-site Figure 2 layout
//	defer u.Stop()
//
//	ps := udr.NewSession(net, "eu-south/ps", "eu-south", udr.PolicyPS)
//	ps.Provision(ctx, profile)            // provisioning transaction
//
//	fe := udr.NewSession(net, "americas/fe", "americas", udr.PolicyFE)
//	fe.ReadProfile(ctx, udr.MSISDN("34600000001")) // slave reads OK
//
// The package re-exports the building blocks from internal packages:
// the simulated multi-national IP network (simnet), the UDR core, the
// subscriber data model, the HLR/HSS front-ends, the provisioning
// system, and the experiment harness that regenerates the paper's
// figures (see EXPERIMENTS.md).
package udr

import (
	"context"

	"repro/internal/antientropy"
	"repro/internal/auth"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fe"
	"repro/internal/ldap"
	"repro/internal/locator"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/ps"
	"repro/internal/rebalance"
	"repro/internal/replication"
	"repro/internal/se"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/subscriber"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Core types.
type (
	// UDR is one User Data Repository network function.
	UDR = core.UDR
	// Config configures a UDR (sites, replication factor,
	// durability, locator mode, multi-master, WAL).
	Config = core.Config
	// SiteSpec sizes one deployment site.
	SiteSpec = core.SiteSpec
	// Session is a client handle bound to a PoA and a policy class.
	Session = core.Session
	// Policy is the client class (FE or PS) selecting the paper's
	// per-class routing rules.
	Policy = core.Policy
	// ExecReq / ExecResp are the one-shot transaction envelope.
	ExecReq  = core.ExecReq
	ExecResp = core.ExecResp
	// Partition is one partition-table entry.
	Partition = core.Partition
	// AccessPoint is a site's PoA.
	AccessPoint = core.AccessPoint
	// Supervisor is the OSS failover watchdog.
	Supervisor = core.Supervisor
	// LDAPBackend adapts a Session to the LDAP server interface.
	LDAPBackend = core.LDAPBackend
)

// Network simulation types.
type (
	// Network is the simulated multi-national IP network.
	Network = simnet.Network
	// NetConfig holds the network's default link parameters.
	NetConfig = simnet.Config
	// Link describes latency/jitter/loss of one link.
	Link = simnet.Link
	// Addr identifies a network endpoint ("site/process").
	Addr = simnet.Addr
)

// Subscriber data model types.
type (
	// Profile is a full subscriber record.
	Profile = subscriber.Profile
	// Identity is one (type, value) subscriber identity.
	Identity = subscriber.Identity
	// Services is the per-subscription service profile.
	Services = subscriber.Services
	// Generator produces synthetic subscriber profiles.
	Generator = subscriber.Generator
)

// Entry and storage types.
type (
	// Entry is an LDAP-style attribute map (the stored row value).
	Entry = store.Entry
	// Mod is one attribute modification.
	Mod = store.Mod
	// Meta is per-row metadata (CSN, version vector, tombstone).
	Meta = store.Meta
	// TxnOp is one operation inside a one-shot transaction.
	TxnOp = se.TxnOp
)

// Transaction operation kinds.
const (
	TxnGet     = se.TxnGet
	TxnPut     = se.TxnPut
	TxnModify  = se.TxnModify
	TxnDelete  = se.TxnDelete
	TxnCompare = se.TxnCompare
)

// Attribute modification kinds.
const (
	ModAdd     = store.ModAdd
	ModReplace = store.ModReplace
	ModDelete  = store.ModDelete
)

// Client-side subsystems.
type (
	// FE is an application front-end (HLR-FE / HSS-FE).
	FE = fe.FE
	// PS is a provisioning system instance.
	PS = ps.PS
	// BatchResult reports a provisioning batch.
	BatchResult = ps.BatchResult
	// AuthVector is the authentication vector an FE derives for a
	// serving node during the authentication procedure.
	AuthVector = auth.Vector
)

// Experiment harness types.
type (
	// Report is an experiment result.
	Report = experiments.Report
	// ExperimentOptions tunes an experiment run.
	ExperimentOptions = experiments.Options
)

// Anti-entropy repair types (E16). Enable with Config.AntiEntropy;
// trigger rounds with UDR.RepairPartition / UDR.RepairAll or udrctl
// repair — heal detection and the periodic scheduler run them
// automatically.
type (
	// RepairStats reports one anti-entropy repair round against one
	// replication peer.
	RepairStats = antientropy.Stats
	// MerkleTree is the incrementally updated hash tree each replica
	// maintains over its rows.
	MerkleTree = antientropy.Tree
)

// Live partition migration and elastic rebalancing (internal/
// rebalance). Move a partition master with UDR.MigratePartition or
// udrctl move; rebalance the whole cluster with UDR.Rebalance,
// udrctl rebalance, or automatically on scale-out via
// Config.RebalanceOnAddSite.
type (
	// MoveReport describes one migration's outcome and cost (rows
	// shipped, catch-up records, the bounded write-freeze window).
	MoveReport = rebalance.Report
	// MoveSpec is one planned rebalancing move.
	MoveSpec = rebalance.MoveSpec
	// ElementLoad is one storage element's load snapshot, the
	// rebalancing planner's input.
	ElementLoad = rebalance.ElementLoad
	// RebalanceResult is one rebalancing pass: plan + per-move
	// outcomes.
	RebalanceResult = core.RebalanceResult
)

// Observability (internal/metrics registry + internal/obs HTTP
// surface). Register a UDR's instruments with UDR.RegisterMetrics,
// then serve them: obs.NewServer exposes GET /metrics (Prometheus
// text exposition), /healthz, /status and the POST /admin/* mirrors
// of the udrctl extended operations. udrd wires this up behind its
// -admin flag.
type (
	// MetricsRegistry names, labels and gathers instruments.
	MetricsRegistry = metrics.Registry
	// ObsServer is the admin/metrics HTTP surface over a UDR.
	ObsServer = obs.Server
	// ObsConfig configures an ObsServer.
	ObsConfig = obs.Config
)

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// NewObsServer builds the admin/metrics HTTP surface. Serve it with
// (*ObsServer).Serve on a listener, or mount (*ObsServer).Handler.
func NewObsServer(cfg ObsConfig) *ObsServer { return obs.NewServer(cfg) }

// Request tracing. Wire a Tracer into Config.Trace (and attach it to
// sessions and front-ends) to get per-request latency attribution
// across the FE → PoA → SE → WAL/replication path; serve the sampled
// traces via an ObsServer over the UDR (GET /trace/*) or udrctl trace.
type (
	// Tracer records sampled request traces in lock-striped rings.
	Tracer = trace.Recorder
	// TraceConfig sets sampling rates and buffer capacity.
	TraceConfig = trace.Config
	// TraceSpan is one recorded hop of a trace.
	TraceSpan = trace.Span
	// TraceID identifies one stitched request trace.
	TraceID = trace.ID
)

// NewTracer creates a trace recorder. The zero TraceConfig samples
// 1/64 of requests plus everything slower than 25ms.
func NewTracer(cfg TraceConfig) *Tracer { return trace.New(cfg) }

// RenderTrace formats one trace's spans as an indented tree with
// per-hop durations.
func RenderTrace(spans []TraceSpan) string { return trace.RenderTree(spans) }

// Policy classes.
const (
	// PolicyFE marks application front-end traffic: slave reads
	// allowed (PA/EL).
	PolicyFE = core.PolicyFE
	// PolicyPS marks provisioning traffic: master-copy access only
	// (PC/EC).
	PolicyPS = core.PolicyPS
)

// Durability levels (§3.3.1 and §5).
const (
	// DurabilityAsync commits after the local apply (the paper's
	// default).
	DurabilityAsync = replication.Async
	// DurabilityDualSeq commits after master + first slave (§5's
	// dual-in-sequence).
	DurabilityDualSeq = replication.DualSeq
	// DurabilitySyncAll waits for every slave.
	DurabilitySyncAll = replication.SyncAll
	// DurabilityQuorum commits once a configurable quorum of
	// replicas acked (Config.QuorumPolicy shapes it).
	DurabilityQuorum = replication.Quorum
)

// Locator modes (§3.5).
const (
	// LocatorProvisioned maps are written by provisioning and copied
	// on scale-out.
	LocatorProvisioned = locator.Provisioned
	// LocatorCached maps fill on demand with SE fan-out on miss.
	LocatorCached = locator.Cached
)

// WAL durability modes (§3.1).
const (
	// WALPeriodic buffers and syncs on an interval.
	WALPeriodic = wal.Periodic
	// WALSyncEveryCommit fsyncs before every commit returns.
	WALSyncEveryCommit = wal.SyncEveryCommit
)

// Errors re-exported for callers that branch on failure classes.
var (
	// ErrMasterUnreachable is the C-over-A write failure on a
	// partition.
	ErrMasterUnreachable = core.ErrMasterUnreachable
	// ErrNoReplica reports a read that reached no replica.
	ErrNoReplica = core.ErrNoReplica
	// ErrUnknownSubscriber reports a failed identity resolution.
	ErrUnknownSubscriber = core.ErrUnknownSubscriber
	// ErrIdentityNotFound reports an identity absent from the
	// location maps.
	ErrIdentityNotFound = locator.ErrNotFound
	// ErrStoreFull reports a storage element at capacity.
	ErrStoreFull = store.ErrStoreFull
	// ErrMigrationAborted wraps any migration phase failure: the move
	// rolled back and the source is still authoritative.
	ErrMigrationAborted = rebalance.ErrAborted
	// ErrMigrationInFlight reports a second move of a partition whose
	// migration has not finished.
	ErrMigrationInFlight = core.ErrMigrationInFlight
)

// New builds a UDR NF on the given network.
func New(net *Network, cfg Config) (*UDR, error) { return core.New(net, cfg) }

// NewNetwork creates a simulated network.
func NewNetwork(cfg NetConfig) *Network { return simnet.New(cfg) }

// DefaultConfig returns the paper's three-site Figure 2 layout.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultNetConfig returns 10x-compressed telecom network link
// parameters (sub-millisecond LAN, low-millisecond backbone).
func DefaultNetConfig() NetConfig { return simnet.DefaultConfig() }

// FastNetConfig returns near-zero latencies for tests.
func FastNetConfig() NetConfig { return simnet.FastConfig() }

// NewSession opens a client session from the given address to the PoA
// at poaSite under the given policy class.
func NewSession(net *Network, from Addr, poaSite string, policy Policy) *Session {
	return core.NewSession(net, from, poaSite, policy)
}

// NewHLRFE creates an HLR front-end at a site.
func NewHLRFE(net *Network, site, name string) *FE { return fe.New(net, fe.HLR, site, name) }

// NewHSSFE creates an HSS front-end at a site.
func NewHSSFE(net *Network, site, name string) *FE { return fe.New(net, fe.HSS, site, name) }

// NewPS creates a provisioning system instance at a site.
func NewPS(net *Network, site, name string) *PS { return ps.New(net, site, name) }

// NewGenerator returns a synthetic subscriber generator over regions.
func NewGenerator(regions ...string) *Generator { return subscriber.NewGenerator(regions...) }

// NewLDAPServer builds an LDAP server over a session, serving the
// UDC-mandated northbound interface.
func NewLDAPServer(session *Session) *ldap.Server {
	return ldap.NewServer(core.NewLDAPBackend(session))
}

// NewLDAPBackendWithTopology builds an LDAP backend that additionally
// serves the OaM status extended operation (udrctl status).
func NewLDAPBackendWithTopology(session *Session, u *UDR) *LDAPBackend {
	return core.NewLDAPBackend(session).WithTopology(u)
}

// IMSI, MSISDN, IMPU, IMPI and UID build typed identities.
func IMSI(v string) Identity   { return Identity{Type: subscriber.IMSI, Value: v} }
func MSISDN(v string) Identity { return Identity{Type: subscriber.MSISDN, Value: v} }
func IMPU(v string) Identity   { return Identity{Type: subscriber.IMPU, Value: v} }
func IMPI(v string) Identity   { return Identity{Type: subscriber.IMPI, Value: v} }
func UID(v string) Identity    { return Identity{Type: subscriber.UID, Value: v} }

// DN returns the LDAP distinguished name for a subscription ID.
func DN(id string) string { return subscriber.DN(id) }

// RunExperiment executes one of the paper-reproduction experiments
// (E1–E24; see EXPERIMENTS.md for the index). E18 and E23 are measured
// by benchmark/ and return an error naming where.
func RunExperiment(ctx context.Context, id string, opts ExperimentOptions) (*Report, error) {
	return experiments.Run(ctx, id, opts)
}

// ExperimentIDs lists the available experiments in order.
func ExperimentIDs() []string { return experiments.IDs() }

// DescribeExperiment returns an experiment's title and paper source.
func DescribeExperiment(id string) (title, source string, ok bool) {
	return experiments.Describe(id)
}
