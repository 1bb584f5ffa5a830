// Package core assembles the UDR NF — the paper's contribution: a
// geo-distributed, RAM-resident, partitioned subscriber database with
// master/slave replication, per-site points of access with local data
// location stages, and the CAP/PACELC policy knobs of §3–§5.
//
// A UDR instance owns:
//
//   - one blade cluster per site, hosting storage elements and LDAP
//     server capacity (internal/cluster, internal/se),
//   - one data location stage per site (internal/locator),
//   - one AccessPoint (PoA) per site, the endpoint front-ends and the
//     provisioning system talk to,
//   - the partition table: every partition has a home site, a master
//     replica and R-1 geographically disperse slave replicas (§3.1).
//
// The CAP-relevant design decisions are runtime policy:
//
//   - front-end transactions may read slave copies (§3.3.2) — fast
//     but possibly stale (PA/EL);
//   - provisioning transactions read master copies only (§3.3.3) and
//     need the master reachable to write — consistent but
//     partition-fragile (PC/EC);
//   - replication durability is tunable per §5 (async, dual-
//     in-sequence, sync-all);
//   - multi-master mode (§5) lifts the master-only write rule and
//     adds version-vector merge with post-partition restoration.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/antientropy"
	"repro/internal/cluster"
	"repro/internal/fecache"
	"repro/internal/locator"
	"repro/internal/metrics"
	"repro/internal/rebalance"
	"repro/internal/replication"
	"repro/internal/se"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/subscriber"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Errors surfaced to UDR clients.
var (
	// ErrMasterUnreachable reports a write (or PS read) that could
	// not reach the partition master: the paper's
	// consistency-over-availability outcome on a partition (§3.2).
	ErrMasterUnreachable = errors.New("core: partition master unreachable")
	// ErrNoReplica reports a read that could not reach any replica.
	ErrNoReplica = errors.New("core: no replica reachable")
	// ErrUnknownSubscriber reports a failed identity resolution.
	ErrUnknownSubscriber = errors.New("core: unknown subscriber")
	// ErrNoCapacity reports placement failure at provisioning time.
	ErrNoCapacity = errors.New("core: no partition with spare capacity in requested region")
	// ErrMigrationInFlight reports a second migration requested for a
	// partition whose move has not finished.
	ErrMigrationInFlight = errors.New("core: partition migration already in flight")
	// ErrUnknownPartition reports a control-plane request naming a
	// partition absent from the table.
	ErrUnknownPartition = errors.New("core: unknown partition")
	// ErrUnknownElement reports a control-plane request naming a
	// storage element this UDR does not host.
	ErrUnknownElement = errors.New("core: unknown element")
)

// Policy identifies the client class, which selects the paper's
// per-class routing rules.
type Policy int

const (
	// PolicyFE is an application front-end: read-mostly, slave reads
	// allowed (§3.3.2) — PA/EL.
	PolicyFE Policy = iota
	// PolicyPS is the provisioning system: master-copy reads only
	// (§3.3.3) — PC/EC.
	PolicyPS
)

// String returns the policy name.
func (p Policy) String() string {
	if p == PolicyPS {
		return "PS"
	}
	return "FE"
}

// SiteSpec sizes one site of the UDR.
type SiteSpec struct {
	// Name is the site (and region) name.
	Name string
	// SEs is the number of storage elements.
	SEs int
	// PartitionsPerSE is how many home partitions each SE masters.
	PartitionsPerSE int
	// LDAPServers is the initial stateless LDAP server count behind
	// the PoA (0 disables the service-capacity model).
	LDAPServers int
	// Blades sizes the blade cluster (0 = 16).
	Blades int
}

// Config configures a UDR NF.
type Config struct {
	// Sites lists the deployment sites (one blade cluster each).
	Sites []SiteSpec
	// ReplicationFactor is copies per partition including the master
	// (the paper's SEs hold "one or two" secondaries; default 2).
	ReplicationFactor int
	// Durability is the default commit durability (§3.3.1: Async).
	Durability replication.Durability
	// QuorumPolicy configures the Quorum durability level (majority,
	// fixed count or site-aware). Zero value: majority of all copies.
	QuorumPolicy replication.QuorumPolicy
	// LocatorMode selects provisioned or cached location maps.
	LocatorMode locator.Mode
	// MultiMaster enables the §5 evolution.
	MultiMaster bool
	// FECache enables the per-site FE/PoA subscriber read cache
	// (internal/fecache): repeat FE reads are served at the access
	// layer, invalidated by the replication-stream CSN, placement-epoch
	// bumps and local write-through. Off by default; experiments and
	// the chaos harness flip it explicitly.
	FECache bool
	// FECacheCapacity bounds entries per site cache (0 selects
	// fecache.DefaultCapacity). Eviction drops the per-key staleness
	// floor with the entry — capacity is a staleness-protection bound,
	// not just a memory bound.
	FECacheCapacity int
	// FECacheSlaveLB rotates cacheable read-through misses across the
	// co-located replicas the cache has proven warm, spreading hot-key
	// miss load off the master under the same bounded-staleness
	// contract (floors still reject regressions).
	FECacheSlaveLB bool
	// CapacityPerSE bounds subscribers per master partition store
	// (scaled stand-in for the 2M/SE limit); 0 = unbounded.
	CapacityPerSE int
	// WALDir enables disk persistence under WALDir/<element>/.
	WALDir string
	// WALMode selects periodic or sync-every-commit durability.
	WALMode wal.Mode
	// CheckpointInterval, when non-zero, runs an incremental WAL
	// checkpoint (durable store image + log prefix prune) on every
	// storage element at this cadence. Requires WALDir.
	CheckpointInterval time.Duration
	// LDAPServiceTime is the PoA's per-operation service time used
	// to model finite LDAP server capacity (E7); 0 disables.
	LDAPServiceTime time.Duration
	// AntiEntropy enables Merkle-digest replica repair (E16): every
	// replica keeps a hash tree over its rows; masters periodically
	// exchange digests with slaves and ship only divergent rows, and
	// each site's cluster watches for partition heals to trigger an
	// immediate repair round.
	AntiEntropy bool
	// RepairInterval is the periodic repair cadence; 0 disables the
	// periodic tick (repairs then run on heal detection and on
	// demand via RepairPartition / RepairAll / udrctl repair).
	RepairInterval time.Duration
	// HealPollInterval is the partition-heal detection poll cadence
	// (default 10ms at the compressed sim scale).
	HealPollInterval time.Duration
	// RebalanceOnAddSite runs a rebalancing pass after a scale-out
	// site joins (§3.4.2), migrating master partitions onto the new
	// capacity so it takes load immediately instead of only serving
	// future subscribers. Off by default: E9 measures the bare join.
	RebalanceOnAddSite bool
	// MigrateCatchUpTimeout bounds a migration's catch-up phase
	// (default 2s).
	MigrateCatchUpTimeout time.Duration
	// MigrateFreezeTimeout bounds a migration's cutover write-freeze
	// (default 100ms): the client-visible blip ceiling E20 measures.
	MigrateFreezeTimeout time.Duration
	// Trace, when non-nil, wires end-to-end request tracing through
	// every layer built by New: the network's per-hop spans, each
	// element's transaction/commit/WAL/replication spans, each
	// location stage's lookup spans and the PoA's exec and cache
	// spans. Sampling policy lives in the recorder (head rate plus
	// slow/error tail capture); a nil recorder costs nothing.
	Trace *trace.Recorder
}

// DefaultConfig returns the paper's baseline: three sites (the
// Figure 2 layout), one SE per site each mastering one partition,
// replication factor 3 (every SE also carries the other two
// partitions as slaves), async replication, provisioned maps.
func DefaultConfig() Config {
	return Config{
		Sites: []SiteSpec{
			{Name: "eu-south", SEs: 1, PartitionsPerSE: 1},
			{Name: "eu-north", SEs: 1, PartitionsPerSE: 1},
			{Name: "americas", SEs: 1, PartitionsPerSE: 1},
		},
		ReplicationFactor: 3,
		Durability:        replication.Async,
		LocatorMode:       locator.Provisioned,
	}
}

// ReplicaRef names one replica of a partition.
type ReplicaRef struct {
	Element string
	Site    string
	Addr    simnet.Addr
}

// Partition is one entry of the partition table. Replicas[0] is the
// current master. Replicas is copy-on-write: the table replaces the
// slice on every placement change and never writes through it, so
// copies of a Partition share it and must treat it as read-only.
type Partition struct {
	ID       string
	HomeSite string
	Replicas []ReplicaRef
	// Epoch is the placement epoch: bumped at every master change
	// (failover, migration cutover) and pushed to the hosting
	// elements, so a request routed under a stale placement gets a
	// retryable referral instead of landing on a demoted master.
	Epoch uint64
}

// Master returns the current master replica.
func (p *Partition) Master() ReplicaRef { return p.Replicas[0] }

// UDR is one User Data Repository network function.
type UDR struct {
	net *simnet.Network
	cfg Config

	mu       sync.RWMutex
	sites    []string
	clusters map[string]*cluster.Cluster
	elements map[string]*se.Element
	stages   map[string]*locator.Stage
	poas     map[string]*AccessPoint
	parts    map[string]*Partition
	partIDs  []string
	// rr tracks round-robin placement per home site.
	rr map[string]int
	// migrating marks partitions with a move in flight, tracking the
	// phase the move last reported (the /status and metrics view).
	migrating map[string]rebalance.Phase

	// obsReg is the metrics registry RegisterMetrics installed, if
	// any; AddSite re-runs the attach pass against it so new sites'
	// histograms are exported too.
	obsReg *metrics.Registry

	seq int // element numbering for scale-out
}

// New builds and wires a UDR NF on the given network.
func New(net *simnet.Network, cfg Config) (*UDR, error) {
	if cfg.ReplicationFactor == 0 {
		cfg.ReplicationFactor = 2
	}
	if len(cfg.Sites) == 0 {
		return nil, errors.New("core: no sites configured")
	}
	u := &UDR{
		net:       net,
		cfg:       cfg,
		clusters:  make(map[string]*cluster.Cluster),
		elements:  make(map[string]*se.Element),
		stages:    make(map[string]*locator.Stage),
		poas:      make(map[string]*AccessPoint),
		parts:     make(map[string]*Partition),
		rr:        make(map[string]int),
		migrating: make(map[string]rebalance.Phase),
	}
	if cfg.Trace != nil {
		net.SetTracer(cfg.Trace)
	}
	// All bootstrap sites start with ready (empty) location stages;
	// only scale-out sites added later must sync before serving
	// (§3.4.2).
	for _, spec := range cfg.Sites {
		if err := u.buildSite(spec, true); err != nil {
			return nil, err
		}
	}
	if err := u.assignPartitions(cfg.Sites); err != nil {
		return nil, err
	}
	return u, nil
}

// buildSite creates the cluster, SEs, location stage and PoA of one
// site. first marks the bootstrap site whose provisioned stage starts
// ready.
func (u *UDR) buildSite(spec SiteSpec, first bool) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.buildSiteLocked(spec, first)
}

func (u *UDR) buildSiteLocked(spec SiteSpec, primed bool) error {
	if spec.SEs == 0 {
		spec.SEs = 1
	}
	if spec.PartitionsPerSE == 0 {
		spec.PartitionsPerSE = 1
	}
	site := spec.Name
	if _, dup := u.clusters[site]; dup {
		return fmt.Errorf("core: duplicate site %q", site)
	}
	u.net.AddSite(site)

	cl := cluster.New(cluster.Config{Site: site, Blades: spec.Blades})
	u.clusters[site] = cl
	if u.cfg.AntiEntropy {
		// OSS-side heal detection: the moment the backbone heals,
		// kick an immediate repair round on this site's elements
		// instead of waiting for the next periodic tick.
		cl.StartHealWatch(u.net, u.cfg.HealPollInterval, func(string) {
			u.kickSiteRepairs(site)
		})
	}
	if spec.LDAPServers > 0 {
		if _, err := cl.AddLDAPServers(spec.LDAPServers); err != nil {
			return err
		}
	}

	for i := 0; i < spec.SEs; i++ {
		u.seq++
		cfg := se.Config{
			ID:                   fmt.Sprintf("se-%s-%d", site, i),
			Site:                 site,
			CapacityPerPartition: u.cfg.CapacityPerSE,
			WALMode:              u.cfg.WALMode,
			CheckpointInterval:   u.cfg.CheckpointInterval,
			AntiEntropy:          u.cfg.AntiEntropy,
			RepairInterval:       u.cfg.RepairInterval,
			// Only cached location maps send FindReq, the index's
			// one reader.
			IdentityIndex: u.cfg.LocatorMode == locator.Cached,
		}
		if u.cfg.WALDir != "" {
			cfg.WALDir = u.cfg.WALDir + "/" + cfg.ID
		}
		el := se.New(u.net, cfg)
		if u.cfg.Trace != nil {
			el.SetTracer(u.cfg.Trace)
		}
		if err := cl.HostSE(el); err != nil {
			return err
		}
		u.elements[el.ID()] = el
	}

	stage := locator.NewStage(site, u.cfg.LocatorMode, primed)
	if u.cfg.Trace != nil {
		stage.SetTracer(u.cfg.Trace)
	}
	if u.cfg.LocatorMode == locator.Cached {
		stage.SetMissResolver(u.missResolver(site))
	}
	u.stages[site] = stage
	u.net.Register(simnet.MakeAddr(site, "locator"),
		func(ctx context.Context, from simnet.Addr, msg any) (any, error) {
			if upd, ok := msg.(locatorUpdate); ok {
				if upd.Remove {
					stage.RemoveProfile(upd.IDs)
				} else {
					stage.PutProfile(upd.IDs, upd.Placement)
				}
				return locatorUpdateAck{}, nil
			}
			resp, handled, err := stage.HandleMessage(ctx, from, msg)
			if !handled {
				return nil, fmt.Errorf("core: locator got unexpected %T", msg)
			}
			return resp, err
		})

	poa := newAccessPoint(u, site, spec.LDAPServers)
	if u.cfg.FECache {
		cache := fecache.New(site, u.cfg.FECacheCapacity)
		poa.cache = cache
		// Every commit a site element installs — local commit or
		// replicated apply — feeds the cache's freshness tracking
		// under the element's current placement epoch for the
		// partition.
		for _, el := range u.siteElementsLocked(site) {
			el := el
			el.SetInstallObserver(func(part string, rec *store.CommitRecord) {
				cache.Observe(part, el.ID(), el.PartitionEpoch(part), rec)
			})
		}
	}
	u.poas[site] = poa
	u.net.Register(simnet.MakeAddr(site, "poa"), poa.handle)

	u.sites = append(u.sites, site)
	sort.Strings(u.sites)
	return nil
}

// assignPartitions creates every site's home partitions and wires
// replication to slave replicas on the following sites (ring order),
// reproducing the Figure 2 placement.
func (u *UDR) assignPartitions(specs []SiteSpec) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	for _, spec := range specs {
		if err := u.assignSitePartitionsLocked(spec); err != nil {
			return err
		}
	}
	return nil
}

func (u *UDR) assignSitePartitionsLocked(spec SiteSpec) error {
	site := spec.Name
	if spec.SEs == 0 {
		spec.SEs = 1
	}
	if spec.PartitionsPerSE == 0 {
		spec.PartitionsPerSE = 1
	}
	siteSEs := u.siteElementsLocked(site)
	if len(siteSEs) == 0 {
		return fmt.Errorf("core: site %q has no storage elements", site)
	}

	total := spec.SEs * spec.PartitionsPerSE
	for i := 0; i < total; i++ {
		partID := fmt.Sprintf("p-%s-%d", site, i)
		masterEl := siteSEs[i%len(siteSEs)]
		part := &Partition{ID: partID, HomeSite: site}

		masterRep, err := masterEl.AddReplica(partID, store.Master)
		if err != nil {
			return err
		}
		part.Replicas = append(part.Replicas, ReplicaRef{
			Element: masterEl.ID(), Site: site, Addr: masterEl.Addr(),
		})

		// Slaves on the next sites in ring order: geographically
		// disperse copies (§3.1 decision 2).
		slaveAddrs := make([]simnet.Addr, 0, u.cfg.ReplicationFactor-1)
		idx := indexOf(u.sites, site)
		for k := 1; k < u.cfg.ReplicationFactor && k < len(u.sites); k++ {
			slaveSite := u.sites[(idx+k)%len(u.sites)]
			slaveSEs := u.siteElementsLocked(slaveSite)
			if len(slaveSEs) == 0 {
				continue
			}
			slaveEl := slaveSEs[i%len(slaveSEs)]
			slaveRep, err := slaveEl.AddReplica(partID, store.Slave)
			if err != nil {
				return err
			}
			if u.cfg.MultiMaster {
				slaveRep.Store.SetMultiMaster(true)
				slaveRep.Repl.SetResolver(replication.SubscriberMerge{})
			}
			part.Replicas = append(part.Replicas, ReplicaRef{
				Element: slaveEl.ID(), Site: slaveSite, Addr: slaveEl.Addr(),
			})
			slaveAddrs = append(slaveAddrs, slaveEl.Addr())
		}

		masterRep.Repl.SetQuorumPolicy(u.cfg.QuorumPolicy)
		masterRep.Repl.SetDurability(u.cfg.Durability)
		if u.cfg.MultiMaster {
			masterRep.Store.SetMultiMaster(true)
			masterRep.Repl.SetResolver(replication.SubscriberMerge{})
			// In multi-master mode every replica ships to every
			// other replica.
			for _, ref := range part.Replicas {
				el := u.elements[ref.Element]
				rep := el.Replica(partID)
				var peers []simnet.Addr
				for _, other := range part.Replicas {
					if other.Addr != ref.Addr {
						peers = append(peers, other.Addr)
					}
				}
				rep.Repl.SetPeers(peers...)
			}
		} else {
			masterRep.Repl.SetPeers(slaveAddrs...)
		}

		part.Epoch = 1
		u.pushEpochLocked(part)
		u.parts[partID] = part
		u.partIDs = append(u.partIDs, partID)
	}
	sort.Strings(u.partIDs)
	return nil
}

// pushEpochLocked installs a partition's current placement epoch on
// every element hosting one of its replicas. The push is an
// in-process OSS action (like Failover's promote), so it reaches even
// elements the backbone has partitioned away.
func (u *UDR) pushEpochLocked(part *Partition) {
	for _, ref := range part.Replicas {
		if el := u.elements[ref.Element]; el != nil {
			el.SetPartitionEpoch(part.ID, part.Epoch)
		}
	}
	// Every site's FE cache learns the bump, not just replica sites:
	// any PoA may hold entries for the partition, and CSNs are not
	// comparable across the master change.
	for _, poa := range u.poas {
		if poa.cache != nil {
			poa.cache.OnEpochBump(part.ID, part.Epoch)
		}
	}
}

func indexOf(list []string, s string) int {
	for i, v := range list {
		if v == s {
			return i
		}
	}
	return -1
}

func (u *UDR) siteElementsLocked(site string) []*se.Element {
	var out []*se.Element
	for _, el := range u.elements {
		if el.Site() == site {
			out = append(out, el)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// Net returns the underlying network.
func (u *UDR) Net() *simnet.Network { return u.net }

// Config returns the configuration (a copy).
func (u *UDR) Config() Config { return u.cfg }

// Tracer returns the configured span recorder (nil when tracing is
// off).
func (u *UDR) Tracer() *trace.Recorder { return u.cfg.Trace }

// Sites lists deployment sites, sorted.
func (u *UDR) Sites() []string {
	u.mu.RLock()
	defer u.mu.RUnlock()
	return append([]string(nil), u.sites...)
}

// PoAAddr returns the PoA address at a site.
func (u *UDR) PoAAddr(site string) simnet.Addr { return simnet.MakeAddr(site, "poa") }

// Partitions lists partition IDs, sorted.
func (u *UDR) Partitions() []string {
	u.mu.RLock()
	defer u.mu.RUnlock()
	return append([]string(nil), u.partIDs...)
}

// Partition returns a copy of a partition-table entry.
func (u *UDR) Partition(id string) (Partition, bool) {
	u.mu.RLock()
	defer u.mu.RUnlock()
	p, ok := u.parts[id]
	if !ok {
		return Partition{}, false
	}
	return *p, true
}

// Element returns a hosted storage element by ID.
func (u *UDR) Element(id string) *se.Element {
	u.mu.RLock()
	defer u.mu.RUnlock()
	return u.elements[id]
}

// Elements lists hosted element IDs, sorted.
func (u *UDR) Elements() []string {
	u.mu.RLock()
	defer u.mu.RUnlock()
	out := make([]string, 0, len(u.elements))
	for id := range u.elements {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Stage returns a site's location stage.
func (u *UDR) Stage(site string) *locator.Stage {
	u.mu.RLock()
	defer u.mu.RUnlock()
	return u.stages[site]
}

// PoA returns a site's access point.
func (u *UDR) PoA(site string) *AccessPoint {
	u.mu.RLock()
	defer u.mu.RUnlock()
	return u.poas[site]
}

// Cluster returns a site's blade cluster.
func (u *UDR) Cluster(site string) *cluster.Cluster {
	u.mu.RLock()
	defer u.mu.RUnlock()
	return u.clusters[site]
}

// missResolver builds the cached-locator fan-out: ask every element
// (nearest site first) whether it masters the identity (§3.5).
func (u *UDR) missResolver(site string) locator.MissResolver {
	self := simnet.MakeAddr(site, "locator-miss")
	return func(ctx context.Context, id subscriber.Identity) (locator.Placement, int, error) {
		u.mu.RLock()
		els := make([]*se.Element, 0, len(u.elements))
		for _, el := range u.elements {
			els = append(els, el)
		}
		u.mu.RUnlock()
		// Nearest-first: local site elements, then the rest sorted.
		sort.Slice(els, func(i, j int) bool {
			li, lj := els[i].Site() == site, els[j].Site() == site
			if li != lj {
				return li
			}
			return els[i].ID() < els[j].ID()
		})
		queried := 0
		for _, el := range els {
			queried++
			raw, err := u.net.Call(ctx, self, el.Addr(), se.FindReq{Identity: id})
			if err != nil {
				continue
			}
			resp, ok := raw.(se.FindResp)
			if ok && resp.Found {
				return locator.Placement{
					SubscriberID: resp.SubscriberID,
					Partition:    resp.Partition,
				}, queried, nil
			}
		}
		return locator.Placement{}, queried, fmt.Errorf("%w: %s", ErrUnknownSubscriber, id)
	}
}

// Failover promotes the most-caught-up reachable live slave of a
// partition to master (OSS-triggered repair after an SE failure) and
// returns the new master reference.
//
// Candidates are ranked by how many live slave peers their site can
// currently reach — the OSS never promotes into a network cut when a
// better-connected slave exists, because a master isolated with the
// failed one serves nobody. Reachability to the old master itself is
// deliberately not counted: being co-partitioned with the failure is
// what the failover routes around.
//
// Among equally connected candidates the highest applied CSN wins:
// the replication stream is CSN-ordered, so slave states are prefixes
// of the master's commit order and the most-caught-up slave holds a
// superset of every other slave. Under Quorum durability any
// quorum-acked commit was applied by at least one slave — promoting
// the most-caught-up one therefore preserves every quorum-acked write
// whenever any acking slave is still live (the contract E19's quorum
// column checks). Remaining ties keep the partition-table order, so
// the choice is deterministic.
func (u *UDR) Failover(partID string) (ReplicaRef, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	part, ok := u.parts[partID]
	if !ok {
		return ReplicaRef{}, fmt.Errorf("core: unknown partition %q", partID)
	}
	best := -1
	bestScore := -1
	var bestCSN uint64
	for i := 1; i < len(part.Replicas); i++ {
		ref := part.Replicas[i]
		el := u.elements[ref.Element]
		if el == nil || el.Down() {
			continue
		}
		pr := el.Replica(partID)
		if pr == nil {
			continue
		}
		score := 0
		for j := 1; j < len(part.Replicas); j++ {
			if j == i {
				continue
			}
			other := part.Replicas[j]
			if otherEl := u.elements[other.Element]; otherEl == nil || otherEl.Down() {
				continue
			}
			if !u.net.Partitioned(ref.Site, other.Site) {
				score++
			}
		}
		applied := pr.Store.AppliedCSN()
		if score > bestScore || (score == bestScore && applied > bestCSN) {
			best, bestScore, bestCSN = i, score, applied
		}
	}
	if best == -1 {
		return ReplicaRef{}, fmt.Errorf("core: partition %q has no live replica", partID)
	}
	ref := part.Replicas[best]
	el := u.elements[ref.Element]
	// Promote: the slave's commit sequence continues from its
	// replication high-water mark; transactions the old master
	// committed but had not replicated (or, under async, not even
	// shipped) are lost — the paper's durability gap (§3.3.1).
	var peers []simnet.Addr
	for j, other := range part.Replicas {
		if j != best {
			if otherEl := u.elements[other.Element]; otherEl != nil && !otherEl.Down() {
				peers = append(peers, other.Addr)
			}
		}
	}
	rep := el.Replica(partID).Repl
	rep.Promote(peers...)
	// The promoted replica was a slave, whose durability level was
	// never set: carry the configured level and quorum policy over so
	// post-failover commits keep the same contract.
	rep.SetQuorumPolicy(u.cfg.QuorumPolicy)
	rep.SetDurability(u.cfg.Durability)
	// Reorder the partition table: new master first. The master
	// moved, so the placement epoch advances and every replica
	// learns it — requests routed under the old placement now get
	// the retryable referral.
	replicas := append([]ReplicaRef(nil), part.Replicas...)
	replicas[0], replicas[best] = replicas[best], replicas[0]
	part.Replicas = replicas
	part.Epoch++
	u.pushEpochLocked(part)
	return part.Replicas[0], nil
}

// ReseedSlave bulk-copies the current master state of a partition
// into the replica hosted on element elID and re-attaches it to the
// master's replication stream. This models the OSS-driven restore of
// a repaired storage element.
func (u *UDR) ReseedSlave(partID, elID string) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	part, ok := u.parts[partID]
	if !ok {
		return fmt.Errorf("core: unknown partition %q", partID)
	}
	masterEl := u.elements[part.Master().Element]
	targetEl := u.elements[elID]
	if masterEl == nil || targetEl == nil {
		return fmt.Errorf("core: unknown element")
	}
	masterRep := masterEl.Replica(partID)
	targetRep := targetEl.Replica(partID)
	if masterRep == nil || targetRep == nil {
		return fmt.Errorf("core: partition %q not hosted on both elements", partID)
	}
	st := masterRep.Store
	tgt := targetRep.Store
	tgt.SetRole(store.Slave)
	// Zero-copy bulk transfer: entries are immutable shared versions
	// and PutDirect installs its own copy.
	st.ForEachAny(func(key string, e store.Entry, m store.Meta) bool {
		tgt.PutDirect(key, e, m)
		return true
	})
	tgt.SetAppliedCSN(st.CSN())
	// Re-attach to the master's shipping list.
	var peers []simnet.Addr
	seen := map[simnet.Addr]bool{}
	for _, ref := range part.Replicas[1:] {
		if el := u.elements[ref.Element]; el != nil && !el.Down() {
			if !seen[ref.Addr] {
				peers = append(peers, ref.Addr)
				seen[ref.Addr] = true
			}
		}
	}
	masterRep.Repl.SetPeers(peers...)
	return nil
}

// AddSite scales the UDR out with a new site at runtime (§3.4.2): new
// cluster, SEs, a location stage that must sync its identity-location
// maps from a peer site before its PoA can serve, and fresh home
// partitions for future subscribers. It returns the stage sync
// duration and entry count — the availability dip E9 measures.
func (u *UDR) AddSite(ctx context.Context, spec SiteSpec) (syncTime time.Duration, entries int, err error) {
	u.mu.Lock()
	if len(u.sites) == 0 {
		u.mu.Unlock()
		return 0, 0, errors.New("core: cannot scale out an empty UDR")
	}
	peerSite := u.sites[0]
	if err := u.buildSiteLocked(spec, false); err != nil {
		u.mu.Unlock()
		return 0, 0, err
	}
	if err := u.assignSitePartitionsLocked(spec); err != nil {
		u.mu.Unlock()
		return 0, 0, err
	}
	stage := u.stages[spec.Name]
	u.mu.Unlock()

	// Re-run the metrics attach pass so the new site's PoA histogram
	// is exported (collectors pick the new elements up on their own).
	if reg := u.obsRegistry(); reg != nil {
		u.attachInstruments(reg)
	}

	if u.cfg.LocatorMode == locator.Provisioned {
		start := time.Now()
		n, err := stage.SyncFrom(ctx, u.net,
			simnet.MakeAddr(spec.Name, "locator"),
			simnet.MakeAddr(peerSite, "locator"))
		if err != nil {
			return time.Since(start), n, err
		}
		syncTime = time.Since(start)
		entries = n
	}
	// Without rebalancing, a scale-out site only receives *future*
	// subscribers (fresh home partitions): existing load never moves,
	// which is the placement gap the paper's §3.4.2 story glosses
	// over. Flag-gated so E9 keeps measuring the bare join.
	if u.cfg.RebalanceOnAddSite {
		if _, err := u.Rebalance(ctx); err != nil {
			return syncTime, entries, fmt.Errorf("core: post-scale-out rebalance: %w", err)
		}
	}
	return syncTime, entries, nil
}

// choosePartition picks a partition for a new subscription:
// selective placement in the home region when possible (§3.5), else
// global round-robin.
func (u *UDR) choosePartition(region string) (string, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	var candidates []string
	for _, id := range u.partIDs {
		if u.parts[id].HomeSite == region {
			candidates = append(candidates, id)
		}
	}
	key := region
	if len(candidates) == 0 {
		candidates = u.partIDs
		key = ""
	}
	if len(candidates) == 0 {
		return "", ErrNoCapacity
	}
	i := u.rr[key] % len(candidates)
	u.rr[key]++
	return candidates[i], nil
}

// SeedDirect loads a subscriber straight into the partition master
// store and every location stage, bypassing the network: bulk test
// and benchmark setup only.
func (u *UDR) SeedDirect(p *subscriber.Profile) error {
	partID, err := u.choosePartition(p.HomeRegion)
	if err != nil {
		return err
	}
	u.mu.RLock()
	part := u.parts[partID]
	masterEl := u.elements[part.Master().Element]
	stages := make([]*locator.Stage, 0, len(u.stages))
	for _, st := range u.stages {
		stages = append(stages, st)
	}
	u.mu.RUnlock()

	rep := masterEl.Replica(partID)
	txn := rep.Store.Begin(store.ReadCommitted)
	txn.Put(p.ID, p.ToEntry())
	if _, err := txn.Commit(); err != nil {
		return err
	}
	placement := locator.Placement{SubscriberID: p.ID, Partition: partID}
	if u.cfg.LocatorMode == locator.Provisioned {
		ids := p.Identities()
		for _, st := range stages {
			st.PutProfile(ids, placement)
		}
	}
	return nil
}

// kickSiteRepairs requests an immediate anti-entropy round from every
// element at a site (heal-watcher callback).
func (u *UDR) kickSiteRepairs(site string) {
	u.mu.RLock()
	els := u.siteElementsLocked(site)
	u.mu.RUnlock()
	for _, el := range els {
		el.RepairNow()
	}
}

// RepairPartition runs one anti-entropy repair round for a partition
// from its current master replica to every replication peer, and
// returns the per-peer stats. Without AntiEntropy it returns
// ErrAntiEntropyDisabled.
func (u *UDR) RepairPartition(ctx context.Context, partID string) ([]antientropy.Stats, error) {
	if !u.cfg.AntiEntropy {
		return nil, ErrAntiEntropyDisabled
	}
	u.mu.RLock()
	part, ok := u.parts[partID]
	var el *se.Element
	if ok {
		el = u.elements[part.Master().Element]
	}
	u.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPartition, partID)
	}
	if el == nil || el.Down() {
		return nil, fmt.Errorf("core: master element of %q unavailable", partID)
	}
	return el.RepairPartition(ctx, partID)
}

// RepairAll runs a repair round for every partition (udrctl repair,
// heal recovery). Unreachable peers are skipped; the first error is
// reported after every partition was attempted. Without AntiEntropy
// it returns ErrAntiEntropyDisabled.
func (u *UDR) RepairAll(ctx context.Context) ([]antientropy.Stats, error) {
	var out []antientropy.Stats
	var firstErr error
	for _, partID := range u.Partitions() {
		stats, err := u.RepairPartition(ctx, partID)
		out = append(out, stats...)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return out, firstErr
}

// RestoreConsistency runs the paper's §5 post-partition consistency
// restoration for one partition in multi-master mode: every replica
// pulls the divergent rows of every other replica and merges them
// (deterministic resolvers guarantee convergence). It returns the
// total number of rows merged.
func (u *UDR) RestoreConsistency(ctx context.Context, partID string) (merged int, err error) {
	u.mu.RLock()
	part, ok := u.parts[partID]
	if !ok {
		u.mu.RUnlock()
		return 0, fmt.Errorf("core: unknown partition %q", partID)
	}
	refs := append([]ReplicaRef(nil), part.Replicas...)
	u.mu.RUnlock()

	for _, ref := range refs {
		el := u.Element(ref.Element)
		if el == nil || el.Down() {
			continue
		}
		pr := el.Replica(partID)
		if pr == nil {
			continue
		}
		for _, peer := range refs {
			if peer.Addr == ref.Addr {
				continue
			}
			if peerEl := u.Element(peer.Element); peerEl == nil || peerEl.Down() {
				continue
			}
			n, serr := pr.Repl.SyncWith(ctx, peer.Addr)
			if serr != nil {
				err = serr
				continue
			}
			merged += n
		}
	}
	return merged, err
}

// RestoreAll runs RestoreConsistency for every partition.
func (u *UDR) RestoreAll(ctx context.Context) (merged int, err error) {
	for _, partID := range u.Partitions() {
		n, serr := u.RestoreConsistency(ctx, partID)
		merged += n
		if serr != nil {
			err = serr
		}
	}
	return merged, err
}

// WaitReplication blocks until every master's replication streams are
// fully acknowledged (test/bench settling).
func (u *UDR) WaitReplication(ctx context.Context) error {
	u.mu.RLock()
	reps := make([]*replication.Replica, 0, len(u.parts))
	for id, part := range u.parts {
		el := u.elements[part.Master().Element]
		if el != nil && !el.Down() {
			if pr := el.Replica(id); pr != nil {
				reps = append(reps, pr.Repl)
			}
		}
	}
	u.mu.RUnlock()
	for _, r := range reps {
		if err := r.WaitCaughtUp(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Stop shuts down every element cleanly. Heal watchers stop before
// u.mu is taken: their callback acquires u.mu (kickSiteRepairs), so
// waiting for them under the lock would deadlock with a heal that
// lands at shutdown.
func (u *UDR) Stop() {
	u.mu.RLock()
	cls := make([]*cluster.Cluster, 0, len(u.clusters))
	for _, cl := range u.clusters {
		cls = append(cls, cl)
	}
	u.mu.RUnlock()
	for _, cl := range cls {
		cl.StopHealWatch()
	}

	u.mu.Lock()
	defer u.mu.Unlock()
	for _, el := range u.elements {
		el.Stop()
	}
	for _, site := range u.sites {
		u.net.Unregister(simnet.MakeAddr(site, "poa"))
		u.net.Unregister(simnet.MakeAddr(site, "locator"))
	}
}
