package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/locator"
	"repro/internal/replication"
	"repro/internal/se"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/subscriber"
)

// testUDR builds the paper's Figure 2 layout on a fast network and
// seeds n subscribers across the three regions.
func testUDR(t *testing.T, n int, mutate ...func(*Config)) (*simnet.Network, *UDR, []*subscriber.Profile) {
	t.Helper()
	net := simnet.New(simnet.FastConfig())
	cfg := DefaultConfig()
	for _, m := range mutate {
		m(&cfg)
	}
	u, err := New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Stop)

	gen := subscriber.NewGenerator(u.Sites()...)
	var profiles []*subscriber.Profile
	for i := 0; i < n; i++ {
		p := gen.Profile(i)
		if err := u.SeedDirect(p); err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	return net, u, profiles
}

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestTopologyMatchesFigure2(t *testing.T) {
	_, u, _ := testUDR(t, 0)
	parts := u.Partitions()
	if len(parts) != 3 {
		t.Fatalf("partitions = %v", parts)
	}
	// Every partition has a master plus two slaves, all on distinct
	// sites (geographically disperse copies).
	for _, id := range parts {
		p, ok := u.Partition(id)
		if !ok || len(p.Replicas) != 3 {
			t.Fatalf("partition %s replicas = %+v", id, p.Replicas)
		}
		sites := map[string]bool{}
		for _, r := range p.Replicas {
			sites[r.Site] = true
		}
		if len(sites) != 3 {
			t.Fatalf("partition %s not geographically disperse: %+v", id, p.Replicas)
		}
		if p.Master().Site != p.HomeSite {
			t.Fatalf("partition %s master not at home site", id)
		}
	}
	// Every SE hosts 3 replicas: 1 master + 2 slaves (Figure 2's
	// described layout).
	for _, elID := range u.Elements() {
		el := u.Element(elID)
		if got := len(el.Partitions()); got != 3 {
			t.Fatalf("element %s hosts %d replicas", elID, got)
		}
	}
}

func TestFEReadEverySite(t *testing.T) {
	net, u, profiles := testUDR(t, 9)
	ctx := ctxT(t)
	if err := u.WaitReplication(ctx); err != nil {
		t.Fatal(err)
	}
	for _, site := range u.Sites() {
		sess := NewSession(net, simnet.MakeAddr(site, "fe"), site, PolicyFE)
		for _, p := range profiles[:3] {
			got, _, _, err := sess.ReadProfile(ctx, subscriber.Identity{Type: subscriber.MSISDN, Value: p.MSISDNVal})
			if err != nil {
				t.Fatalf("site %s read %s: %v", site, p.ID, err)
			}
			if got.ID != p.ID {
				t.Fatalf("got %s want %s", got.ID, p.ID)
			}
		}
	}
}

func TestFEReadServedLocally(t *testing.T) {
	// With RF=3 every site holds a replica of everything: FE reads
	// must be served by the co-located element (§3.3.2 decision 2).
	net, u, profiles := testUDR(t, 3)
	ctx := ctxT(t)
	if err := u.WaitReplication(ctx); err != nil {
		t.Fatal(err)
	}
	site := u.Sites()[0]
	sess := NewSession(net, simnet.MakeAddr(site, "fe"), site, PolicyFE)
	for _, p := range profiles {
		resp, err := sess.Exec(ctx, ExecReq{
			Identity: subscriber.Identity{Type: subscriber.IMSI, Value: p.IMSIVal},
			Ops:      []se.TxnOp{{Kind: se.TxnGet}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp.ServedBy.Site() != site {
			t.Fatalf("read for %s served by %s, want local site %s", p.ID, resp.ServedBy, site)
		}
	}
}

func TestProvisionAndReadBack(t *testing.T) {
	net, u, _ := testUDR(t, 0)
	ctx := ctxT(t)
	sites := u.Sites()
	ps := NewSession(net, simnet.MakeAddr(sites[0], "ps"), sites[0], PolicyPS)

	p := subscriber.NewGenerator(sites...).Profile(100)
	p.HomeRegion = sites[1]
	resp, err := ps.Provision(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if resp.LocatorUpdateFailures != 0 {
		t.Fatalf("locator failures = %d", resp.LocatorUpdateFailures)
	}
	// Selective placement: the partition's home site is the profile's
	// home region (§3.5).
	part, _ := u.Partition(resp.Partition)
	if part.HomeSite != sites[1] {
		t.Fatalf("placed at %s, want %s", part.HomeSite, sites[1])
	}
	// Readable from every site by every identity.
	if err := u.WaitReplication(ctx); err != nil {
		t.Fatal(err)
	}
	for _, site := range sites {
		fe := NewSession(net, simnet.MakeAddr(site, "fe"), site, PolicyFE)
		for _, id := range p.Identities() {
			got, _, _, err := fe.ReadProfile(ctx, id)
			if err != nil {
				t.Fatalf("site %s id %s: %v", site, id, err)
			}
			if got.ID != p.ID {
				t.Fatalf("wrong profile for %s", id)
			}
		}
	}
}

func TestProvisionAtPinnedPartition(t *testing.T) {
	net, u, _ := testUDR(t, 0)
	ctx := ctxT(t)
	sites := u.Sites()
	ps := NewSession(net, simnet.MakeAddr(sites[0], "ps"), sites[0], PolicyPS)
	p := subscriber.NewGenerator(sites...).Profile(200)
	pin := u.Partitions()[2]
	resp, err := ps.ProvisionAt(ctx, p, pin)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Partition != pin {
		t.Fatalf("placed at %s, want pinned %s", resp.Partition, pin)
	}
}

func TestDeprovisionRemovesEverything(t *testing.T) {
	net, u, profiles := testUDR(t, 3)
	ctx := ctxT(t)
	site := u.Sites()[0]
	ps := NewSession(net, simnet.MakeAddr(site, "ps"), site, PolicyPS)

	victim := profiles[0]
	if _, err := ps.Deprovision(ctx, victim.ID); err != nil {
		t.Fatal(err)
	}
	fe := NewSession(net, simnet.MakeAddr(site, "fe"), site, PolicyFE)
	_, _, _, err := fe.ReadProfile(ctx, subscriber.Identity{Type: subscriber.MSISDN, Value: victim.MSISDNVal})
	if err == nil {
		t.Fatal("deprovisioned subscriber still readable")
	}
	// Location maps cleaned at every site.
	for _, s := range u.Sites() {
		if _, err := u.Stage(s).Lookup(ctx, subscriber.Identity{Type: subscriber.IMSI, Value: victim.IMSIVal}); !errors.Is(err, locator.ErrNotFound) {
			t.Fatalf("site %s still maps the victim: %v", s, err)
		}
	}
}

func TestPartitionCoverA(t *testing.T) {
	// The heart of §3.2/§4.1: on a partition, FE reads keep working
	// everywhere (slave reads), PS writes fail for partitions whose
	// master is on the other side.
	net, u, profiles := testUDR(t, 9)
	ctx := ctxT(t)
	if err := u.WaitReplication(ctx); err != nil {
		t.Fatal(err)
	}
	sites := u.Sites()
	isolated := sites[0]
	net.Partition([]string{isolated})

	// FE reads at the isolated site: all data still readable (local
	// replicas hold everything at RF=3).
	fe := NewSession(net, simnet.MakeAddr(isolated, "fe"), isolated, PolicyFE)
	for _, p := range profiles {
		if _, _, _, err := fe.ReadProfile(ctx, subscriber.Identity{Type: subscriber.MSISDN, Value: p.MSISDNVal}); err != nil {
			t.Fatalf("FE read during partition: %v", err)
		}
	}

	// PS writes at the isolated site: succeed only for the partition
	// mastered locally, fail for remote masters (C over A).
	ps := NewSession(net, simnet.MakeAddr(isolated, "ps"), isolated, PolicyPS)
	var ok, failed int
	for _, p := range profiles {
		_, err := ps.Exec(ctx, ExecReq{
			Identity: subscriber.Identity{Type: subscriber.IMSI, Value: p.IMSIVal},
			Ops: []se.TxnOp{{Kind: se.TxnModify, Mods: []store.Mod{{
				Kind: store.ModReplace, Attr: subscriber.AttrBarPremium, Vals: []string{"TRUE"},
			}}}},
		})
		if err != nil {
			if !errors.Is(err, ErrMasterUnreachable) {
				t.Fatalf("unexpected error class: %v", err)
			}
			failed++
		} else {
			ok++
		}
	}
	// 9 subscribers over 3 home sites: 3 mastered locally, 6 remote.
	if ok != 3 || failed != 6 {
		t.Fatalf("writes ok=%d failed=%d, want 3/6", ok, failed)
	}

	net.Heal()
	// After the partition every write works again.
	if _, err := ps.Exec(ctx, ExecReq{
		Identity: subscriber.Identity{Type: subscriber.IMSI, Value: profiles[1].IMSIVal},
		Ops: []se.TxnOp{{Kind: se.TxnModify, Mods: []store.Mod{{
			Kind: store.ModReplace, Attr: subscriber.AttrBarPremium, Vals: []string{"FALSE"},
		}}}},
	}); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
}

func TestPSReadsRequireMaster(t *testing.T) {
	// §3.3.3: PS reads are master-only, so they fail during the
	// partition even though a local slave copy exists.
	net, u, profiles := testUDR(t, 3)
	ctx := ctxT(t)
	if err := u.WaitReplication(ctx); err != nil {
		t.Fatal(err)
	}
	sites := u.Sites()
	isolated := sites[0]

	// Pick a subscriber mastered elsewhere.
	var remote *subscriber.Profile
	for _, p := range profiles {
		if p.HomeRegion != isolated {
			remote = p
			break
		}
	}
	net.Partition([]string{isolated})
	defer net.Heal()

	ps := NewSession(net, simnet.MakeAddr(isolated, "ps"), isolated, PolicyPS)
	_, _, _, err := ps.ReadProfile(ctx, subscriber.Identity{Type: subscriber.IMSI, Value: remote.IMSIVal})
	if err == nil {
		t.Fatal("PS read of remote-mastered data succeeded during partition")
	}
	// The same read succeeds for an FE (slave read).
	fe := NewSession(net, simnet.MakeAddr(isolated, "fe"), isolated, PolicyFE)
	if _, _, _, err := fe.ReadProfile(ctx, subscriber.Identity{Type: subscriber.IMSI, Value: remote.IMSIVal}); err != nil {
		t.Fatalf("FE read failed: %v", err)
	}
}

// The policy class selects the replica (§3.3.2, §3.3.3), with no
// config knob beside it: on a literal Config — no DefaultConfig — an FE
// read of a remote-home subscriber is served by the co-located slave,
// the same read under PS policy by the remote master.
func TestReadPolicySelectsReplica(t *testing.T) {
	net := simnet.New(simnet.FastConfig())
	u, err := New(net, Config{
		Sites:             []SiteSpec{{Name: "eu-south"}, {Name: "eu-north"}, {Name: "americas"}},
		ReplicationFactor: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Stop)
	ctx := ctxT(t)
	site := u.Sites()[0]
	gen := subscriber.NewGenerator(u.Sites()...)
	var remote *subscriber.Profile
	for i := 0; remote == nil; i++ {
		if p := gen.Profile(i); p.HomeRegion != site {
			remote = p
		}
	}
	if err := u.SeedDirect(remote); err != nil {
		t.Fatal(err)
	}
	if err := u.WaitReplication(ctx); err != nil {
		t.Fatal(err)
	}
	read := func(policy Policy) ExecResp {
		t.Helper()
		sess := NewSession(net, simnet.MakeAddr(site, "client-"+policy.String()), site, policy)
		resp, err := sess.Exec(ctx, ExecReq{
			Identity: subscriber.Identity{Type: subscriber.IMSI, Value: remote.IMSIVal},
			Ops:      []se.TxnOp{{Kind: se.TxnGet}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return *resp
	}
	if resp := read(PolicyFE); resp.Role != store.Slave || resp.ServedBy.Site() != site {
		t.Fatalf("FE read served by %s role %v, want co-located slave", resp.ServedBy, resp.Role)
	}
	if resp := read(PolicyPS); resp.Role != store.Master || resp.ServedBy.Site() == site {
		t.Fatalf("PS read served by %s role %v, want remote master", resp.ServedBy, resp.Role)
	}
}

func TestFailoverRestoresWrites(t *testing.T) {
	net, u, profiles := testUDR(t, 3)
	ctx := ctxT(t)
	if err := u.WaitReplication(ctx); err != nil {
		t.Fatal(err)
	}
	victim := profiles[0]
	partID := ""
	for _, id := range u.Partitions() {
		p, _ := u.Partition(id)
		if p.HomeSite == victim.HomeRegion {
			partID = id
			break
		}
	}
	part, _ := u.Partition(partID)
	u.Element(part.Master().Element).Crash()

	site := u.Sites()[1]
	ps := NewSession(net, simnet.MakeAddr(site, "ps"), site, PolicyPS)
	writeReq := ExecReq{
		Identity: subscriber.Identity{Type: subscriber.IMSI, Value: victim.IMSIVal},
		Ops: []se.TxnOp{{Kind: se.TxnModify, Mods: []store.Mod{{
			Kind: store.ModReplace, Attr: subscriber.AttrBarOutgoing, Vals: []string{"TRUE"},
		}}}},
	}
	if _, err := ps.Exec(ctx, writeReq); err == nil {
		t.Fatal("write succeeded with dead master")
	}

	newMaster, err := u.Failover(partID)
	if err != nil {
		t.Fatal(err)
	}
	if newMaster.Element == part.Master().Element {
		t.Fatal("failover picked the dead element")
	}
	if _, err := ps.Exec(ctx, writeReq); err != nil {
		t.Fatalf("write after failover: %v", err)
	}
	// Reads reflect the write.
	got, _, _, err := ps.ReadProfile(ctx, subscriber.Identity{Type: subscriber.IMSI, Value: victim.IMSIVal})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Services.BarOutgoing {
		t.Fatal("write lost across failover")
	}
}

func TestQuorumFailoverPromotesAckedSlave(t *testing.T) {
	// Crash-restart durability contract: a quorum-acked write survives
	// master failover because the most-caught-up live slave — which by
	// the quorum holds the write — is the one promoted.
	net, u, profiles := testUDR(t, 3, func(c *Config) { c.Durability = replication.Quorum })
	ctx := ctxT(t)
	if err := u.WaitReplication(ctx); err != nil {
		t.Fatal(err)
	}
	victim := profiles[0]
	var partID string
	for _, id := range u.Partitions() {
		p, _ := u.Partition(id)
		if p.HomeSite == victim.HomeRegion {
			partID = id
			break
		}
	}
	part, _ := u.Partition(partID)
	// Cut off the FIRST slave in table order, so a naive
	// first-reachable failover would promote it after the heal even
	// though it missed the quorum-acked write.
	stale := part.Replicas[1]
	acked := part.Replicas[2]
	net.Partition([]string{stale.Site})

	// Quorum write with one replica down: master + the reachable slave
	// are the majority, so the commit succeeds where sync-all stalls.
	ps := NewSession(net, simnet.MakeAddr(part.HomeSite, "ps"), part.HomeSite, PolicyPS)
	writeReq := ExecReq{
		Identity: subscriber.Identity{Type: subscriber.IMSI, Value: victim.IMSIVal},
		Ops: []se.TxnOp{{Kind: se.TxnModify, Mods: []store.Mod{{
			Kind: store.ModReplace, Attr: subscriber.AttrBarOutgoing, Vals: []string{"TRUE"},
		}}}},
	}
	if _, err := ps.Exec(ctx, writeReq); err != nil {
		t.Fatalf("quorum write with straggler partitioned: %v", err)
	}

	// Master dies before the straggler ever sees the write; then the
	// partition heals, so BOTH slaves are reachable at repair time.
	u.Element(part.Master().Element).Crash()
	net.Heal()

	newMaster, err := u.Failover(partID)
	if err != nil {
		t.Fatal(err)
	}
	if newMaster.Element != acked.Element {
		t.Fatalf("failover promoted %s; most-caught-up acked slave is %s",
			newMaster.Element, acked.Element)
	}
	got, _, _, err := ps.ReadProfile(ctx, subscriber.Identity{Type: subscriber.IMSI, Value: victim.IMSIVal})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Services.BarOutgoing {
		t.Fatal("quorum-acked write lost across failover")
	}

	// The promoted master carries the configured durability level:
	// after the straggler is repaired (its stream is gapped, so it
	// needs the reseed anti-entropy would perform), the next quorum
	// write completes against it.
	if err := u.ReseedSlave(partID, stale.Element); err != nil {
		t.Fatal(err)
	}
	writeReq.Ops[0].Mods[0].Attr = subscriber.AttrBarRoaming
	if _, err := ps.Exec(ctx, writeReq); err != nil {
		t.Fatalf("quorum write on promoted master: %v", err)
	}
	pr := u.Element(newMaster.Element).Replica(partID)
	if lvl := pr.Repl.Durability(); lvl != replication.Quorum {
		t.Fatalf("promoted master durability = %v, want Quorum", lvl)
	}
}

func TestSupervisorAutoFailover(t *testing.T) {
	net, u, profiles := testUDR(t, 3)
	ctx := ctxT(t)
	if err := u.WaitReplication(ctx); err != nil {
		t.Fatal(err)
	}
	sup := u.NewSupervisor(2*time.Millisecond, 5*time.Millisecond)
	sup.Start()
	defer sup.Stop()

	victim := profiles[0]
	var partID string
	for _, id := range u.Partitions() {
		p, _ := u.Partition(id)
		if p.HomeSite == victim.HomeRegion {
			partID = id
		}
	}
	part, _ := u.Partition(partID)
	u.Element(part.Master().Element).Crash()

	// Wait for the watchdog to count a promotion. It counts only after
	// Failover returns, so by then the table must show the new master.
	deadline := time.Now().Add(5 * time.Second)
	for sup.Failovers.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("supervisor never counted a failover")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if p, _ := u.Partition(partID); p.Master().Element == part.Master().Element {
		t.Fatal("failover counted but the master did not change")
	}
	_ = net
}

func TestReseedSlave(t *testing.T) {
	_, u, profiles := testUDR(t, 3)
	ctx := ctxT(t)
	if err := u.WaitReplication(ctx); err != nil {
		t.Fatal(err)
	}
	partID := u.Partitions()[0]
	part, _ := u.Partition(partID)
	slaveRef := part.Replicas[1]

	// Wipe the slave's store to simulate a replaced element.
	slaveEl := u.Element(slaveRef.Element)
	fresh := store.New("fresh")
	fresh.SetRole(store.Slave)
	slaveEl.Replica(partID).Store = fresh

	if err := u.ReseedSlave(partID, slaveRef.Element); err != nil {
		t.Fatal(err)
	}
	reseeded := slaveEl.Replica(partID).Store
	masterStore := u.Element(part.Master().Element).Replica(partID).Store
	if reseeded.Len() != masterStore.Len() {
		t.Fatalf("reseeded len = %d, master = %d", reseeded.Len(), masterStore.Len())
	}
	_ = profiles
}

func TestMultiMasterWritesBothSidesAndConverge(t *testing.T) {
	net, u, profiles := testUDR(t, 3, func(c *Config) { c.MultiMaster = true })
	ctx := ctxT(t)
	if err := u.WaitReplication(ctx); err != nil {
		t.Fatal(err)
	}
	sites := u.Sites()
	isolated := sites[0]
	var remote *subscriber.Profile
	for _, p := range profiles {
		if p.HomeRegion != isolated {
			remote = p
			break
		}
	}

	net.Partition([]string{isolated})

	// Writes succeed on BOTH sides (availability restored, §5).
	psA := NewSession(net, simnet.MakeAddr(isolated, "ps"), isolated, PolicyPS)
	psB := NewSession(net, simnet.MakeAddr(remote.HomeRegion, "ps"), remote.HomeRegion, PolicyPS)
	id := subscriber.Identity{Type: subscriber.IMSI, Value: remote.IMSIVal}
	if _, err := psA.Exec(ctx, ExecReq{Identity: id, Ops: []se.TxnOp{{
		Kind: se.TxnModify, Mods: []store.Mod{{Kind: store.ModReplace, Attr: subscriber.AttrBarPremium, Vals: []string{"TRUE"}}},
	}}}); err != nil {
		t.Fatalf("isolated-side write: %v", err)
	}
	time.Sleep(2 * time.Millisecond)
	if _, err := psB.Exec(ctx, ExecReq{Identity: id, Ops: []se.TxnOp{{
		Kind: se.TxnModify, Mods: []store.Mod{{Kind: store.ModReplace, Attr: subscriber.AttrForwardUncond, Vals: []string{"34699999999"}}},
	}}}); err != nil {
		t.Fatalf("majority-side write: %v", err)
	}

	net.Heal()
	// Consistency restoration across the partition's replicas.
	var partID string
	for _, pid := range u.Partitions() {
		p, _ := u.Partition(pid)
		if p.HomeSite == remote.HomeRegion {
			partID = pid
		}
	}
	if _, err := u.RestoreConsistency(ctx, partID); err != nil {
		t.Fatal(err)
	}

	// All replicas converge; the merge keeps the barring (safety
	// bias) and the newer forwarding target.
	part, _ := u.Partition(partID)
	var entries []store.Entry
	for _, ref := range part.Replicas {
		st := u.Element(ref.Element).Replica(partID).Store
		e, _, ok := st.GetCommitted(remote.ID)
		if !ok {
			t.Fatalf("replica %s lost the row", ref.Element)
		}
		entries = append(entries, e)
	}
	for i := 1; i < len(entries); i++ {
		if !entries[0].Equal(entries[i]) {
			t.Fatalf("replicas diverged:\n%v\n%v", entries[0], entries[i])
		}
	}
	if entries[0].First(subscriber.AttrBarPremium) != "TRUE" {
		t.Fatalf("barring lost in merge: %v", entries[0])
	}
	if entries[0].First(subscriber.AttrForwardUncond) != "34699999999" {
		t.Fatalf("newer write lost in merge: %v", entries[0])
	}
}

func TestScaleOutAddSite(t *testing.T) {
	net, u, profiles := testUDR(t, 30)
	ctx := ctxT(t)
	syncTime, entries, err := u.AddSite(ctx, SiteSpec{Name: "apac", SEs: 1, PartitionsPerSE: 1})
	if err != nil {
		t.Fatal(err)
	}
	if entries == 0 {
		t.Fatal("no entries synced")
	}
	if syncTime <= 0 {
		t.Fatal("no sync time measured")
	}
	// The new PoA serves lookups for pre-existing subscribers.
	fe := NewSession(net, simnet.MakeAddr("apac", "fe"), "apac", PolicyFE)
	p := profiles[0]
	got, _, _, err := fe.ReadProfile(ctx, subscriber.Identity{Type: subscriber.MSISDN, Value: p.MSISDNVal})
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != p.ID {
		t.Fatalf("got %s", got.ID)
	}
	// New partitions exist for the new region.
	found := false
	for _, pid := range u.Partitions() {
		if part, _ := u.Partition(pid); part.HomeSite == "apac" {
			found = true
		}
	}
	if !found {
		t.Fatal("no apac partitions created")
	}
}

func TestCachedLocatorMissFanOut(t *testing.T) {
	net, u, profiles := testUDR(t, 6, func(c *Config) { c.LocatorMode = locator.Cached })
	ctx := ctxT(t)
	// Settle replication: the FE read below may be served by a local
	// slave copy, which is only guaranteed complete once the seeding
	// commits have shipped.
	if err := u.WaitReplication(ctx); err != nil {
		t.Fatal(err)
	}
	site := u.Sites()[0]
	fe := NewSession(net, simnet.MakeAddr(site, "fe"), site, PolicyFE)
	p := profiles[4]
	got, _, _, err := fe.ReadProfile(ctx, subscriber.Identity{Type: subscriber.MSISDN, Value: p.MSISDNVal})
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != p.ID {
		t.Fatalf("got %s", got.ID)
	}
	stage := u.Stage(site)
	if stage.Misses.Value() == 0 || stage.FanOutQueries.Value() == 0 {
		t.Fatalf("expected fan-out: misses=%d queries=%d",
			stage.Misses.Value(), stage.FanOutQueries.Value())
	}
	// Second read hits the cache.
	before := stage.Hits.Value()
	if _, _, _, err := fe.ReadProfile(ctx, subscriber.Identity{Type: subscriber.MSISDN, Value: p.MSISDNVal}); err != nil {
		t.Fatal(err)
	}
	if stage.Hits.Value() != before+1 {
		t.Fatal("cache not used on second read")
	}
}

// TestCachedModeIndexFollowsMaster: only cached location maps send
// FindReq, so only a Cached-mode UDR builds elements that index
// identities, and there every replica indexes. A read by MSISDN at a
// site whose stage has not seen the identity misses and fans out;
// after a failover and again after a migration, the partition's new
// master answers it from its own index, with no rebuild.
func TestCachedModeIndexFollowsMaster(t *testing.T) {
	net, u, partID, target, profiles := migrationUDR(t, 12, func(c *Config) { c.LocatorMode = locator.Cached })
	ctx := ctxT(t)
	if err := u.WaitReplication(ctx); err != nil {
		t.Fatal(err)
	}
	for _, elID := range u.Elements() {
		el := u.Element(elID)
		for _, p := range el.Partitions() {
			if !el.Replica(p).Store.IndexesAttr(subscriber.AttrMSISDN) {
				t.Fatalf("%s/%s: Cached-mode replica does not index identities", elID, p)
			}
		}
	}

	// Provisioning primed only the eu-south stage: eu-north misses.
	stage := u.Stage("eu-north")
	fe := NewSession(net, simnet.MakeAddr("eu-north", "fe"), "eu-north", PolicyFE)
	readViaIndex := func(step string, p *subscriber.Profile) {
		t.Helper()
		misses := stage.Misses.Value()
		got, _, _, err := fe.ReadProfile(ctx, subscriber.Identity{Type: subscriber.MSISDN, Value: p.MSISDNVal})
		if err != nil {
			t.Fatalf("%s: read by MSISDN: %v", step, err)
		}
		if got.ID != p.ID || stage.Misses.Value() != misses+1 {
			t.Fatalf("%s: got %s, misses %d → %d; want %s through one FindReq fan-out",
				step, got.ID, misses, stage.Misses.Value(), p.ID)
		}
		part, _ := u.Partition(partID)
		master := u.Element(part.Master().Element).Replica(partID).Store
		if key, ok := master.LookupByAttr(subscriber.AttrMSISDN, p.MSISDNVal); !ok || key != p.ID {
			t.Fatalf("%s: new master %s index: %q %v", step, part.Master().Element, key, ok)
		}
	}

	before, _ := u.Partition(partID)
	u.Element(before.Master().Element).Crash()
	if _, err := u.Failover(partID); err != nil {
		t.Fatal(err)
	}
	readViaIndex("failover", profiles[0])

	if _, err := u.MigratePartition(ctx, partID, target, false); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if after, _ := u.Partition(partID); after.Master().Element != target {
		t.Fatalf("master = %s, want %s", after.Master().Element, target)
	}
	readViaIndex("migration", profiles[1])
}

// TestProvisionedModeIndexesNothing: with provisioned location maps
// nothing sends FindReq, so no replica store keeps an identity index.
func TestProvisionedModeIndexesNothing(t *testing.T) {
	_, u, _ := testUDR(t, 3)
	for _, elID := range u.Elements() {
		el := u.Element(elID)
		for _, p := range el.Partitions() {
			if attrs := el.Replica(p).Store.IndexedAttrs(); len(attrs) != 0 {
				t.Fatalf("%s/%s indexes %v", elID, p, attrs)
			}
		}
	}
}

func TestDurabilityDualSeq(t *testing.T) {
	net, u, profiles := testUDR(t, 3, func(c *Config) { c.Durability = replication.DualSeq })
	ctx := ctxT(t)
	site := u.Sites()[0]
	ps := NewSession(net, simnet.MakeAddr(site, "ps"), site, PolicyPS)
	p := profiles[0]
	// Normal operation: dual-seq write succeeds.
	if _, err := ps.Exec(ctx, ExecReq{
		Identity: subscriber.Identity{Type: subscriber.IMSI, Value: p.IMSIVal},
		Ops: []se.TxnOp{{Kind: se.TxnModify, Mods: []store.Mod{{
			Kind: store.ModReplace, Attr: subscriber.AttrSMSEnabled, Vals: []string{"FALSE"},
		}}}},
	}); err != nil {
		t.Fatal(err)
	}
	// Isolate the master's site: the first slave is unreachable, so
	// dual-seq commits fail even though the master is writable.
	net.Partition([]string{p.HomeRegion})
	psHome := NewSession(net, simnet.MakeAddr(p.HomeRegion, "ps"), p.HomeRegion, PolicyPS)
	_, err := psHome.Exec(ctx, ExecReq{
		Identity: subscriber.Identity{Type: subscriber.IMSI, Value: p.IMSIVal},
		Ops: []se.TxnOp{{Kind: se.TxnModify, Mods: []store.Mod{{
			Kind: store.ModReplace, Attr: subscriber.AttrSMSEnabled, Vals: []string{"TRUE"},
		}}}},
	})
	net.Heal()
	if err == nil {
		t.Fatal("dual-seq write succeeded with unreachable slave")
	}
}

func TestExecUnknownIdentity(t *testing.T) {
	net, u, _ := testUDR(t, 1)
	ctx := ctxT(t)
	site := u.Sites()[0]
	fe := NewSession(net, simnet.MakeAddr(site, "fe"), site, PolicyFE)
	_, _, _, err := fe.ReadProfile(ctx, subscriber.Identity{Type: subscriber.MSISDN, Value: "nope"})
	if err == nil {
		t.Fatal("unknown identity read succeeded")
	}
}

func TestPoAStatsAccumulate(t *testing.T) {
	net, u, profiles := testUDR(t, 2)
	ctx := ctxT(t)
	site := u.Sites()[0]
	fe := NewSession(net, simnet.MakeAddr(site, "fe"), site, PolicyFE)
	for i := 0; i < 5; i++ {
		fe.ReadProfile(ctx, subscriber.Identity{Type: subscriber.MSISDN, Value: profiles[0].MSISDNVal})
	}
	ap := u.PoA(site)
	if ap.Served.Value() < 5 {
		t.Fatalf("served = %d", ap.Served.Value())
	}
	if ap.Latency.Count() < 5 {
		t.Fatalf("latency samples = %d", ap.Latency.Count())
	}
}
