package replication

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/store"
)

// rig builds a master and N slaves for one partition over a fast
// simnet, wiring slave nodes' handlers.
type rig struct {
	net    *simnet.Network
	master *Replica
	slaves []*Replica
	nodes  []*Node
}

func newRig(t *testing.T, slaves int, sites ...string) *rig {
	return newTunedRig(t, slaves, nil, sites...)
}

// newTunedRig is newRig with a per-node tuning hook that runs before
// any sender goroutine starts, so tests can set Node knobs without
// racing the background senders.
func newTunedRig(t *testing.T, slaves int, tune func(*Node), sites ...string) *rig {
	t.Helper()
	if len(sites) != slaves+1 {
		t.Fatalf("need %d sites", slaves+1)
	}
	n := simnet.New(simnet.FastConfig())
	r := &rig{net: n}

	newNode := func(site, name string) *Node {
		addr := simnet.MakeAddr(site, name)
		node := NewNode(n, addr)
		node.RetryInterval = time.Millisecond
		node.CallTimeout = 100 * time.Millisecond
		if tune != nil {
			tune(node)
		}
		n.Register(addr, func(ctx context.Context, from simnet.Addr, msg any) (any, error) {
			resp, handled, err := node.HandleMessage(ctx, from, msg)
			if !handled {
				return nil, fmt.Errorf("unhandled %T", msg)
			}
			return resp, err
		})
		return node
	}

	masterNode := newNode(sites[0], "m")
	ms := store.New("m")
	r.master = masterNode.AddReplica("p1", ms)
	r.nodes = append(r.nodes, masterNode)

	var peerAddrs []simnet.Addr
	for i := 0; i < slaves; i++ {
		node := newNode(sites[i+1], fmt.Sprintf("s%d", i))
		ss := store.New(fmt.Sprintf("s%d", i))
		ss.SetRole(store.Slave)
		rep := node.AddReplica("p1", ss)
		r.slaves = append(r.slaves, rep)
		r.nodes = append(r.nodes, node)
		peerAddrs = append(peerAddrs, node.Addr())
	}
	r.master.SetPeers(peerAddrs...)
	t.Cleanup(func() {
		for _, node := range r.nodes {
			node.Stop()
		}
	})
	return r
}

func (r *rig) commit(t *testing.T, key, val string) *store.CommitRecord {
	t.Helper()
	txn := r.master.Store().Begin(store.ReadCommitted)
	txn.Put(key, store.Entry{"v": {val}})
	rec, err := txn.Commit()
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	return rec
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("timeout: " + msg)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAsyncReplicationDelivers(t *testing.T) {
	r := newRig(t, 2, "eu", "us", "apac")
	for i := 0; i < 10; i++ {
		r.commit(t, fmt.Sprintf("k%d", i), fmt.Sprint(i))
	}
	for _, s := range r.slaves {
		s := s
		waitFor(t, func() bool { return s.Store().AppliedCSN() == 10 }, "slave catch-up")
		e, _, ok := s.Store().GetCommitted("k7")
		if !ok || e.First("v") != "7" {
			t.Fatalf("slave row = %v %v", e, ok)
		}
	}
}

func TestAsyncCommitDoesNotWait(t *testing.T) {
	// Async commit latency must not include the backbone RTT
	// (§3.3.1 decision 2).
	cfg := simnet.FastConfig()
	cfg.Backbone.Latency = 20 * time.Millisecond
	n := simnet.New(cfg)
	node := NewNode(n, simnet.MakeAddr("eu", "m"))
	defer node.Stop()
	ms := store.New("m")
	rep := node.AddReplica("p1", ms)

	snode := NewNode(n, simnet.MakeAddr("us", "s"))
	defer snode.Stop()
	ss := store.New("s")
	ss.SetRole(store.Slave)
	snode.AddReplica("p1", ss)
	n.Register(snode.Addr(), func(ctx context.Context, from simnet.Addr, msg any) (any, error) {
		resp, _, err := snode.HandleMessage(ctx, from, msg)
		return resp, err
	})
	rep.SetPeers(snode.Addr())

	start := time.Now()
	txn := ms.Begin(store.ReadCommitted)
	txn.Put("k", store.Entry{"v": {"1"}})
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Fatalf("async commit took %v (waited for backbone?)", d)
	}
}

func TestOrderPreservedAcrossPartition(t *testing.T) {
	// Commits during a partition must arrive at the slave in CSN
	// order after healing (§3.2's serialization-order guarantee).
	r := newRig(t, 1, "eu", "us")
	r.commit(t, "k1", "1")
	waitFor(t, func() bool { return r.slaves[0].Store().AppliedCSN() == 1 }, "pre-partition sync")

	r.net.Partition([]string{"eu"})
	for i := 2; i <= 6; i++ {
		r.commit(t, fmt.Sprintf("k%d", i), fmt.Sprint(i))
	}
	time.Sleep(10 * time.Millisecond)
	if got := r.slaves[0].Store().AppliedCSN(); got != 1 {
		t.Fatalf("slave advanced during partition: %d", got)
	}

	r.net.Heal()
	waitFor(t, func() bool { return r.slaves[0].Store().AppliedCSN() == 6 }, "post-heal catch-up")
	for i := 1; i <= 6; i++ {
		e, _, ok := r.slaves[0].Store().GetCommitted(fmt.Sprintf("k%d", i))
		if !ok || e.First("v") != fmt.Sprint(i) {
			t.Fatalf("k%d = %v %v", i, e, ok)
		}
	}
}

func TestLagTracking(t *testing.T) {
	r := newRig(t, 1, "eu", "us")
	r.net.Partition([]string{"eu"})
	for i := 0; i < 5; i++ {
		r.commit(t, fmt.Sprintf("k%d", i), "x")
	}
	lag := r.master.Lag()
	if lag[r.nodes[1].Addr()] != 5 {
		t.Fatalf("lag = %v, want 5", lag)
	}
	r.net.Heal()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.master.WaitCaughtUp(ctx); err != nil {
		t.Fatal(err)
	}
	lag = r.master.Lag()
	if lag[r.nodes[1].Addr()] != 0 {
		t.Fatalf("lag after catch-up = %v", lag)
	}
}

func TestDualSeqFailsWhenSlaveUnreachable(t *testing.T) {
	// §5: dual-in-sequence commits only when both replicas report
	// success; the master keeps the data on failure.
	r := newRig(t, 1, "eu", "us")
	r.master.SetDurability(DualSeq)

	// Reachable: commit succeeds.
	r.commit(t, "k1", "1")

	r.net.Partition([]string{"eu"})
	txn := r.master.Store().Begin(store.ReadCommitted)
	txn.Put("k2", store.Entry{"v": {"2"}})
	_, err := txn.Commit()
	if !errors.Is(err, ErrDurability) {
		t.Fatalf("err = %v, want ErrDurability", err)
	}
	// Master keeps the data ("leaving just one of the replicas
	// updated is acceptable").
	if _, _, ok := r.master.Store().GetCommitted("k2"); !ok {
		t.Fatal("master lost the data")
	}
	r.net.Heal()
	// After healing the stranded record still reaches the slave
	// (background sender keeps the queue).
	waitFor(t, func() bool { return r.slaves[0].Store().AppliedCSN() == 2 }, "stranded record delivery")
}

func TestSyncAllWaitsForEverySlave(t *testing.T) {
	r := newRig(t, 2, "eu", "us", "apac")
	r.master.SetDurability(SyncAll)
	r.commit(t, "k1", "1")
	// Both slaves must already have the record when commit returned.
	for i, s := range r.slaves {
		if s.Store().AppliedCSN() != 1 {
			t.Fatalf("slave %d applied = %d at commit return", i, s.Store().AppliedCSN())
		}
	}
}

func TestPromoteContinuesSequence(t *testing.T) {
	r := newRig(t, 1, "eu", "us")
	for i := 0; i < 5; i++ {
		r.commit(t, fmt.Sprintf("k%d", i), "x")
	}
	waitFor(t, func() bool { return r.slaves[0].Store().AppliedCSN() == 5 }, "sync")

	// Master dies; slave promotes.
	r.net.SetDown(r.nodes[0].Addr(), true)
	r.slaves[0].Promote()
	if r.slaves[0].Store().Role() != store.Master {
		t.Fatal("not promoted")
	}
	txn := r.slaves[0].Store().Begin(store.ReadCommitted)
	txn.Put("k5", store.Entry{"v": {"5"}})
	rec, err := txn.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if rec.CSN != 6 {
		t.Fatalf("promoted CSN = %d, want 6", rec.CSN)
	}
}

func TestMultiMasterConvergence(t *testing.T) {
	// Two multi-master replicas accept writes during a partition,
	// diverge, and converge after anti-entropy (§5).
	n := simnet.New(simnet.FastConfig())
	mk := func(site, id string) (*Node, *Replica) {
		node := NewNode(n, simnet.MakeAddr(site, id))
		node.RetryInterval = time.Millisecond
		st := store.New(id)
		st.SetMultiMaster(true)
		rep := node.AddReplica("p1", st)
		rep.SetResolver(LWW{})
		n.Register(node.Addr(), func(ctx context.Context, from simnet.Addr, msg any) (any, error) {
			resp, _, err := node.HandleMessage(ctx, from, msg)
			return resp, err
		})
		return node, rep
	}
	nodeA, repA := mk("eu", "a")
	nodeB, repB := mk("us", "b")
	defer nodeA.Stop()
	defer nodeB.Stop()
	repA.SetPeers(nodeB.Addr())
	repB.SetPeers(nodeA.Addr())

	n.Partition([]string{"eu"})

	// Conflicting writes on both sides.
	txn := repA.Store().Begin(store.ReadCommitted)
	txn.Put("k", store.Entry{"v": {"from-a"}})
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond) // ensure b's write is later (LWW winner)
	txn = repB.Store().Begin(store.ReadCommitted)
	txn.Put("k", store.Entry{"v": {"from-b"}})
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	n.Heal()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Consistency restoration: pull in both directions.
	if _, err := repA.SyncWith(ctx, nodeB.Addr()); err != nil {
		t.Fatal(err)
	}
	if _, err := repB.SyncWith(ctx, nodeA.Addr()); err != nil {
		t.Fatal(err)
	}

	ea, _, _ := repA.Store().GetCommitted("k")
	eb, _, _ := repB.Store().GetCommitted("k")
	if !ea.Equal(eb) {
		t.Fatalf("replicas diverged: %v vs %v", ea, eb)
	}
	if ea.First("v") != "from-b" {
		t.Fatalf("LWW winner = %v, want from-b", ea)
	}
	if repA.Conflicts.Value()+repB.Conflicts.Value() == 0 {
		t.Fatal("no conflict recorded")
	}
}

func TestMultiMasterAsyncPropagation(t *testing.T) {
	// Without a partition, multi-master writes propagate to peers
	// through the normal background senders.
	n := simnet.New(simnet.FastConfig())
	nodeA := NewNode(n, simnet.MakeAddr("eu", "a"))
	nodeB := NewNode(n, simnet.MakeAddr("us", "b"))
	defer nodeA.Stop()
	defer nodeB.Stop()
	stA, stB := store.New("a"), store.New("b")
	stA.SetMultiMaster(true)
	stB.SetMultiMaster(true)
	repA := nodeA.AddReplica("p1", stA)
	repB := nodeB.AddReplica("p1", stB)
	for _, pair := range []struct {
		node *Node
	}{{nodeA}, {nodeB}} {
		node := pair.node
		n.Register(node.Addr(), func(ctx context.Context, from simnet.Addr, msg any) (any, error) {
			resp, _, err := node.HandleMessage(ctx, from, msg)
			return resp, err
		})
	}
	repA.SetPeers(nodeB.Addr())
	repB.SetPeers(nodeA.Addr())

	txn := stA.Begin(store.ReadCommitted)
	txn.Put("k", store.Entry{"v": {"hello"}})
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		e, _, ok := stB.GetCommitted("k")
		return ok && e.First("v") == "hello"
	}, "multi-master propagation")
}

func TestSubscriberMergeBarringOr(t *testing.T) {
	// §3.2's pay-call barring example: a concurrent un-bar and bar
	// must resolve to barred (safety bias).
	a := store.Entry{
		"objectClass": {"udrSubscription"},
		"barPremium":  {"TRUE"},
		"sqn":         {"5"},
	}
	b := store.Entry{
		"objectClass": {"udrSubscription"},
		"barPremium":  {"FALSE"},
		"sqn":         {"9"},
	}
	am := store.Meta{WallTS: 100}
	bm := store.Meta{WallTS: 200} // b is newer (would win LWW)
	merged, _ := SubscriberMerge{}.Resolve("k", a, am, b, bm)
	if merged.First("barPremium") != "TRUE" {
		t.Fatalf("barPremium = %v, want TRUE (safety bias)", merged.First("barPremium"))
	}
	if merged.First("sqn") != "9" {
		t.Fatalf("sqn = %v, want max 9", merged.First("sqn"))
	}
}

func TestSubscriberMergeDeterministicSymmetric(t *testing.T) {
	a := store.Entry{"objectClass": {"udrSubscription"}, "sqn": {"3"}, "cfu": {"123"}}
	b := store.Entry{"objectClass": {"udrSubscription"}, "sqn": {"7"}}
	am := store.Meta{WallTS: 100}
	bm := store.Meta{WallTS: 100, CSN: 2} // tie on WallTS
	m1, _ := SubscriberMerge{}.Resolve("k", a, am, b, bm)
	m2, _ := SubscriberMerge{}.Resolve("k", b, bm, a, am)
	if !m1.Equal(m2) {
		t.Fatalf("merge not symmetric: %v vs %v", m1, m2)
	}
}

func TestLWWTombstone(t *testing.T) {
	alive := store.Entry{"v": {"1"}}
	am := store.Meta{WallTS: 100}
	bm := store.Meta{WallTS: 200, Tombstone: true}
	merged, mm := LWW{}.Resolve("k", alive, am, nil, bm)
	if !mm.Tombstone {
		t.Fatalf("newer delete should win: %v %v", merged, mm)
	}
}

func TestHandleMessageUnknownPartition(t *testing.T) {
	n := simnet.New(simnet.FastConfig())
	node := NewNode(n, simnet.MakeAddr("eu", "x"))
	defer node.Stop()
	_, handled, err := node.HandleMessage(context.Background(), "eu/y",
		&ApplyMsg{Partition: "nope", Recs: []*store.CommitRecord{{CSN: 1}}})
	if !handled || err == nil {
		t.Fatalf("unknown partition: handled=%v err=%v", handled, err)
	}
	resp, handled, err := node.HandleMessage(context.Background(), "eu/y", "not-replication")
	if handled || err != nil || resp != nil {
		t.Fatal("foreign message should pass through")
	}
}

// TestStandbyPeerExcludedFromDurabilityWait pins the migration
// bulk-copy contract: a standby peer (gap-stuck until its watermark
// is primed) must not gate synchronous commit durability, while the
// regular peers still must.
func TestStandbyPeerExcludedFromDurabilityWait(t *testing.T) {
	r := newRig(t, 1, "eu", "us")
	r.master.SetDurability(SyncAll)
	// A standby peer at an address nobody serves: its sender can
	// never deliver, exactly like a migration target mid-copy.
	r.master.AddStandbyPeer(simnet.MakeAddr("eu", "nobody"))

	txn := r.master.Store().Begin(store.ReadCommitted)
	txn.Put("k", store.Entry{"v": {"1"}})
	if _, err := txn.Commit(); err != nil {
		t.Fatalf("sync-all commit gated by standby peer: %v", err)
	}
	if applied := r.slaves[0].Store().AppliedCSN(); applied != 1 {
		t.Fatalf("regular peer did not confirm: applied=%d", applied)
	}
	// RemovePeer detaches only the named peer; the standby one stays
	// listed but still must not gate the (now peerless) wait.
	r.master.RemovePeer(r.nodes[1].Addr())
	txn = r.master.Store().Begin(store.ReadCommitted)
	txn.Put("k2", store.Entry{"v": {"2"}})
	if _, err := txn.Commit(); err != nil {
		t.Fatalf("commit with only a standby peer: %v", err)
	}
}
