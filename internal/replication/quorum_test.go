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

func TestParseQuorumPolicy(t *testing.T) {
	cases := []struct {
		in   string
		want QuorumPolicy
	}{
		{"majority", QuorumPolicy{Mode: QuorumMajority}},
		{"", QuorumPolicy{Mode: QuorumMajority}},
		{"k=2", QuorumPolicy{Mode: QuorumCount, K: 2}},
		{"count=3", QuorumPolicy{Mode: QuorumCount, K: 3}},
		{"site", QuorumPolicy{Mode: QuorumSiteAware, Local: 1, Remote: 1}},
		{"site:2+1", QuorumPolicy{Mode: QuorumSiteAware, Local: 2, Remote: 1}},
	}
	for _, c := range cases {
		got, err := ParseQuorumPolicy(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseQuorumPolicy(%q) = %+v, %v; want %+v", c.in, got, err, c.want)
		}
		if rt, err := ParseQuorumPolicy(got.String()); err != nil || rt != got {
			t.Errorf("round trip %q -> %q failed: %+v, %v", c.in, got, rt, err)
		}
	}
	for _, bad := range []string{"k=0", "k=x", "site:+1", "site:1", "site:-1+1", "best-effort"} {
		if _, err := ParseQuorumPolicy(bad); err == nil {
			t.Errorf("ParseQuorumPolicy(%q) accepted", bad)
		}
	}
}

// wanRig is a three-copy rig with one slave near the master (us, 2ms
// each way) and one far (apac, 30ms). The durability deadline is a
// second, so a sender starved on a loaded box delays a commit rather
// than refusing it.
func wanRig(t *testing.T) (r *rig, near, far simnet.Addr) {
	r = newTunedRig(t, 2, func(n *Node) { n.CallTimeout = time.Second }, "eu", "us", "apac")
	r.net.SetLink("eu", "us", simnet.Link{Latency: 2 * time.Millisecond})
	r.net.SetLink("eu", "apac", simnet.Link{Latency: 30 * time.Millisecond})
	peers := r.master.Peers()
	return r, peers[0], peers[1]
}

// ackedBy reports, at one instant, which peers have acknowledged csn.
func ackedBy(r *Replica, csn uint64) map[simnet.Addr]bool {
	out := map[simnet.Addr]bool{}
	for _, s := range r.SenderStats() {
		out[s.Peer] = s.AckedCSN >= csn
	}
	return out
}

func TestQuorumMajorityPaysMedianNotMax(t *testing.T) {
	// A majority quorum (master + 1 slave) completes on the near
	// slave's ack: when Commit returns, the near peer has acknowledged
	// the record and the far one, a 60ms round trip away, has not.
	r, near, far := wanRig(t)
	r.master.SetDurability(Quorum)
	for i := 0; i < 5; i++ {
		rec := r.commit(t, fmt.Sprintf("k%d", i), "v")
		if got := ackedBy(r.master, rec.CSN); !got[near] || got[far] {
			t.Fatalf("commit %d returned with acks near=%v far=%v, want near only", rec.CSN, got[near], got[far])
		}
		if wm := r.master.QuorumWatermark(); wm < rec.CSN {
			t.Fatalf("watermark %d < committed CSN %d", wm, rec.CSN)
		}
	}
	if got := r.master.QuorumSize(); got != 2 {
		t.Fatalf("QuorumSize = %d, want 2 (majority of 3)", got)
	}
}

func TestQuorumSyncAllWaitsForEveryPeer(t *testing.T) {
	// Sync-all (§5) pays the slowest replica: when Commit returns, both
	// peers have acknowledged the record.
	r, near, far := wanRig(t)
	r.master.SetDurability(SyncAll)
	for i := 0; i < 5; i++ {
		rec := r.commit(t, fmt.Sprintf("k%d", i), "v")
		if got := ackedBy(r.master, rec.CSN); !got[near] || !got[far] {
			t.Fatalf("commit %d returned with acks near=%v far=%v, want both", rec.CSN, got[near], got[far])
		}
	}
}

func TestQuorumAsyncWaitsForNothing(t *testing.T) {
	// The paper's async default (§3.3.1) acknowledges on the local
	// commit: with both peers cut off, every commit still succeeds.
	r, near, far := wanRig(t)
	r.master.SetDurability(Async)
	r.net.Partition([]string{"us", "apac"})
	for i := 0; i < 5; i++ {
		rec := r.commit(t, fmt.Sprintf("k%d", i), "v")
		if got := ackedBy(r.master, rec.CSN); got[near] || got[far] {
			t.Fatalf("commit %d acked across a partition: near=%v far=%v", rec.CSN, got[near], got[far])
		}
	}
}

func TestQuorumLiveWithReplicaDown(t *testing.T) {
	// sync-all stalls when any peer is down; a majority quorum keeps
	// committing.
	r := newRig(t, 2, "eu", "us", "apac")
	r.master.SetDurability(Quorum)
	r.net.Partition([]string{"apac"})

	rec := r.commit(t, "k1", "v1")
	waitFor(t, func() bool { return r.master.QuorumWatermark() >= rec.CSN }, "quorum with peer down")

	r.master.SetDurability(SyncAll)
	txn := r.master.Store().Begin(store.ReadCommitted)
	txn.Put("k2", store.Entry{"v": {"v2"}})
	if _, err := txn.Commit(); !errors.Is(err, ErrDurability) {
		t.Fatalf("sync-all with peer down: err = %v, want ErrDurability", err)
	}
}

func TestQuorumCountKofNAckAfterTimeout(t *testing.T) {
	// k=2 with one slave partitioned away: the commit misses its
	// durability deadline, but the record stays applied and the late
	// ack still completes the quorum after the heal.
	r := newTunedRig(t, 2, func(n *Node) { n.CallTimeout = 20 * time.Millisecond },
		"eu", "us", "apac")
	r.master.SetDurability(Quorum)
	r.master.SetQuorumPolicy(QuorumPolicy{Mode: QuorumCount, K: 2})
	r.net.Partition([]string{"apac"})

	txn := r.master.Store().Begin(store.ReadCommitted)
	txn.Put("k1", store.Entry{"v": {"v1"}})
	rec, err := txn.Commit()
	if !errors.Is(err, ErrDurability) {
		t.Fatalf("k=2 with a peer down: err = %v, want ErrDurability", err)
	}
	if _, _, ok := r.master.Store().GetCommitted("k1"); !ok {
		t.Fatal("timed-out quorum commit lost locally")
	}
	if wm := r.master.QuorumWatermark(); wm >= rec.CSN {
		t.Fatalf("watermark %d covers CSN %d before the quorum exists", wm, rec.CSN)
	}

	r.net.Heal()
	waitFor(t, func() bool { return r.master.QuorumWatermark() >= rec.CSN }, "late ack completes quorum")
}

func TestQuorumSiteAware(t *testing.T) {
	// Master in eu with a local eu slave and two remote slaves. A
	// site:2+1 policy needs the local slave AND one remote: local acks
	// alone must not complete the quorum.
	r := newTunedRig(t, 3, func(n *Node) { n.CallTimeout = 20 * time.Millisecond },
		"eu", "eu", "us", "apac")
	r.master.SetDurability(Quorum)
	r.master.SetQuorumPolicy(QuorumPolicy{Mode: QuorumSiteAware, Local: 2, Remote: 1})
	if got := r.master.QuorumSize(); got != 3 {
		t.Fatalf("QuorumSize = %d, want 3 (2 local + 1 remote)", got)
	}

	// Cut eu off: the local slave acks, no remote can.
	r.net.Partition([]string{"eu"})
	txn := r.master.Store().Begin(store.ReadCommitted)
	txn.Put("k1", store.Entry{"v": {"v1"}})
	if _, err := txn.Commit(); !errors.Is(err, ErrDurability) {
		t.Fatalf("site-aware quorum with remotes cut: err = %v, want ErrDurability", err)
	}

	// One remote reachable is enough; the other may stay away.
	r.net.PartitionGroups([]string{"eu", "us"}, []string{"apac"})
	rec := r.commit(t, "k2", "v2")
	waitFor(t, func() bool { return r.master.QuorumWatermark() >= rec.CSN },
		"local + one remote completes site-aware quorum")
}

func TestQuorumPeerChangeMidWait(t *testing.T) {
	// Removing a dead peer mid-wait shrinks n and completes a pending
	// quorum from acks already received.
	r := newRig(t, 2, "eu", "us", "apac")
	r.master.SetDurability(Quorum)
	r.master.SetQuorumPolicy(QuorumPolicy{Mode: QuorumCount, K: 2})
	apac := r.nodes[2].Addr()
	r.net.Partition([]string{"apac"})

	done := make(chan error, 1)
	go func() {
		txn := r.master.Store().Begin(store.ReadCommitted)
		txn.Put("k1", store.Entry{"v": {"v1"}})
		_, err := txn.Commit()
		done <- err
	}()

	// Let the live slave ack, then drop the dead peer.
	waitFor(t, func() bool {
		for _, st := range r.master.SenderStats() {
			if st.Peer != apac && st.AckedCSN >= 1 {
				return true
			}
		}
		return false
	}, "live slave ack")
	r.master.RemovePeer(apac)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("commit after dead-peer removal: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("quorum wait did not re-evaluate after RemovePeer")
	}

	// Replacing the peer set mid-wait must not strand the waiter: the
	// commit record was queued to the old senders, so the wait times
	// out with ErrDurability instead of hanging.
	r.net.Partition([]string{"us", "apac"})
	go func() {
		txn := r.master.Store().Begin(store.ReadCommitted)
		txn.Put("k2", store.Entry{"v": {"v2"}})
		_, err := txn.Commit()
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	r.master.SetPeers(r.nodes[1].Addr(), r.nodes[2].Addr())
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, ErrDurability) {
			t.Fatalf("commit across SetPeers: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("quorum wait hung across SetPeers")
	}
}

func TestQuorumWatermarkLagAndWaitQuorum(t *testing.T) {
	// A partitioned straggler accumulates watermark lag while quorum
	// commits proceed; WaitQuorum returns where WaitCaughtUp times out.
	r := newRig(t, 2, "eu", "us", "apac")
	r.master.SetDurability(Quorum)
	apac := r.nodes[2].Addr()
	r.net.Partition([]string{"apac"})

	var last *store.CommitRecord
	for i := 0; i < 5; i++ {
		last = r.commit(t, "k", "v")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := r.master.WaitQuorum(ctx); err != nil {
		t.Fatalf("WaitQuorum with straggler: %v", err)
	}
	if wm := r.master.QuorumWatermark(); wm != last.CSN {
		t.Fatalf("watermark = %d, want %d", wm, last.CSN)
	}
	if lag := r.master.WatermarkLag()[apac]; lag != last.CSN {
		t.Fatalf("straggler watermark lag = %d, want %d", lag, last.CSN)
	}

	short, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	if err := r.master.WaitCaughtUp(short); err == nil {
		t.Fatal("WaitCaughtUp returned with a straggler behind")
	}
}

func TestQuorumNoPeersIsLocal(t *testing.T) {
	// A single-copy partition under Quorum durability commits locally:
	// the master is the whole quorum.
	n := simnet.New(simnet.FastConfig())
	node := NewNode(n, simnet.MakeAddr("eu", "m"))
	defer node.Stop()
	rep := node.AddReplica("p1", store.New("m"))
	rep.SetDurability(Quorum)

	txn := rep.Store().Begin(store.ReadCommitted)
	txn.Put("k1", store.Entry{"v": {"v1"}})
	rec, err := txn.Commit()
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	if wm := rep.QuorumWatermark(); wm != rec.CSN {
		t.Fatalf("watermark = %d, want %d", wm, rec.CSN)
	}
}

func TestInFlightWindowShedsStraggler(t *testing.T) {
	r := newTunedRig(t, 2, func(n *Node) { n.InFlightWindow = 8 },
		"eu", "us", "apac")
	r.master.SetDurability(Quorum)
	apac := r.nodes[2].Addr()
	straggler := r.slaves[1]
	r.net.Partition([]string{"apac"})

	var last *store.CommitRecord
	for i := 0; i < 50; i++ {
		last = r.commit(t, "k", "v")
	}
	waitFor(t, func() bool { return r.master.QuorumWatermark() >= last.CSN }, "quorum progress")

	// Nothing was delivered to the partitioned peer, so the window
	// settles at exactly 8 queued records with the other 42 shed.
	waitFor(t, func() bool {
		for _, st := range r.master.SenderStats() {
			if st.Peer == apac {
				return st.Shed == 42 && st.QueueDepth == 8
			}
		}
		return false
	}, "window sheds the straggler's backlog")

	// Heal: the gapped stream stays stuck until a repair primes the
	// watermark (anti-entropy's WatermarkReq does this in production).
	r.net.Heal()
	time.Sleep(20 * time.Millisecond)
	if straggler.Store().AppliedCSN() != 0 {
		t.Fatal("gapped stream applied records out of order")
	}
	straggler.Store().SetAppliedCSN(last.CSN - 8)
	waitFor(t, func() bool {
		for _, st := range r.master.SenderStats() {
			if st.Peer == apac {
				return st.AckedCSN == last.CSN
			}
		}
		return false
	}, "re-attached straggler drains the window")
}
