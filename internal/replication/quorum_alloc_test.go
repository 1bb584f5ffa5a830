package replication

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/trace"
)

// offlineMaster returns a master replica at eu/m whose peers never see
// a record: nothing is committed, so its senders idle and tests drive
// acknowledgements by hand with setAcked.
func offlineMaster(t *testing.T, peers ...simnet.Addr) *Replica {
	t.Helper()
	node := NewNode(nil, simnet.MakeAddr("eu", "m"))
	t.Cleanup(node.Stop)
	r := node.AddReplica("p1", store.New("m"))
	r.SetDurability(Quorum)
	r.SetPeers(peers...)
	return r
}

// setAcked sets a peer's acknowledged CSN and notifies the replica,
// as a completed round trip does.
func setAcked(r *Replica, p simnet.Addr, csn uint64) {
	r.mu.Lock()
	s := r.senders[p]
	r.mu.Unlock()
	s.mu.Lock()
	s.acked = csn
	s.mu.Unlock()
	r.noteAck()
}

// TestQuorumAckAllocs gates the per-acknowledgement quorum refresh: it
// reads the cached peer split and ranks acks on the stack.
func TestQuorumAckAllocs(t *testing.T) {
	local, remote := simnet.MakeAddr("eu", "a"), simnet.MakeAddr("us", "b")
	for _, p := range []QuorumPolicy{Majority(), {Mode: QuorumSiteAware, Local: 1, Remote: 1}} {
		r := offlineMaster(t, local, remote)
		r.SetQuorumPolicy(p)
		r.headCSN.Store(1 << 40)
		var csn uint64
		got := testing.AllocsPerRun(1000, func() {
			csn++
			setAcked(r, local, csn)
			setAcked(r, remote, csn)
		})
		if got != 0 {
			t.Errorf("%s: noteAck = %.1f allocs/ack pair, want 0", p, got)
		}
		if wm := r.QuorumWatermark(); wm != csn {
			t.Errorf("%s: watermark = %d, want %d", p, wm, csn)
		}
	}
}

// TestAckWaitAllocs gates a quorum wait that blocks until an
// acknowledgement: the wait reuses a pooled timer, so the only
// allocation left is the shared ack signal channel. Skipped under the
// race detector, which drops pooled items at random.
func TestAckWaitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	peer := simnet.MakeAddr("us", "b")
	r := offlineMaster(t, peer)
	acks := make(chan uint64)
	defer close(acks)
	go func() {
		for csn := range acks {
			setAcked(r, peer, csn)
		}
	}()
	var csn uint64
	got := testing.AllocsPerRun(1000, func() {
		csn++
		r.headCSN.Store(csn)
		acks <- csn
		if err := r.awaitAcks(csn, nil, Quorum, trace.Ctx{}, nil, time.Time{}); err != nil {
			t.Fatal(err)
		}
	})
	if got > 1 {
		t.Errorf("quorum wait = %.2f allocs/op, want ≤ 1", got)
	}
}

// TestKthAckedProperty checks the stack selection against a sort-based
// reference, over empty and oversized requirements and past the
// 16-sender stack buffer.
func TestKthAckedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		n := rng.Intn(40)
		senders := make([]*sender, n)
		acked := make([]uint64, n)
		for i := range senders {
			acked[i] = uint64(rng.Intn(8)) // small range: many ties
			senders[i] = &sender{acked: acked[i]}
		}
		slices.Sort(acked)
		slices.Reverse(acked)
		for k := -1; k <= n+1; k++ {
			want := uint64(0)
			switch {
			case k <= 0:
				want = ^uint64(0)
			case k <= n:
				want = acked[k-1]
			}
			if got := kthAcked(senders, k); got != want {
				t.Fatalf("kthAcked(%v, %d) = %d, want %d", acked, k, got, want)
			}
		}
	}
}

// TestEligibleCacheProperty drives random peer-set changes, policy
// changes and acknowledgements, and after each step checks QuorumSize
// and the re-evaluated watermark against a from-scratch recomputation
// over the replica's peers and senders.
func TestEligibleCacheProperty(t *testing.T) {
	addrs := []simnet.Addr{
		simnet.MakeAddr("eu", "a"), simnet.MakeAddr("eu", "b"),
		simnet.MakeAddr("us", "c"), simnet.MakeAddr("us", "d"),
		simnet.MakeAddr("apac", "e"),
	}
	policies := []QuorumPolicy{
		Majority(),
		{Mode: QuorumCount, K: 1}, {Mode: QuorumCount, K: 3},
		{Mode: QuorumSiteAware, Local: 1, Remote: 1},
		{Mode: QuorumSiteAware, Local: 2, Remote: 2},
		{Mode: QuorumSiteAware, Local: 0, Remote: 1},
	}
	const head = 100
	rng := rand.New(rand.NewSource(2))
	for run := 0; run < 50; run++ {
		r := offlineMaster(t)
		r.headCSN.Store(head)
		var wantWM uint64
		for step := 0; step < 40; step++ {
			p := addrs[rng.Intn(len(addrs))]
			switch rng.Intn(6) {
			case 0:
				var peers []simnet.Addr
				for _, a := range addrs {
					if rng.Intn(2) == 0 {
						peers = append(peers, a)
					}
				}
				r.SetPeers(peers...)
			case 1:
				r.AddStandbyPeer(p)
			case 2:
				r.RemovePeer(p)
			case 3:
				r.stopSenders()
			case 4:
				r.SetQuorumPolicy(policies[rng.Intn(len(policies))])
			default:
				r.mu.Lock()
				_, ok := r.senders[p]
				r.mu.Unlock()
				if ok {
					setAcked(r, p, uint64(rng.Intn(head+20)))
				}
			}
			// Re-evaluate as the next ack would: not every peer change
			// refreshes the watermark itself (stopping senders must not
			// complete a pending quorum).
			r.noteAck()
			size, wm := referenceQuorum(r)
			wantWM = max(wantWM, min(wm, head))
			if got := r.QuorumSize(); got != size {
				t.Fatalf("run %d step %d: QuorumSize = %d, want %d", run, step, got, size)
			}
			if got := r.QuorumWatermark(); got != wantWM {
				t.Fatalf("run %d step %d: watermark = %d, want %d", run, step, got, wantWM)
			}
		}
	}
}

// referenceQuorum recomputes the quorum size and the current ack
// frontier from scratch: the non-standby senders of r's peers, split by
// the master's site, ranked by a full sort.
func referenceQuorum(r *Replica) (size int, wm uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var local, remote []uint64
	for _, p := range r.peers {
		s, ok := r.senders[p]
		if !ok || s.standby {
			continue
		}
		if p.Site() == r.node.addr.Site() {
			local = append(local, s.ackedCSN())
		} else {
			remote = append(remote, s.ackedCSN())
		}
	}
	kth := func(acked []uint64, k int) uint64 {
		if k <= 0 {
			return ^uint64(0)
		}
		if k > len(acked) {
			return 0
		}
		acked = slices.Clone(acked)
		slices.Sort(acked)
		return acked[len(acked)-k]
	}
	all := append(slices.Clone(local), remote...)
	switch pol := r.policy; pol.Mode {
	case QuorumCount:
		k := min(pol.K, len(all))
		return k + 1, kth(all, k)
	case QuorumSiteAware:
		nl := min(max(pol.Local-1, 0), len(local))
		nr := min(pol.Remote, len(remote))
		return nl + nr + 1, min(kth(local, nl), kth(remote, nr))
	default:
		k := (len(all)+1)/2 + 1 - 1
		return k + 1, kth(all, k)
	}
}
