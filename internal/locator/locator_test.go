package locator

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/simnet"
	"repro/internal/subscriber"
)

func id(t subscriber.IdentityType, v string) subscriber.Identity {
	return subscriber.Identity{Type: t, Value: v}
}

func TestStageLookup(t *testing.T) {
	s := NewStage("eu", Provisioned, true)
	ids := []subscriber.Identity{
		id(subscriber.IMSI, "21401000000001"),
		id(subscriber.MSISDN, "34600000001"),
	}
	s.PutProfile(ids, Placement{SubscriberID: "sub-1", Partition: "p-eu-0"})

	for _, i := range ids {
		p, err := s.Lookup(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
		if p.SubscriberID != "sub-1" || p.Partition != "p-eu-0" {
			t.Fatalf("placement = %+v", p)
		}
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Hits.Value() != 2 {
		t.Fatalf("hits = %d", s.Hits.Value())
	}
}

func TestStageMissProvisioned(t *testing.T) {
	s := NewStage("eu", Provisioned, true)
	_, err := s.Lookup(context.Background(), id(subscriber.IMSI, "nope"))
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if s.Misses.Value() != 1 {
		t.Fatalf("misses = %d", s.Misses.Value())
	}
}

func TestStageRemove(t *testing.T) {
	s := NewStage("eu", Provisioned, true)
	ids := []subscriber.Identity{id(subscriber.IMSI, "1")}
	s.PutProfile(ids, Placement{SubscriberID: "sub-1", Partition: "p"})
	s.RemoveProfile(ids)
	if _, err := s.Lookup(context.Background(), ids[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestStageNotReady(t *testing.T) {
	s := NewStage("new-site", Provisioned, false)
	if s.Ready() {
		t.Fatal("unsynced provisioned stage should not be ready")
	}
	_, err := s.Lookup(context.Background(), id(subscriber.IMSI, "1"))
	if !errors.Is(err, ErrNotReady) {
		t.Fatalf("err = %v", err)
	}
}

func TestCachedStageStartsReady(t *testing.T) {
	s := NewStage("new-site", Cached, false)
	if !s.Ready() {
		t.Fatal("cached stage should start ready (no sync needed, §3.5)")
	}
}

func TestCachedMissResolvesAndCaches(t *testing.T) {
	s := NewStage("eu", Cached, false)
	calls := 0
	s.SetMissResolver(func(ctx context.Context, i subscriber.Identity) (Placement, int, error) {
		calls++
		return Placement{SubscriberID: "sub-1", Partition: "p-x"}, 7, nil
	})
	p, err := s.Lookup(context.Background(), id(subscriber.MSISDN, "34600000001"))
	if err != nil || p.Partition != "p-x" {
		t.Fatalf("lookup: %v %v", p, err)
	}
	if s.FanOutQueries.Value() != 7 {
		t.Fatalf("fan-out = %d", s.FanOutQueries.Value())
	}
	// Second lookup must hit the cache.
	if _, err := s.Lookup(context.Background(), id(subscriber.MSISDN, "34600000001")); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("resolver called %d times", calls)
	}
	if s.Hits.Value() != 1 || s.Misses.Value() != 1 {
		t.Fatalf("hits=%d misses=%d", s.Hits.Value(), s.Misses.Value())
	}
}

func TestCachedMissResolverError(t *testing.T) {
	s := NewStage("eu", Cached, false)
	boom := errors.New("boom")
	s.SetMissResolver(func(ctx context.Context, i subscriber.Identity) (Placement, int, error) {
		return Placement{}, 3, boom
	})
	if _, err := s.Lookup(context.Background(), id(subscriber.IMSI, "x")); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestSyncFromPeer(t *testing.T) {
	net := simnet.New(simnet.FastConfig())
	peer := NewStage("eu", Provisioned, true)
	for i := 0; i < 100; i++ {
		peer.PutProfile(
			[]subscriber.Identity{id(subscriber.IMSI, fmt.Sprintf("imsi-%03d", i))},
			Placement{SubscriberID: fmt.Sprintf("sub-%03d", i), Partition: "p-eu-0"})
	}
	peerAddr := simnet.MakeAddr("eu", "locator")
	net.Register(peerAddr, func(ctx context.Context, from simnet.Addr, msg any) (any, error) {
		resp, handled, err := peer.HandleMessage(ctx, from, msg)
		if !handled {
			return nil, errors.New("unhandled")
		}
		return resp, err
	})

	fresh := NewStage("us", Provisioned, false)
	n, err := fresh.SyncFrom(context.Background(), net, simnet.MakeAddr("us", "locator"), peerAddr)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 || fresh.Len() != 100 {
		t.Fatalf("synced %d, len %d", n, fresh.Len())
	}
	if !fresh.Ready() {
		t.Fatal("stage not ready after sync")
	}
	p, err := fresh.Lookup(context.Background(), id(subscriber.IMSI, "imsi-042"))
	if err != nil || p.SubscriberID != "sub-042" {
		t.Fatalf("post-sync lookup: %v %v", p, err)
	}
}

func TestSyncFromUnreachablePeer(t *testing.T) {
	net := simnet.New(simnet.FastConfig())
	net.AddSite("us")
	fresh := NewStage("us", Provisioned, false)
	_, err := fresh.SyncFrom(context.Background(), net,
		simnet.MakeAddr("us", "locator"), simnet.MakeAddr("eu", "locator"))
	if err == nil {
		t.Fatal("sync from missing peer should fail")
	}
	if fresh.Ready() {
		t.Fatal("stage must stay not-ready after failed sync")
	}
}

func TestStageProbesStayBounded(t *testing.T) {
	for _, n := range []int{100, 10000} {
		s := NewStage("eu", Provisioned, true)
		for i := 0; i < n; i++ {
			s.PutProfile(
				[]subscriber.Identity{id(subscriber.IMSI, fmt.Sprintf("i%08d", i))},
				Placement{SubscriberID: "s", Partition: "p"})
		}
		// Linear probing at a load factor of at most 3/4 expects 2.5
		// probes per hit, whatever N is.
		if st := s.MapStats(); st.Entries != n || st.MeanProbes < 1 || st.MeanProbes > 2.5 {
			t.Fatalf("n=%d: %+v", n, st)
		}
	}
}

func TestHashLocatorO1AndNoSelectivePlacement(t *testing.T) {
	h := NewHashLocator([]string{"p-0", "p-1", "p-2"})
	if h.SupportsSelectivePlacement() {
		t.Fatal("hash locator must not support selective placement (§3.5)")
	}
	s := NewStage("eu", Provisioned, true)
	if !s.SupportsSelectivePlacement() {
		t.Fatal("stage must support selective placement")
	}

	imsi := id(subscriber.IMSI, "21401000000042")
	p, err := h.Lookup(context.Background(), imsi)
	if err != nil || p.Partition == "" {
		t.Fatalf("hash lookup: %v %v", p, err)
	}
	// Deterministic.
	p2, _ := h.Lookup(context.Background(), imsi)
	if p.Partition != p2.Partition {
		t.Fatal("hash placement not deterministic")
	}
}

func TestHashLocatorSplitsIdentitiesOfOneSubscriber(t *testing.T) {
	// The paper's §3.5 objection: each identity hashes independently,
	// so one subscription's identities usually land on different
	// partitions. Verify the phenomenon exists across a population.
	h := NewHashLocator([]string{"p-0", "p-1", "p-2", "p-3"})
	split := 0
	for i := 0; i < 100; i++ {
		imsi := id(subscriber.IMSI, fmt.Sprintf("21401%09d", i))
		msisdn := id(subscriber.MSISDN, fmt.Sprintf("346%08d", i))
		if h.PlacementFor(imsi) != h.PlacementFor(msisdn) {
			split++
		}
	}
	if split == 0 {
		t.Fatal("expected identity splits under hashing")
	}
}

func TestHashLocatorSubIDFixup(t *testing.T) {
	h := NewHashLocator([]string{"p-0"})
	ids := []subscriber.Identity{id(subscriber.MSISDN, "34600000001")}
	h.PutProfile(ids, Placement{SubscriberID: "sub-1", Partition: "ignored"})
	p, err := h.Lookup(context.Background(), ids[0])
	if err != nil || p.SubscriberID != "sub-1" || p.Partition != "p-0" {
		t.Fatalf("lookup: %+v %v", p, err)
	}
	h.RemoveProfile(ids)
	p, _ = h.Lookup(context.Background(), ids[0])
	if p.SubscriberID != "" {
		t.Fatalf("fixup survived removal: %+v", p)
	}
}

func TestDumpCoversEveryMapping(t *testing.T) {
	s := NewStage("eu", Provisioned, true)
	s.PutProfile([]subscriber.Identity{id(subscriber.MSISDN, "2")}, Placement{SubscriberID: "b", Partition: "p"})
	s.PutProfile([]subscriber.Identity{id(subscriber.IMSI, "1")}, Placement{SubscriberID: "a", Partition: "p"})
	d := sortEntries(s.Dump())
	if len(d) != 2 || d[0].Identity != id(subscriber.IMSI, "1") || d[0].Placement.SubscriberID != "a" ||
		d[1].Identity != id(subscriber.MSISDN, "2") || d[1].Placement.SubscriberID != "b" {
		t.Fatalf("dump = %v", d)
	}
}

func TestModeString(t *testing.T) {
	if Provisioned.String() != "provisioned" || Cached.String() != "cached" {
		t.Fatal("mode strings")
	}
}

func TestStageInvalidatePartition(t *testing.T) {
	s := NewStage("eu", Cached, true)
	s.PutProfile([]subscriber.Identity{id(subscriber.IMSI, "1"), id(subscriber.MSISDN, "11")},
		Placement{SubscriberID: "a", Partition: "p-dead"})
	s.PutProfile([]subscriber.Identity{id(subscriber.IMSI, "2")},
		Placement{SubscriberID: "b", Partition: "p-live"})
	if n := s.InvalidatePartition("p-dead"); n != 2 {
		t.Fatalf("evicted %d, want 2", n)
	}
	if _, err := s.Lookup(context.Background(), id(subscriber.IMSI, "1")); err == nil {
		t.Fatal("stale placement survived invalidation")
	}
	if p, err := s.Lookup(context.Background(), id(subscriber.IMSI, "2")); err != nil || p.Partition != "p-live" {
		t.Fatalf("live placement evicted: %+v %v", p, err)
	}
	if n := s.InvalidatePartition("p-dead"); n != 0 {
		t.Fatalf("second invalidation evicted %d", n)
	}
}

func TestHashLocatorInvalidatePartitionIsNoop(t *testing.T) {
	h := NewHashLocator([]string{"p-0"})
	h.PutProfile([]subscriber.Identity{id(subscriber.MSISDN, "1")}, Placement{SubscriberID: "s", Partition: "p-0"})
	if n := h.InvalidatePartition("p-0"); n != 0 {
		t.Fatalf("hash locator evicted %d; the ring has no per-partition state", n)
	}
}
