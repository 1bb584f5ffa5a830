package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/locator"
	"repro/internal/replication"
	"repro/internal/se"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/subscriber"
)

func TestSessionLocate(t *testing.T) {
	net, u, profiles := testUDR(t, 3)
	ctx := ctxT(t)
	site := u.Sites()[0]
	sess := NewSession(net, simnet.MakeAddr(site, "fe"), site, PolicyFE)

	p := profiles[0]
	placement, err := sess.Locate(ctx, subscriber.Identity{Type: subscriber.IMSI, Value: p.IMSIVal})
	if err != nil {
		t.Fatal(err)
	}
	if placement.SubscriberID != p.ID {
		t.Fatalf("placement = %+v", placement)
	}
	part, ok := u.Partition(placement.Partition)
	if !ok || part.HomeSite != p.HomeRegion {
		t.Fatalf("partition %s home %s, want %s", placement.Partition, part.HomeSite, p.HomeRegion)
	}

	if _, err := sess.Locate(ctx, subscriber.Identity{Type: subscriber.MSISDN, Value: "nope"}); !errors.Is(err, locator.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestSessionPolicyAccessors(t *testing.T) {
	net, u, _ := testUDR(t, 0)
	site := u.Sites()[0]
	fe := NewSession(net, simnet.MakeAddr(site, "fe"), site, PolicyFE)
	ps := NewSession(net, simnet.MakeAddr(site, "ps"), site, PolicyPS)
	if fe.Policy() != PolicyFE || ps.Policy() != PolicyPS {
		t.Fatal("policy accessors")
	}
	if fe.PoASite() != site {
		t.Fatalf("poa site = %s", fe.PoASite())
	}
	if PolicyFE.String() != "FE" || PolicyPS.String() != "PS" {
		t.Fatal("policy strings")
	}
}

func TestSessionExecByKnownPartition(t *testing.T) {
	// A client that cached the placement from a previous response can
	// skip identity resolution entirely.
	net, u, profiles := testUDR(t, 3)
	ctx := ctxT(t)
	site := u.Sites()[0]
	sess := NewSession(net, simnet.MakeAddr(site, "fe"), site, PolicyFE)
	p := profiles[0]

	first, err := sess.Exec(ctx, ExecReq{
		Identity: subscriber.Identity{Type: subscriber.IMSI, Value: p.IMSIVal},
		Ops:      []se.TxnOp{{Kind: se.TxnGet}},
	})
	if err != nil {
		t.Fatal(err)
	}
	second, err := sess.Exec(ctx, ExecReq{
		SubscriberID: first.SubscriberID,
		Partition:    first.Partition,
		Ops:          []se.TxnOp{{Kind: se.TxnGet, Key: first.SubscriberID}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Results[0].Found {
		t.Fatal("partition-addressed read missed")
	}
}

func TestSessionExecEmptyOpKeyDefaultsToSubscriber(t *testing.T) {
	net, u, profiles := testUDR(t, 1)
	ctx := ctxT(t)
	site := u.Sites()[0]
	sess := NewSession(net, simnet.MakeAddr(site, "fe"), site, PolicyFE)
	p := profiles[0]
	resp, err := sess.Exec(ctx, ExecReq{
		Identity: subscriber.Identity{Type: subscriber.MSISDN, Value: p.MSISDNVal},
		Ops:      []se.TxnOp{{Kind: se.TxnGet}}, // Key left empty
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Results[0].Found || resp.Results[0].Entry.First(subscriber.AttrID) != p.ID {
		t.Fatalf("resp = %+v", resp.Results[0])
	}
}

func TestSessionModifyReadBack(t *testing.T) {
	net, u, profiles := testUDR(t, 1)
	ctx := ctxT(t)
	site := u.Sites()[0]
	sess := NewSession(net, simnet.MakeAddr(site, "ps"), site, PolicyPS)
	p := profiles[0]
	id := subscriber.Identity{Type: subscriber.IMSI, Value: p.IMSIVal}

	if _, err := sess.Modify(ctx, id, barReplace(subscriber.AttrBarOutgoing, "TRUE")); err != nil {
		t.Fatal(err)
	}
	got, _, role, err := sess.ReadProfile(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Services.BarOutgoing {
		t.Fatal("modify lost")
	}
	if role.String() != "master" {
		t.Fatalf("PS read served by %v", role)
	}
}

// barReplace builds a single-attribute replace mod.
func barReplace(attr, val string) store.Mod {
	return store.Mod{Kind: store.ModReplace, Attr: attr, Vals: []string{val}}
}

// TestSessionReadAllocs gates a read that misses the FE cache, end to
// end through Session.Exec: both hops travel in pooled envelopes and
// the result in the returned response's inline slot, so what remains
// is the caller's own Ops slice and the *ExecResp it keeps. Skipped
// under the race detector, which drops pooled items at random.
func TestSessionReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	const site = "eu-south"
	// 16 entries against 256 subscribers: every read misses and evicts.
	u, sess, profiles := cachedUDR(t, 256, 16, site)
	ctx := context.Background()
	i := 0
	read := func() {
		p := profiles[i%len(profiles)]
		i++
		resp, err := sess.Exec(ctx, ExecReq{
			Identity: subscriber.Identity{Type: subscriber.MSISDN, Value: p.MSISDNVal},
			Ops:      []se.TxnOp{{Kind: se.TxnGet}}})
		if err != nil || !resp.Results[0].Found || resp.Results[0].Entry.First(subscriber.AttrID) != p.ID {
			t.Fatalf("read %s: %v", p.ID, err)
		}
	}
	for range profiles {
		read() // fill the cache and the lazily built indexes
	}
	cache := u.PoA(site).Cache()
	before := cache.Stats()
	got := testing.AllocsPerRun(2*len(profiles), read)
	if got > 2 {
		t.Errorf("session read miss = %.0f allocs/op, want ≤ 2 (the caller's Ops and the returned response)", got)
	}
	if after := cache.Stats(); after.Hits != before.Hits {
		t.Fatalf("reads hit the cache: %+v → %+v", before, after)
	}
}

// TestSessionEnvelopeResultsOwnedByCaller: a response Session.Exec returned
// keeps its results while later calls reuse the pooled envelopes, for
// single-op reads and multi-op transactions alike.
func TestSessionEnvelopeResultsOwnedByCaller(t *testing.T) {
	net, u, profiles := testUDR(t, 8)
	ctx := ctxT(t)
	site := u.Sites()[0]
	sess := NewSession(net, simnet.MakeAddr(site, "ps"), site, PolicyPS)
	var kept []*ExecResp
	for _, p := range profiles {
		id := subscriber.Identity{Type: subscriber.IMSI, Value: p.IMSIVal}
		one, err := sess.Exec(ctx, ExecReq{Identity: id, Ops: []se.TxnOp{{Kind: se.TxnGet}}})
		if err != nil {
			t.Fatal(err)
		}
		two, err := sess.Exec(ctx, ExecReq{Identity: id, Ops: []se.TxnOp{
			{Kind: se.TxnGet}, {Kind: se.TxnCompare, Attr: subscriber.AttrID, Value: p.ID}}})
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, one, two)
	}
	for i, p := range profiles {
		one, two := kept[2*i], kept[2*i+1]
		if len(one.Results) != 1 || one.Results[0].Entry.First(subscriber.AttrID) != p.ID {
			t.Fatalf("%s: single-op response changed after later calls: %+v", p.ID, one.Results)
		}
		if len(two.Results) != 2 || two.Results[0].Entry.First(subscriber.AttrID) != p.ID || !two.Results[1].CompareOK {
			t.Fatalf("%s: multi-op response changed after later calls: %+v", p.ID, two.Results)
		}
	}
}

// TestEnvelopeOwnershipQuorumWrites drives Quorum-durability writes
// from 8 goroutines through one Session, every write with its own Ops
// and Mods values, then reads every row back from every replica and
// checks that every commit record kept its Mods. An envelope that
// shared or recycled a caller's Ops or Mods would land one goroutine's
// value in another's row or record (or trip the race detector).
func TestEnvelopeOwnershipQuorumWrites(t *testing.T) {
	const writers, rowsPer, rounds = 8, 3, 8
	net, u, profiles := testUDR(t, writers*rowsPer, func(c *Config) { c.Durability = replication.Quorum })
	ctx := ctxT(t)
	if err := u.WaitReplication(ctx); err != nil {
		t.Fatal(err)
	}
	// The store keeps each commit's Mods in its record (ownership
	// passes to it), so they must still match the post-image later.
	var recMu sync.Mutex
	var recs []*store.CommitRecord
	for _, id := range u.Elements() {
		u.Element(id).SetInstallObserver(func(_ string, rec *store.CommitRecord) {
			recMu.Lock()
			recs = append(recs, rec)
			recMu.Unlock()
		})
	}
	site := u.Sites()[0]
	sess := NewSession(net, simnet.MakeAddr(site, "ps"), site, PolicyPS)
	value := func(g, row, round int) string { return fmt.Sprintf("w%d-r%d-n%d", g, row, round) }
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for row := 0; row < rowsPer; row++ {
					p := profiles[g*rowsPer+row]
					_, err := sess.Modify(ctx, subscriber.Identity{Type: subscriber.IMSI, Value: p.IMSIVal},
						barReplace(subscriber.AttrArea, value(g, row, round)))
					if err != nil {
						t.Errorf("writer %d: %s: %v", g, p.ID, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := u.WaitReplication(ctx); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < writers; g++ {
		for row := 0; row < rowsPer; row++ {
			p := profiles[g*rowsPer+row]
			want := value(g, row, rounds-1)
			pl, err := sess.Locate(ctx, subscriber.Identity{Type: subscriber.IMSI, Value: p.IMSIVal})
			if err != nil {
				t.Fatal(err)
			}
			part, _ := u.Partition(pl.Partition)
			for _, ref := range part.Replicas {
				e, _, ok := u.Element(ref.Element).Replica(part.ID).Store.GetCommitted(p.ID)
				if got := e.First(subscriber.AttrArea); !ok || got != want {
					t.Errorf("%s at %s: %s = %q, want %q", p.ID, ref.Element, subscriber.AttrArea, got, want)
				}
			}
		}
	}
	recMu.Lock()
	defer recMu.Unlock()
	if len(recs) < writers*rowsPer*rounds {
		t.Fatalf("observed %d commit records, want ≥ %d", len(recs), writers*rowsPer*rounds)
	}
	for _, rec := range recs {
		for _, op := range rec.Ops {
			if len(op.Mods) == 0 {
				continue
			}
			if got, want := op.Mods[0].Vals[0], op.Entry.First(subscriber.AttrArea); got != want {
				t.Fatalf("CSN %d %s: record's mod value %q, post-image %q", rec.CSN, op.Key, got, want)
			}
		}
	}
}
