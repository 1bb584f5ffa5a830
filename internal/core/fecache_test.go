package core

import (
	"context"
	"testing"

	"repro/internal/se"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/subscriber"
)

// cachedUDR is testUDR with the FE cache on, replication settled, and
// an FE session at site co-located with (and attached to) its cache.
func cachedUDR(t *testing.T, n, capacity int, site string) (*UDR, *Session, []*subscriber.Profile) {
	t.Helper()
	net, u, profiles := testUDR(t, n, func(c *Config) {
		c.FECache = true
		c.FECacheSlaveLB = true
		c.FECacheCapacity = capacity
	})
	if err := u.WaitReplication(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	sess := NewSession(net, simnet.MakeAddr(site, "fe-test"), site, PolicyFE)
	sess.AttachCache(u.PoA(site).Cache())
	return u, sess, profiles
}

// TestCacheLearnsAliasFromWrite: a subscriber first seen by an
// identity-addressed write is alias-resolvable by the read that
// follows — it is served session-side, never reaching the PoA.
func TestCacheLearnsAliasFromWrite(t *testing.T) {
	const site = "eu-south"
	u, sess, profiles := cachedUDR(t, 8, 0, site)
	ctx := ctxT(t)
	msisdn := subscriber.Identity{Type: subscriber.MSISDN, Value: profiles[0].MSISDNVal}

	if _, err := sess.Modify(ctx, msisdn, barReplace(subscriber.AttrArea, "written")); err != nil {
		t.Fatal(err)
	}
	served := u.PoA(site).Served.Value()
	resp, err := sess.Exec(ctx, ExecReq{Identity: msisdn, Ops: []se.TxnOp{{Kind: se.TxnGet}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Role != store.Cached || resp.Results[0].Entry.First(subscriber.AttrArea) != "written" {
		t.Fatalf("read after write: role %v entry %v, want the cached post-image", resp.Role, resp.Results[0].Entry)
	}
	if got := u.PoA(site).Served.Value(); got != served {
		t.Fatalf("PoA served %d requests for the read, want 0 (session-side hit)", got-served)
	}
}

// TestCacheLearnsAliasOnSecondIdentity: aliases are learned, not
// derived, so a resident entry first read by DN and then by IMSI costs
// the new identity one PoA hop (locate + primary-key hit, which
// teaches the alias) and is served session-side from the third read.
func TestCacheLearnsAliasOnSecondIdentity(t *testing.T) {
	const site = "eu-south"
	u, sess, profiles := cachedUDR(t, 8, 0, site)
	ctx, poa := ctxT(t), u.PoA(site)
	p := profiles[0]
	imsi := subscriber.Identity{Type: subscriber.IMSI, Value: p.IMSIVal}
	get := []se.TxnOp{{Kind: se.TxnGet}}

	steps := []struct {
		name       string
		req        ExecReq
		wantRole   bool // served from the cache
		wantServed int64
	}{
		{"by DN: miss and fill", ExecReq{SubscriberID: p.ID, Ops: get}, false, 1},
		{"by IMSI: PoA hit after locate, alias taught", ExecReq{Identity: imsi, Ops: get}, true, 1},
		{"by IMSI again: session-side hit", ExecReq{Identity: imsi, Ops: get}, true, 0},
	}
	for _, st := range steps {
		served := poa.Served.Value()
		st.req.Ops = append([]se.TxnOp(nil), st.req.Ops...) // the PoA fills op keys in place
		resp, err := sess.Exec(ctx, st.req)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if !resp.Results[0].Found || (resp.Role == store.Cached) != st.wantRole {
			t.Fatalf("%s: role %v found %v", st.name, resp.Role, resp.Results[0].Found)
		}
		if got := poa.Served.Value() - served; got != st.wantServed {
			t.Fatalf("%s: PoA served %d requests, want %d", st.name, got, st.wantServed)
		}
	}
}

// Allocation gates: CI fails when allocs/op rise above these bounds.

// TestPoAReadMissAllocs bounds a cacheable identity-addressed read
// that misses the FE cache — probe, locate, SE round trip, fill with
// eviction — end to end through Network.Call on a zero-latency network.
// Both hops travel in the reused envelope, so only the caller's Ops
// slice is left.
func TestPoAReadMissAllocs(t *testing.T) {
	const site = "eu-south"
	// 16 entries against 256 subscribers: every read misses and evicts.
	u, _, profiles := cachedUDR(t, 256, 16, site)
	net, poa := u.Net(), u.PoAAddr(site)
	from := simnet.MakeAddr(site, "alloc-test")
	ctx := context.Background()
	i := 0
	c := new(ExecCall) // one envelope, reused as a session reuses its pooled ones
	read := func() {
		p := profiles[i%len(profiles)]
		i++
		*c = ExecCall{Req: ExecReq{
			Identity: subscriber.Identity{Type: subscriber.MSISDN, Value: p.MSISDNVal},
			Ops:      []se.TxnOp{{Kind: se.TxnGet}}, Policy: PolicyFE, ReadOnly: true}}
		raw, err := net.Call(ctx, from, poa, c)
		if err != nil || raw != any(c) || !c.Resp.Results[0].Found {
			t.Fatalf("read %s: %v", p.ID, err)
		}
	}
	for range profiles {
		read() // fill the cache and the lazily built indexes
	}
	cache := u.PoA(site).Cache()
	before := cache.Stats()
	if got := testing.AllocsPerRun(2*len(profiles), read); got > 1 {
		t.Errorf("PoA read miss = %.0f allocs/op, want ≤ 1 (the caller's Ops)", got)
	}
	after := cache.Stats()
	if after.Hits != before.Hits || after.Evictions-before.Evictions < uint64(2*len(profiles)) {
		t.Fatalf("reads did not all miss and evict: %+v → %+v", before, after)
	}
}

func TestOrderTargetsAllocs(t *testing.T) {
	const site = "eu-south"
	u, _, _ := cachedUDR(t, 0, 0, site)
	ap := u.PoA(site)
	read := ExecReq{Ops: []se.TxnOp{{Kind: se.TxnGet}}, Policy: PolicyFE, ReadOnly: true}
	write := ExecReq{Ops: []se.TxnOp{{Kind: se.TxnModify}}, Policy: PolicyFE}
	for _, id := range u.Partitions() {
		part, _ := u.Partition(id)
		got := testing.AllocsPerRun(100, func() {
			var buf [maxInlineTargets]ReplicaRef
			if n := len(ap.orderTargets(buf[:0], part, &read, false)); n != len(part.Replicas) {
				t.Fatalf("%s: %d read targets for %d replicas", id, n, len(part.Replicas))
			}
			if n := len(ap.orderTargets(buf[:0], part, &write, false)); n != 1 {
				t.Fatalf("%s: %d write targets, want the master alone", id, n)
			}
		})
		if got != 0 {
			t.Errorf("%s: orderTargets = %.0f allocs/op, want 0", id, got)
		}
	}
}
