package fecache

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/store"
	"repro/internal/subscriber"
)

const (
	part   = "p0"
	master = "se-master"
	slave  = "se-slave"
)

func ent(imsi string) store.Entry {
	return store.Entry{subscriber.AttrIMSI: {imsi}}
}

// none is the via of a DN/UID-addressed request: nothing to learn.
var none subscriber.Identity

func imsi(v string) subscriber.Identity {
	return subscriber.Identity{Type: subscriber.IMSI, Value: v}
}

func meta(csn uint64) store.Meta {
	return store.Meta{CSN: csn, WallTS: int64(csn)}
}

// boot returns a cache with partition part bootstrapped at epoch 1
// (initial assignment: every replica presumed warm).
func boot(capacity int) *Cache {
	c := New("site-a", capacity)
	c.OnEpochBump(part, 1)
	return c
}

func TestFillAndLookup(t *testing.T) {
	c := boot(64)
	c.Fill(part, 1, master, true, "k1", none, ent("imsi-1"), meta(3), true)

	v, st := c.Lookup("k1")
	if st != Hit || !v.Found || v.Meta.CSN != 3 || v.Part != part {
		t.Fatalf("lookup = %+v state=%v, want hit at csn 3", v, st)
	}
	if _, st := c.Lookup("absent"); st != Miss {
		t.Fatalf("lookup(absent) = %v, want Miss", st)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", s)
	}
}

func TestFillFromColdSlaveIgnored(t *testing.T) {
	c := boot(64)
	// Bump past bootstrap so warmth must be proven per element.
	c.OnEpochBump(part, 2)
	c.Fill(part, 2, slave, false, "k1", none, ent("imsi-1"), meta(3), true)
	if c.Len() != 0 {
		t.Fatal("fill from a never-observed slave must not install")
	}
	// One applied record under the current epoch makes the slave warm.
	c.Observe(part, slave, 2, &store.CommitRecord{CSN: 1})
	if !c.Warm(part, slave) {
		t.Fatal("slave should be warm after applying under epoch 2")
	}
	c.Fill(part, 2, slave, false, "k1", none, ent("imsi-1"), meta(3), true)
	if _, st := c.Lookup("k1"); st != Hit {
		t.Fatalf("warm-slave fill not served, state=%v", st)
	}
}

func TestNegativeCachingMasterOnly(t *testing.T) {
	c := boot(64)
	c.Fill(part, 1, slave, false, "gone", none, nil, meta(2), false)
	if c.Len() != 0 {
		t.Fatal("slave not-found may be lag; must not be cached")
	}
	c.Fill(part, 1, master, true, "gone", none, nil, meta(2), false)
	v, st := c.Lookup("gone")
	if st != Hit || v.Found {
		t.Fatalf("master not-found should cache a negative hit, got %+v/%v", v, st)
	}
}

func TestIdentityAliases(t *testing.T) {
	c := boot(64)
	resolves := func(v string) bool {
		t.Helper()
		k, ok := c.ResolveIdentity(subscriber.AttrIMSI, v)
		if ok && k != "k1" {
			t.Fatalf("resolve(%s) = %q, want k1", v, k)
		}
		return ok
	}
	// Aliases are learned from requests, never derived from the image:
	// a DN-addressed fill registers nothing.
	c.Fill(part, 1, master, true, "k1", none, ent("imsi-old"), meta(1), true)
	if resolves("imsi-old") {
		t.Fatal("alias derived from the image of a DN-addressed fill")
	}
	// A fill addressed through the identity registers it — but only if
	// the row carries it (a stale locator mapping teaches nothing).
	c.Fill(part, 1, master, true, "k1", imsi("imsi-bogus"), ent("imsi-old"), meta(1), true)
	c.Fill(part, 1, master, true, "k1", imsi("imsi-old"), ent("imsi-old"), meta(1), true)
	if resolves("imsi-bogus") || !resolves("imsi-old") {
		t.Fatal("want imsi-old learned and imsi-bogus refused")
	}
	// A newer image without the identity kills the alias and derives
	// no replacement; the PoA's post-locate probe teaches the new one.
	c.WriteThrough(part, 1, "k1", none, ent("imsi-new"), meta(2), false)
	if resolves("imsi-old") || resolves("imsi-new") {
		t.Fatal("want the stale alias dropped and nothing derived")
	}
	c.Learn("k1", imsi("imsi-new"))
	c.Learn("absent", imsi("imsi-new"))
	if !resolves("imsi-new") {
		t.Fatal("Learn on a resident entry did not register the alias")
	}
	if _, ok := c.ResolveIdentity(subscriber.AttrArea, "imsi-new"); ok {
		t.Fatal("a non-identity attribute resolved")
	}
	checkAliasInvariant(t, c)
}

// TestAliasKeepsImageCopy: the alias index keys on the row image's
// copy of the identity, so a caller's string cut from a larger buffer
// (a decoded request) is not pinned by the cache.
func TestAliasKeepsImageCopy(t *testing.T) {
	c := boot(64)
	e := ent("imsi-1")
	request := "...imsi-1..." // the request the identity was cut from
	c.Fill(part, 1, master, true, "k1", imsi(request[3:9]), e, meta(1), true)
	c.Learn("k1", imsi(request[3:9]))
	want := unsafe.StringData(e[subscriber.AttrIMSI][0])
	n := 0
	for i := range c.aliases {
		for id := range c.aliases[i].m {
			n++
			if unsafe.StringData(id.Value) != want {
				t.Errorf("alias %v does not share the image's string", id)
			}
		}
	}
	rec := c.shard("k1").idx["k1"]
	if n != 1 || len(rec.aliases) != 1 || unsafe.StringData(rec.aliases[0].Value) != want {
		t.Fatalf("aliases: %d indexed, record lists %v", n, rec.aliases)
	}
}

// checkAliasInvariant asserts, under every lock of the cache, that
// each alias names a resident positive record whose current image
// carries the identity and that lists the alias as registered.
func checkAliasInvariant(t *testing.T, c *Cache) {
	t.Helper()
	for i := range c.shards {
		c.shards[i].mu.Lock()
		defer c.shards[i].mu.Unlock()
	}
	for i := range c.aliases {
		st := &c.aliases[i]
		st.mu.Lock()
		for id, key := range st.m {
			rec := c.shard(key).idx[key]
			if rec == nil || !rec.found || !carries(rec.entry, id) {
				t.Errorf("alias %v → %q: record %+v does not carry it", id, key, rec)
				continue
			}
			listed := false
			for _, a := range rec.aliases {
				listed = listed || a == id
			}
			if !listed {
				t.Errorf("alias %v → %q is not in the record's registered list", id, key)
			}
		}
		st.mu.Unlock()
	}
}

// TestAliasLifecycle walks one learned alias through every transition
// of its record.
func TestAliasLifecycle(t *testing.T) {
	observe := func(c *Cache, csn uint64, kind store.OpKind, e store.Entry) {
		c.Observe(part, master, 1, &store.CommitRecord{CSN: csn,
			Ops: []store.Op{{Kind: kind, Key: "k1", Entry: e}}})
	}
	withArea := store.Entry{subscriber.AttrIMSI: {"a"}, subscriber.AttrArea: {"x"}}
	cases := []struct {
		name string
		step func(c *Cache)
		want bool
	}{
		{"learned on fill", func(*Cache) {}, true},
		{"kept across an observed refresh that keeps the identity",
			func(c *Cache) { observe(c, 2, store.OpModify, withArea) }, true},
		{"kept across a write-through that keeps the identity",
			func(c *Cache) { c.WriteThrough(part, 1, "k1", none, withArea, meta(2), false) }, true},
		{"dropped when Observe installs an image without it",
			func(c *Cache) { observe(c, 2, store.OpModify, ent("b")) }, false},
		{"dropped when WriteThrough installs an image without it",
			func(c *Cache) { c.WriteThrough(part, 1, "k1", none, ent("b"), meta(2), false) }, false},
		{"not re-derived when the identity comes back", func(c *Cache) {
			observe(c, 2, store.OpModify, ent("b"))
			observe(c, 3, store.OpModify, ent("a"))
		}, false},
		{"dropped on an observed delete",
			func(c *Cache) { observe(c, 2, store.OpDelete, nil) }, false},
		{"dropped on a written tombstone",
			func(c *Cache) { c.WriteThrough(part, 1, "k1", imsi("a"), nil, meta(2), true) }, false},
		{"dropped on eviction", func(c *Cache) {
			for i := 0; c.Peek("k1") != Miss; i++ {
				k := fmt.Sprintf("other-%d", i)
				c.Fill(part, 1, master, true, k, imsi(k), ent(k), meta(1), true)
			}
		}, false},
		{"survives its previous owner once another row takes it over", func(c *Cache) {
			c.Fill(part, 1, master, true, "k2", imsi("a"), ent("a"), meta(1), true)
			observe(c, 2, store.OpDelete, nil) // k1 goes; the alias is k2's now
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := boot(16) // one record per shard
			c.Fill(part, 1, master, true, "k1", imsi("a"), ent("a"), meta(1), true)
			tc.step(c)
			if _, ok := c.ResolveIdentity(subscriber.AttrIMSI, "a"); ok != tc.want {
				t.Fatalf("alias resolves = %v, want %v", ok, tc.want)
			}
			checkAliasInvariant(t, c)
		})
	}
}

// TestAliasSwap: two subscribers exchange their MSISDNs one committed
// write at a time. At no step may an MSISDN resolve to a row whose
// cached image does not carry it.
func TestAliasSwap(t *testing.T) {
	msisdn := func(v string) subscriber.Identity {
		return subscriber.Identity{Type: subscriber.MSISDN, Value: v}
	}
	row := func(v string) store.Entry { return store.Entry{subscriber.AttrMSISDN: {v}} }
	c := boot(64)
	check := func(step string) {
		t.Helper()
		for _, m := range []string{"m1", "m2"} {
			key, ok := c.ResolveIdentity(subscriber.AttrMSISDN, m)
			if !ok {
				continue
			}
			if v, st := c.Lookup(key); st != Hit || v.Entry.First(subscriber.AttrMSISDN) != m {
				t.Fatalf("%s: %s resolves to %s whose image is %v (%v)", step, m, key, v.Entry, st)
			}
		}
		checkAliasInvariant(t, c)
	}
	c.Fill(part, 1, master, true, "k1", msisdn("m1"), row("m1"), meta(1), true)
	c.Fill(part, 1, master, true, "k2", msisdn("m2"), row("m2"), meta(2), true)
	check("learned")
	c.WriteThrough(part, 1, "k1", msisdn("m1"), row("m2"), meta(3), false)
	check("k1 took m2")
	c.WriteThrough(part, 1, "k2", msisdn("m2"), row("m1"), meta(4), false)
	check("k2 took m1")
	c.Learn("k1", msisdn("m2"))
	c.Learn("k2", msisdn("m1"))
	check("re-learned")
	if k, _ := c.ResolveIdentity(subscriber.AttrMSISDN, "m2"); k != "k1" {
		t.Fatalf("m2 resolves to %q after the swap, want k1", k)
	}
}

func TestFloorRejectsStaleFill(t *testing.T) {
	c := boot(64)
	c.Fill(part, 1, master, true, "k1", none, ent("a"), meta(5), true)
	c.Lookup("k1") // serving csn 5 sets the floor
	if f := c.Floor("k1"); f != 5 {
		t.Fatalf("floor = %d, want 5", f)
	}
	// A read-through fill below the floor must not regress the value.
	c.Fill(part, 1, master, true, "k1", none, ent("stale"), meta(3), true)
	if v, _ := c.Lookup("k1"); v.Meta.CSN != 5 {
		t.Fatalf("stale fill regressed value to csn %d", v.Meta.CSN)
	}
}

func TestEpochBumpGuardsUntilWriteThrough(t *testing.T) {
	c := boot(64)
	c.Fill(part, 1, master, true, "k1", none, ent("a"), meta(7), true)
	// Residents of another partition and a negative entry of this one:
	// the bump must count exactly the entries it guards.
	c.OnEpochBump("p-other", 1)
	c.Fill("p-other", 1, master, true, "o1", none, ent("o"), meta(1), true)
	c.Fill(part, 1, master, true, "gone", none, nil, meta(2), false)
	c.OnEpochBump(part, 2)

	if _, st := c.Lookup("o1"); st != Hit {
		t.Fatalf("bump of %s guarded another partition's entry (%v)", part, st)
	}
	if _, st := c.Lookup("k1"); st != Guarded {
		t.Fatalf("post-bump lookup state = %v, want Guarded", st)
	}
	if st := c.Peek("k1"); st != Guarded {
		t.Fatalf("peek = %v, want Guarded", st)
	}
	if f := c.Floor("k1"); f != 0 {
		t.Fatalf("cross-epoch floor = %d, want 0 (not comparable)", f)
	}
	// A read-through fill under the new epoch must not lift the guard:
	// only a current-lineage commit proves freshness for this key.
	c.Fill(part, 2, master, true, "k1", none, ent("refill"), meta(2), true)
	if st := c.Peek("k1"); st != Guarded {
		t.Fatal("read-through fill lifted the epoch guard")
	}
	c.WriteThrough(part, 2, "k1", none, ent("b"), meta(2), false)
	v, st := c.Lookup("k1")
	if st != Hit || v.Meta.CSN != 2 {
		t.Fatalf("post-write-through = %+v/%v, want hit at csn 2", v, st)
	}
	s := c.Stats()
	if s.InvalidationsEpoch != 2 {
		t.Fatalf("epoch invalidations = %d, want 2 (k1, gone)", s.InvalidationsEpoch)
	}
	if s.LastInvalidatedPartition != part || s.LastInvalidationEpoch != 2 {
		t.Fatalf("last invalidation = %s@%d, want %s@2",
			s.LastInvalidatedPartition, s.LastInvalidationEpoch, part)
	}
}

func TestEpochBumpIsMonotonic(t *testing.T) {
	c := boot(64)
	c.Fill(part, 1, master, true, "k1", none, ent("a"), meta(1), true)
	c.OnEpochBump(part, 3)
	c.OnEpochBump(part, 2) // late, out-of-order: must not regress
	if _, st := c.Lookup("k1"); st != Guarded {
		t.Fatal("stale bump un-guarded the entry")
	}
	c.WriteThrough(part, 3, "k1", none, ent("b"), meta(1), false)
	if _, st := c.Lookup("k1"); st != Hit {
		t.Fatal("write-through under the surviving epoch should serve")
	}
}

func TestObserveRefreshesButNeverInserts(t *testing.T) {
	c := boot(64)
	c.Fill(part, 1, master, true, "k1", none, ent("a"), meta(1), true)
	c.Observe(part, master, 1, &store.CommitRecord{CSN: 4, Ops: []store.Op{
		{Kind: store.OpModify, Key: "k1", Entry: ent("a2")},
		{Kind: store.OpPut, Key: "k-new", Entry: ent("n")},
	}})
	v, st := c.Lookup("k1")
	if st != Hit || v.Meta.CSN != 4 || v.Entry[subscriber.AttrIMSI][0] != "a2" {
		t.Fatalf("observe did not refresh: %+v/%v", v, st)
	}
	if _, st := c.Lookup("k-new"); st != Miss {
		t.Fatal("observe must never insert new keys")
	}
	// An older replayed record must not roll the entry back.
	c.Observe(part, master, 1, &store.CommitRecord{CSN: 2, Ops: []store.Op{
		{Kind: store.OpModify, Key: "k1", Entry: ent("old")}}})
	if v, _ := c.Lookup("k1"); v.Meta.CSN != 4 {
		t.Fatalf("observe rolled back to csn %d", v.Meta.CSN)
	}
	if s := c.Stats(); s.InvalidationsCSN != 1 {
		t.Fatalf("csn invalidations = %d, want 1", s.InvalidationsCSN)
	}
}

func TestObserveDelete(t *testing.T) {
	c := boot(64)
	c.Fill(part, 1, master, true, "k1", imsi("a"), ent("a"), meta(1), true)
	c.Observe(part, master, 1, &store.CommitRecord{CSN: 2, Ops: []store.Op{
		{Kind: store.OpDelete, Key: "k1"}}})
	v, st := c.Lookup("k1")
	if st != Hit || v.Found {
		t.Fatalf("observed delete should serve a negative hit, got %+v/%v", v, st)
	}
	if _, ok := c.ResolveIdentity(subscriber.AttrIMSI, "a"); ok {
		t.Fatal("delete left the identity alias behind")
	}
}

func TestEvictionBoundsResidency(t *testing.T) {
	c := boot(16) // per-shard LRU capacity of 1
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("k%02d", i)
		c.Fill(part, 1, master, true, k, none, ent("imsi-"+k), meta(uint64(i+1)), true)
	}
	if n := c.Len(); n > 16 {
		t.Fatalf("resident entries = %d, want ≤ capacity 16", n)
	}
	s := c.Stats()
	if s.Evictions == 0 {
		t.Fatal("expected evictions at capacity 16 with 64 inserts")
	}
	if int(s.Evictions)+c.Len() != 64 {
		t.Fatalf("evictions %d + resident %d != 64 inserts", s.Evictions, c.Len())
	}
}

// TestAliasHammer runs fills (with eviction), observed refreshes,
// tombstones and epoch bumps against alias-resolved probes. Every row
// keeps one fixed IMSI for life, so a found Hit reached through it must
// carry it whatever the interleaving; rows trade MSISDNs from a small
// pool, which the locked invariant check covers. Run under -race.
func TestAliasHammer(t *testing.T) {
	const (
		keys    = 256
		pool    = 8
		workers = 4
		rounds  = 4000
	)
	c := boot(64)
	key := func(i int) string { return fmt.Sprintf("k%03d", i) }
	imsiOf := func(i int) string { return fmt.Sprintf("imsi-%03d", i) }
	msisdnOf := func(i int, csn uint64) string { return fmt.Sprintf("m%d", (uint64(i)+csn)%pool) }
	image := func(i int, csn uint64) store.Entry {
		return store.Entry{subscriber.AttrIMSI: {imsiOf(i)},
			subscriber.AttrMSISDN: {msisdnOf(i, csn)}}
	}
	var csn, epoch atomic.Uint64
	epoch.Store(1)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds; r++ {
				i, n, ep := rng.Intn(keys), csn.Add(1), epoch.Load()
				via := imsi(imsiOf(i))
				if r%2 == 0 {
					via = subscriber.Identity{Type: subscriber.MSISDN, Value: msisdnOf(i, n)}
				}
				switch rng.Intn(8) {
				case 0:
					c.Observe(part, master, ep, &store.CommitRecord{CSN: n,
						Ops: []store.Op{{Kind: store.OpModify, Key: key(i), Entry: image(i, n)}}})
				case 1:
					c.WriteThrough(part, ep, key(i), via, image(i, n), meta(n), false)
				case 2:
					c.WriteThrough(part, ep, key(i), via, nil,
						store.Meta{CSN: n, Tombstone: true}, true)
				case 3:
					c.Learn(key(i), via)
				default:
					c.Fill(part, ep, master, true, key(i), via, image(i, n), meta(n), true)
				}
				// The session's probe, through the fixed identity.
				j := rng.Intn(keys)
				if k, ok := c.ResolveIdentity(subscriber.AttrIMSI, imsiOf(j)); ok {
					if k != key(j) {
						t.Errorf("%s resolves to %s, want %s", imsiOf(j), k, key(j))
					}
					if v, st := c.Lookup(k); st == Hit && v.Found &&
						v.Entry.First(subscriber.AttrIMSI) != imsiOf(j) {
						t.Errorf("hit through %s returned %v", imsiOf(j), v.Entry)
					}
				}
				// And through a moving one: no assertion survives the
				// resolve→lookup window, the invariant check below does.
				if k, ok := c.ResolveIdentity(subscriber.AttrMSISDN, msisdnOf(j, n)); ok {
					c.Lookup(k)
				}
				if w == 0 && r%500 == 499 {
					checkAliasInvariant(t, c)
				}
				if w == 1 && r%1500 == 1499 {
					c.OnEpochBump(part, epoch.Add(1))
				}
			}
		}(w)
	}
	wg.Wait()
	checkAliasInvariant(t, c)
	if s := c.Stats(); s.Evictions == 0 || s.Hits == 0 || s.Entries > c.Capacity() {
		t.Fatalf("hammer did not exercise the cache: %+v", s)
	}
}

// Allocation gates: CI fails when allocs/op rise above these bounds.

func TestLookupHitAllocs(t *testing.T) {
	c := boot(64)
	c.Fill(part, 1, master, true, "k1", imsi("a"), ent("a"), meta(1), true)
	got := testing.AllocsPerRun(1000, func() {
		if k, ok := c.ResolveIdentity(subscriber.AttrIMSI, "a"); ok {
			c.Lookup(k)
		}
	})
	if got != 0 || c.Stats().Hits < 1000 {
		t.Fatalf("alias-resolved hit = %.0f allocs/op (hits %d), want 0", got, c.Stats().Hits)
	}
}

func TestFillEvictAllocs(t *testing.T) {
	c := boot(16) // one record per shard: every new key evicts
	const n = 2048
	keys, vias, rows := make([]string, n), make([]subscriber.Identity, n), make([]store.Entry, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%04d", i)
		vias[i] = imsi("imsi-" + keys[i])
		rows[i] = ent(vias[i].Value)
	}
	i := 0
	fill := func() {
		c.Fill(part, 1, master, true, keys[i%n], vias[i%n], rows[i%n], meta(1), true)
		i++
	}
	for range keys {
		fill() // every shard full, the alias stripes at their steady size
	}
	before := c.Stats().Evictions
	got := testing.AllocsPerRun(n, fill)
	t.Logf("fill + evict = %.0f allocs/op", got)
	if got > 2 {
		t.Errorf("fill + evict = %.0f allocs/op, want ≤ 2", got)
	}
	if ev := c.Stats().Evictions - before; ev < n {
		t.Fatalf("%d evictions over %d fills of new keys", ev, n)
	}
	checkAliasInvariant(t, c)
}
