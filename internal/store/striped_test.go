package store

import (
	"fmt"
	"sync"
	"testing"
)

// TestIdentityIndex covers the secondary-index contract on every
// install path: local commit, modify, delete, replicated apply and
// direct put.
func TestIdentityIndex(t *testing.T) {
	s := New("r1")
	s.SetIndexedAttrs("imsi", "impu")

	txn := s.Begin(ReadCommitted)
	txn.Put("k1", Entry{"imsi": {"111"}, "impu": {"sip:1", "tel:1"}})
	txn.Put("k2", Entry{"imsi": {"222"}})
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if key, ok := s.LookupByAttr("imsi", "111"); !ok || key != "k1" {
		t.Fatalf("imsi 111 -> %q %v", key, ok)
	}
	if key, ok := s.LookupByAttr("impu", "tel:1"); !ok || key != "k1" {
		t.Fatalf("impu tel:1 -> %q %v", key, ok)
	}
	if !s.IndexesAttr("imsi") || s.IndexesAttr("msisdn") {
		t.Fatal("IndexesAttr wrong")
	}

	// A modify that changes the identity re-points the index and
	// drops the stale value.
	txn = s.Begin(ReadCommitted)
	txn.Modify("k1", Mod{Kind: ModReplace, Attr: "imsi", Vals: []string{"333"}})
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.LookupByAttr("imsi", "111"); ok {
		t.Fatal("stale identity value still indexed")
	}
	if key, ok := s.LookupByAttr("imsi", "333"); !ok || key != "k1" {
		t.Fatalf("imsi 333 -> %q %v", key, ok)
	}

	// Delete unindexes every value of the row.
	txn = s.Begin(ReadCommitted)
	txn.Delete("k1")
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, probe := range [][2]string{{"imsi", "333"}, {"impu", "sip:1"}, {"impu", "tel:1"}} {
		if _, ok := s.LookupByAttr(probe[0], probe[1]); ok {
			t.Fatalf("deleted row still indexed under %s=%s", probe[0], probe[1])
		}
	}

	// Replicated applies maintain the slave's index too.
	slave := New("s")
	slave.SetRole(Slave)
	slave.SetIndexedAttrs("imsi")
	slave.ApplyReplicated(&CommitRecord{CSN: 1, Origin: "m", Ops: []Op{
		{Kind: OpPut, Key: "k9", Entry: Entry{"imsi": {"999"}}},
	}})
	if key, ok := slave.LookupByAttr("imsi", "999"); !ok || key != "k9" {
		t.Fatalf("slave index -> %q %v", key, ok)
	}
	slave.ApplyReplicated(&CommitRecord{CSN: 2, Origin: "m", Ops: []Op{
		{Kind: OpDelete, Key: "k9"},
	}})
	if _, ok := slave.LookupByAttr("imsi", "999"); ok {
		t.Fatal("slave index kept a replicated-deleted row")
	}

	// Direct puts (repair merge, snapshot load) maintain it as well,
	// including the tombstone install path.
	s.PutDirect("k3", Entry{"imsi": {"444"}}, Meta{CSN: 7, WallTS: 7})
	if key, ok := s.LookupByAttr("imsi", "444"); !ok || key != "k3" {
		t.Fatalf("direct put index -> %q %v", key, ok)
	}
	s.PutDirect("k3", nil, Meta{CSN: 8, WallTS: 8, Tombstone: true})
	if _, ok := s.LookupByAttr("imsi", "444"); ok {
		t.Fatal("tombstone install left the row indexed")
	}
}

// TestSetIndexedAttrsRebuilds covers enabling the index after rows
// exist (WAL recovery installs rows before the SE re-attaches).
func TestSetIndexedAttrsRebuilds(t *testing.T) {
	s := New("r1")
	txn := s.Begin(ReadCommitted)
	txn.Put("k1", Entry{"imsi": {"111"}})
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.LookupByAttr("imsi", "111"); ok {
		t.Fatal("index answered before being enabled")
	}
	s.SetIndexedAttrs("imsi")
	if key, ok := s.LookupByAttr("imsi", "111"); !ok || key != "k1" {
		t.Fatalf("rebuilt index -> %q %v", key, ok)
	}
}

// TestForEachMetaAndAny covers the zero-copy iteration paths,
// tombstones included.
func TestForEachMetaAndAny(t *testing.T) {
	s := New("r1")
	txn := s.Begin(ReadCommitted)
	txn.Put("a", Entry{"v": {"1"}})
	txn.Put("b", Entry{"v": {"2"}})
	txn.Commit()
	txn = s.Begin(ReadCommitted)
	txn.Delete("b")
	txn.Commit()

	metas := map[string]Meta{}
	s.ForEachMeta(func(k string, m Meta) bool {
		metas[k] = m
		return true
	})
	if len(metas) != 2 || !metas["b"].Tombstone || metas["a"].Tombstone {
		t.Fatalf("metas = %+v", metas)
	}

	rows := map[string]bool{}
	s.ForEachAny(func(k string, e Entry, m Meta) bool {
		rows[k] = m.Tombstone
		if !m.Tombstone && e.First("v") != "1" {
			t.Fatalf("row %s = %v", k, e)
		}
		return true
	})
	if len(rows) != 2 || !rows["b"] {
		t.Fatalf("rows = %+v", rows)
	}

	// Early stop honored.
	n := 0
	s.ForEachMeta(func(string, Meta) bool { n++; return false })
	if n != 1 {
		t.Fatalf("visited %d", n)
	}
}

// TestConcurrentEngineConsistency is the striped-engine property
// test: concurrent transactions on a master, the ordered replication
// stream applying onto a slave, and compare-and-put merges (the
// repair path) all race across shards. Afterwards every invariant the
// refactor must preserve is checked: CSN total order, live
// accounting, identity index consistency, and
// master/slave convergence. Run it under -race (CI does).
func TestConcurrentEngineConsistency(t *testing.T) {
	const (
		workers = 8
		perW    = 120
		keys    = 48
	)
	master := New("m")
	master.SetIndexedAttrs("imsi")
	slave := New("s")
	slave.SetRole(Slave)
	slave.SetIndexedAttrs("imsi")

	// The commit hook runs under commitMu, so records arrive here in
	// CSN order; the applier goroutine replays the stream onto the
	// slave concurrently with the writers.
	stream := make(chan *CommitRecord, workers*perW)
	master.SetCommitHook(func(rec *CommitRecord) error {
		stream <- rec
		return nil
	})
	var applied sync.WaitGroup
	applied.Add(1)
	go func() {
		defer applied.Done()
		for rec := range stream {
			if err := slave.ApplyReplicated(rec); err != nil {
				t.Errorf("apply: %v", err)
				return
			}
		}
	}()

	// Repair-style CAS traffic races the writers on the master: a
	// same-version CompareAndPut must succeed without corrupting
	// state, a stale-version one must fail.
	var cas sync.WaitGroup
	casStop := make(chan struct{})
	cas.Add(1)
	go func() {
		defer cas.Done()
		i := 0
		for {
			select {
			case <-casStop:
				return
			default:
			}
			key := fmt.Sprintf("k%02d", i%keys)
			if e, m, ok := master.GetAny(key); ok {
				master.CompareAndPut(key, m, true, e, m)
				stale := m
				stale.CSN++
				if master.CompareAndPut(key, stale, true, e, m) {
					t.Error("stale CompareAndPut succeeded")
					return
				}
			}
			i++
		}
	}()

	var wg sync.WaitGroup
	csnCh := make(chan uint64, workers*perW)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				key := fmt.Sprintf("k%02d", (w*perW+i)%keys)
				txn := master.Begin(ReadCommitted)
				switch i % 5 {
				case 0, 1, 2:
					txn.Put(key, Entry{"imsi": {"id-" + key}, "w": {fmt.Sprint(w)}})
				case 3:
					txn.Modify(key, Mod{Kind: ModReplace, Attr: "w", Vals: []string{fmt.Sprint(i)}})
				case 4:
					txn.Delete(key)
				}
				rec, err := txn.Commit()
				if err != nil {
					t.Error(err)
					return
				}
				csnCh <- rec.CSN
			}
		}(w)
	}
	wg.Wait()
	close(csnCh)
	close(casStop)
	cas.Wait()
	close(stream)
	applied.Wait()
	if t.Failed() {
		return // a goroutine already reported the failure
	}

	// CSN total order: every commit got a unique slot and the final
	// CSN equals the commit count.
	seen := make(map[uint64]bool)
	var maxCSN uint64
	for c := range csnCh {
		if seen[c] {
			t.Fatalf("duplicate CSN %d", c)
		}
		seen[c] = true
		if c > maxCSN {
			maxCSN = c
		}
	}
	if len(seen) != workers*perW || maxCSN != uint64(workers*perW) || master.CSN() != maxCSN {
		t.Fatalf("commits=%d max=%d csn=%d", len(seen), maxCSN, master.CSN())
	}

	// Live accounting agrees with a full scan of the shards.
	scanned := liveKeys(master)
	if master.Len() != len(scanned) {
		t.Fatalf("live = %d, scan = %d", master.Len(), len(scanned))
	}

	// Identity index: every live row resolves, no stale values.
	type liveRow struct{ key, id string }
	var rows []liveRow
	master.ForEach(func(k string, e Entry, _ Meta) bool {
		rows = append(rows, liveRow{k, e.First("imsi")})
		return true
	})
	for _, r := range rows {
		if r.id == "" {
			// A Modify that lands on a tombstoned row recreates it
			// from the mods alone, so a live row may legitimately
			// carry no imsi (its history ends delete→modify); there
			// is nothing for the index to resolve.
			continue
		}
		if key, ok := master.LookupByAttr("imsi", r.id); !ok || key != r.key {
			t.Fatalf("index: %s -> %q %v, want %s", r.id, key, ok, r.key)
		}
	}
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("k%02d", i)
		if master.isLive(key) {
			continue
		}
		if _, ok := master.LookupByAttr("imsi", "id-"+key); ok {
			t.Fatalf("dead row %s still indexed", key)
		}
	}

	// The slave replayed the full stream in order and converged.
	if slave.AppliedCSN() != master.CSN() {
		t.Fatalf("slave applied %d, master %d", slave.AppliedCSN(), master.CSN())
	}
	if slave.Len() != master.Len() {
		t.Fatalf("slave live %d, master %d", slave.Len(), master.Len())
	}
	master.ForEachAny(func(k string, e Entry, m Meta) bool {
		se, sm, ok := slave.GetAny(k)
		if !ok || sm.Tombstone != m.Tombstone || (!m.Tombstone && !e.Equal(se)) {
			t.Errorf("divergence at %s: master=%v/%v slave=%v/%v", k, e, m.Tombstone, se, sm.Tombstone)
			return false
		}
		return true
	})
}
