package store

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func entry(kv ...string) Entry {
	e := Entry{}
	for i := 0; i+1 < len(kv); i += 2 {
		e[kv[i]] = append(e[kv[i]], kv[i+1])
	}
	return e
}

func TestPutGetCommit(t *testing.T) {
	s := New("r1")
	txn := s.Begin(ReadCommitted)
	txn.Put("k1", entry("a", "1"))
	rec, err := txn.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if rec.CSN != 1 || len(rec.Ops) != 1 || rec.Origin != "r1" {
		t.Fatalf("rec = %+v", rec)
	}
	e, m, ok := s.GetCommitted("k1")
	if !ok || e.First("a") != "1" || m.CSN != 1 {
		t.Fatalf("get = %v %v %v", e, m, ok)
	}
	if s.Len() != 1 || s.CSN() != 1 {
		t.Fatalf("len=%d csn=%d", s.Len(), s.CSN())
	}
}

func TestReadCommittedIsolation(t *testing.T) {
	s := New("r1")
	seed := s.Begin(ReadCommitted)
	seed.Put("k", entry("v", "committed"))
	if _, err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	writer := s.Begin(ReadCommitted)
	writer.Put("k", entry("v", "uncommitted"))

	// A concurrent reader must see only the committed version.
	reader := s.Begin(ReadCommitted)
	e, _, ok := reader.Get("k")
	if !ok || e.First("v") != "committed" {
		t.Fatalf("reader saw %v (dirty read!)", e)
	}

	// The writer itself sees its own write.
	e, _, ok = writer.Get("k")
	if !ok || e.First("v") != "uncommitted" {
		t.Fatalf("writer saw %v (no read-your-writes)", e)
	}

	if _, err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
	e, _, _ = s.GetCommitted("k")
	if e.First("v") != "uncommitted" {
		t.Fatalf("after commit: %v", e)
	}
}

func TestModifySemantics(t *testing.T) {
	s := New("r1")
	txn := s.Begin(ReadCommitted)
	txn.Put("k", entry("flags", "a"))
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	txn = s.Begin(ReadCommitted)
	txn.Modify("k",
		Mod{Kind: ModAdd, Attr: "flags", Vals: []string{"b"}},
		Mod{Kind: ModReplace, Attr: "x", Vals: []string{"1"}},
	)
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	e, _, _ := s.GetCommitted("k")
	if len(e["flags"]) != 2 || e.First("x") != "1" {
		t.Fatalf("entry = %v", e)
	}

	txn = s.Begin(ReadCommitted)
	txn.Modify("k",
		Mod{Kind: ModDelete, Attr: "flags", Vals: []string{"a"}},
		Mod{Kind: ModDelete, Attr: "x"},
	)
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	e, _, _ = s.GetCommitted("k")
	if len(e["flags"]) != 1 || e["flags"][0] != "b" {
		t.Fatalf("flags = %v", e["flags"])
	}
	if _, ok := e["x"]; ok {
		t.Fatalf("x not deleted: %v", e)
	}
}

func TestModifyReplaceEmptyDeletesAttr(t *testing.T) {
	s := New("r1")
	txn := s.Begin(ReadCommitted)
	txn.Put("k", entry("a", "1"))
	txn.Commit()
	txn = s.Begin(ReadCommitted)
	txn.Modify("k", Mod{Kind: ModReplace, Attr: "a"})
	txn.Commit()
	e, _, _ := s.GetCommitted("k")
	if _, ok := e["a"]; ok {
		t.Fatalf("attr survived empty replace: %v", e)
	}
}

func TestDelete(t *testing.T) {
	s := New("r1")
	txn := s.Begin(ReadCommitted)
	txn.Put("k", entry("a", "1"))
	txn.Commit()
	txn = s.Begin(ReadCommitted)
	txn.Delete("k")
	rec, err := txn.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Ops[0].Kind != OpDelete {
		t.Fatalf("op = %v", rec.Ops[0])
	}
	if _, _, ok := s.GetCommitted("k"); ok {
		t.Fatal("deleted row still visible")
	}
	if s.Len() != 0 {
		t.Fatalf("len = %d", s.Len())
	}
	// Tombstone retained for anti-entropy.
	if m, ok := s.MetaOf("k"); !ok || !m.Tombstone {
		t.Fatalf("tombstone meta = %v %v", m, ok)
	}
}

func TestAtomicMultiRowCommit(t *testing.T) {
	s := New("r1")
	txn := s.Begin(ReadCommitted)
	txn.Put("a", entry("v", "1"))
	txn.Put("b", entry("v", "2"))
	txn.Delete("c")
	rec, err := txn.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if rec.CSN != 1 || len(rec.Ops) != 3 {
		t.Fatalf("rec = %+v", rec)
	}
	// All rows carry the same commit CSN: atomicity witness.
	_, ma, _ := s.GetCommitted("a")
	_, mb, _ := s.GetCommitted("b")
	if ma.CSN != mb.CSN {
		t.Fatalf("csns differ: %d %d", ma.CSN, mb.CSN)
	}
}

func TestReadOnlyCommitNoRecord(t *testing.T) {
	s := New("r1")
	txn := s.Begin(ReadCommitted)
	txn.Get("nothing")
	rec, err := txn.Commit()
	if err != nil || rec != nil {
		t.Fatalf("read-only commit: %v %v", rec, err)
	}
	if s.CSN() != 0 {
		t.Fatalf("csn = %d", s.CSN())
	}
}

func TestDoubleCommitFails(t *testing.T) {
	s := New("r1")
	txn := s.Begin(ReadCommitted)
	txn.Put("k", entry("a", "1"))
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("second commit err = %v", err)
	}
}

func TestAbort(t *testing.T) {
	s := New("r1")
	txn := s.Begin(ReadCommitted)
	txn.Put("k", entry("a", "1"))
	txn.Abort()
	if _, err := txn.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("commit after abort = %v", err)
	}
	if _, _, ok := s.GetCommitted("k"); ok {
		t.Fatal("aborted write visible")
	}
}

func TestSlaveRejectsWrites(t *testing.T) {
	s := New("r1")
	s.SetRole(Slave)
	txn := s.Begin(ReadCommitted)
	txn.Put("k", entry("a", "1"))
	if _, err := txn.Commit(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("slave write err = %v", err)
	}
	// Multi-master mode lifts the restriction (§5).
	s.SetMultiMaster(true)
	txn = s.Begin(ReadCommitted)
	txn.Put("k", entry("a", "1"))
	if _, err := txn.Commit(); err != nil {
		t.Fatalf("multi-master write: %v", err)
	}
}

func TestCapacity(t *testing.T) {
	s := New("r1")
	s.SetCapacity(2)
	for i := 0; i < 2; i++ {
		txn := s.Begin(ReadCommitted)
		txn.Put(fmt.Sprintf("k%d", i), entry("a", "1"))
		if _, err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	txn := s.Begin(ReadCommitted)
	txn.Put("k2", entry("a", "1"))
	if _, err := txn.Commit(); !errors.Is(err, ErrStoreFull) {
		t.Fatalf("over-capacity err = %v", err)
	}
	// Updates to existing rows still work at capacity.
	txn = s.Begin(ReadCommitted)
	txn.Put("k0", entry("a", "2"))
	if _, err := txn.Commit(); err != nil {
		t.Fatalf("update at capacity: %v", err)
	}
	// Deleting frees a slot.
	txn = s.Begin(ReadCommitted)
	txn.Delete("k0")
	txn.Commit()
	txn = s.Begin(ReadCommitted)
	txn.Put("k2", entry("a", "1"))
	if _, err := txn.Commit(); err != nil {
		t.Fatalf("insert after delete: %v", err)
	}
}

func TestApplyReplicatedOrder(t *testing.T) {
	master := New("m")
	slave := New("s")
	slave.SetRole(Slave)

	var recs []*CommitRecord
	for i := 0; i < 3; i++ {
		txn := master.Begin(ReadCommitted)
		txn.Put(fmt.Sprintf("k%d", i), entry("v", fmt.Sprint(i)))
		rec, err := txn.Commit()
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}

	// Out-of-order apply must be rejected (serialization order
	// guarantee, §3.2).
	if err := slave.ApplyReplicated(recs[1]); !errors.Is(err, ErrBadCSN) {
		t.Fatalf("gap apply err = %v", err)
	}
	for _, rec := range recs {
		if err := slave.ApplyReplicated(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate delivery is idempotent.
	if err := slave.ApplyReplicated(recs[2]); err != nil {
		t.Fatalf("duplicate apply err = %v", err)
	}
	if slave.AppliedCSN() != 3 || slave.Len() != 3 {
		t.Fatalf("applied=%d len=%d", slave.AppliedCSN(), slave.Len())
	}
	e, _, _ := slave.GetCommitted("k2")
	if e.First("v") != "2" {
		t.Fatalf("slave row = %v", e)
	}
}

func TestModifyPostImageConvergesSlave(t *testing.T) {
	// Slaves apply post-images, so they converge even for modify ops.
	master := New("m")
	slave := New("s")
	slave.SetRole(Slave)

	txn := master.Begin(ReadCommitted)
	txn.Put("k", entry("n", "1"))
	rec, _ := txn.Commit()
	slave.ApplyReplicated(rec)

	txn = master.Begin(ReadCommitted)
	txn.Modify("k", Mod{Kind: ModReplace, Attr: "n", Vals: []string{"2"}})
	rec, _ = txn.Commit()
	if rec.Ops[0].Entry.First("n") != "2" {
		t.Fatalf("post-image = %v", rec.Ops[0].Entry)
	}
	slave.ApplyReplicated(rec)
	e, _, _ := slave.GetCommitted("k")
	if e.First("n") != "2" {
		t.Fatalf("slave = %v", e)
	}
}

func TestCommitHookFailureSurfaces(t *testing.T) {
	s := New("r1")
	hookErr := errors.New("durability failed")
	s.SetCommitHook(func(rec *CommitRecord) error { return hookErr })
	txn := s.Begin(ReadCommitted)
	txn.Put("k", entry("a", "1"))
	_, err := txn.Commit()
	if !errors.Is(err, hookErr) {
		t.Fatalf("err = %v", err)
	}
	// Data stays committed locally (the paper's "one replica updated
	// is acceptable").
	if _, _, ok := s.GetCommitted("k"); !ok {
		t.Fatal("local data rolled back")
	}
}

func TestConcurrentCommitsSerialize(t *testing.T) {
	s := New("r1")
	const workers, per = 8, 50
	var wg sync.WaitGroup
	csns := make(chan uint64, workers*per)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				txn := s.Begin(ReadCommitted)
				txn.Put(fmt.Sprintf("w%d-k%d", w, i), entry("v", "1"))
				rec, err := txn.Commit()
				if err != nil {
					t.Error(err)
					return
				}
				csns <- rec.CSN
			}
		}(w)
	}
	wg.Wait()
	close(csns)
	seen := make(map[uint64]bool)
	for c := range csns {
		if seen[c] {
			t.Fatalf("duplicate CSN %d", c)
		}
		seen[c] = true
	}
	if len(seen) != workers*per || s.CSN() != uint64(workers*per) {
		t.Fatalf("commits=%d csn=%d", len(seen), s.CSN())
	}
}

func TestReplay(t *testing.T) {
	s := New("r1")
	rec := &CommitRecord{CSN: 5, Origin: "r1", Ops: []Op{
		{Kind: OpPut, Key: "k", Entry: entry("a", "1")},
	}}
	s.Replay(rec)
	if s.CSN() != 5 || s.Len() != 1 {
		t.Fatalf("csn=%d len=%d", s.CSN(), s.Len())
	}
	// Next commit continues the sequence.
	txn := s.Begin(ReadCommitted)
	txn.Put("k2", entry("a", "2"))
	rec2, _ := txn.Commit()
	if rec2.CSN != 6 {
		t.Fatalf("csn after replay = %d", rec2.CSN)
	}
}

func TestEntryCloneIndependent(t *testing.T) {
	e := entry("a", "1")
	c := e.Clone()
	c["a"][0] = "mutated"
	c["b"] = []string{"2"}
	if e.First("a") != "1" || len(e) != 1 {
		t.Fatalf("clone not independent: %v", e)
	}
	var nilE Entry
	if nilE.Clone() != nil {
		t.Fatal("nil clone should be nil")
	}
}

func TestGetReturnsImmutableVersion(t *testing.T) {
	// Reads hand back the installed copy-on-write version with zero
	// copying. A later commit must install a fresh version, never
	// mutate the one an earlier reader still holds.
	s := New("r1")
	txn := s.Begin(ReadCommitted)
	txn.Put("k", entry("a", "1"))
	txn.Commit()
	e1, _, _ := s.GetCommitted("k")

	txn = s.Begin(ReadCommitted)
	txn.Put("k", entry("a", "2"))
	txn.Commit()
	txn = s.Begin(ReadCommitted)
	txn.Modify("k", Mod{Kind: ModReplace, Attr: "a", Vals: []string{"3"}})
	txn.Commit()

	if e1.First("a") != "1" {
		t.Fatalf("old version mutated in place: %v", e1)
	}
	e2, _, _ := s.GetCommitted("k")
	if e2.First("a") != "3" {
		t.Fatalf("new version = %v", e2)
	}
	// The caller-supplied entry stays decoupled from the store.
	in := entry("a", "4")
	txn = s.Begin(ReadCommitted)
	txn.Put("k", in)
	txn.Commit()
	in["a"][0] = "mutated"
	e3, _, _ := s.GetCommitted("k")
	if e3.First("a") != "4" {
		t.Fatal("caller mutation leaked into the store")
	}
}

func TestMultiMasterTicksVC(t *testing.T) {
	s := New("r1")
	s.SetMultiMaster(true)
	txn := s.Begin(ReadCommitted)
	txn.Put("k", entry("a", "1"))
	rec, err := txn.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Ops[0].VC.Get("r1") != 1 {
		t.Fatalf("op VC = %v", rec.Ops[0].VC)
	}
	_, m, _ := s.GetCommitted("k")
	if m.VC.Get("r1") != 1 {
		t.Fatalf("row VC = %v", m.VC)
	}
	// Second write ticks again.
	txn = s.Begin(ReadCommitted)
	txn.Put("k", entry("a", "2"))
	rec, _ = txn.Commit()
	if rec.Ops[0].VC.Get("r1") != 2 {
		t.Fatalf("second op VC = %v", rec.Ops[0].VC)
	}
}

func TestWallTSMonotonic(t *testing.T) {
	s := New("r1")
	var last int64
	for i := 0; i < 100; i++ {
		txn := s.Begin(ReadCommitted)
		txn.Put("k", entry("a", fmt.Sprint(i)))
		rec, err := txn.Commit()
		if err != nil {
			t.Fatal(err)
		}
		if rec.WallTS <= last {
			t.Fatalf("WallTS not monotonic: %d then %d", last, rec.WallTS)
		}
		last = rec.WallTS
	}
}

func TestEntryEqualProperty(t *testing.T) {
	f := func(keys []uint8, vals []string) bool {
		e := Entry{}
		for i, k := range keys {
			attr := fmt.Sprintf("a%d", k%8)
			v := "v"
			if i < len(vals) {
				v = vals[i]
			}
			e[attr] = append(e[attr], v)
		}
		return e.Equal(e.Clone())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachSkipsTombstones(t *testing.T) {
	s := New("r1")
	for _, k := range []string{"z", "a", "m"} {
		txn := s.Begin(ReadCommitted)
		txn.Put(k, entry("v", "1"))
		txn.Commit()
	}
	txn := s.Begin(ReadCommitted)
	txn.Delete("m")
	txn.Commit()
	keys := liveKeys(s)
	if !slices.Equal(keys, []string{"a", "z"}) {
		t.Fatalf("keys = %v", keys)
	}
}

// liveKeys returns the store's live keys, sorted.
func liveKeys(s *Store) []string {
	var keys []string
	s.ForEach(func(k string, _ Entry, _ Meta) bool {
		keys = append(keys, k)
		return true
	})
	slices.Sort(keys)
	return keys
}

func TestForEachEarlyStop(t *testing.T) {
	s := New("r1")
	for i := 0; i < 10; i++ {
		txn := s.Begin(ReadCommitted)
		txn.Put(fmt.Sprintf("k%d", i), entry("v", "1"))
		txn.Commit()
	}
	count := 0
	s.ForEach(func(string, Entry, Meta) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("visited %d", count)
	}
}

// Allocation gates for the two hot primitives every request crosses:
// a committed read shares the immutable row version, and a slave's
// ordered apply installs the record's post-image as is.

func TestGetCommittedAllocs(t *testing.T) {
	s := New("r1")
	s.SetIndexedAttrs("imsi")
	const n = 1024
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("sub-%d", i)
		txn := s.Begin(ReadCommitted)
		txn.Put(keys[i], entry("v", "1", "imsi", fmt.Sprintf("21401%09d", i)))
		if _, err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	got := testing.AllocsPerRun(4*n, func() {
		if _, _, ok := s.GetCommitted(keys[i%n]); !ok {
			t.Fatal("missing row")
		}
		i++
	})
	if got != 0 {
		t.Errorf("GetCommitted = %.0f allocs/op, want 0", got)
	}
}

func TestApplyReplicatedAllocs(t *testing.T) {
	master, slave := New("m"), New("s")
	slave.SetRole(Slave)
	const n = 2048
	recs := make([]*CommitRecord, n+1) // +1: AllocsPerRun's warm-up call
	for i := range recs {
		txn := master.Begin(ReadCommitted)
		txn.Put(fmt.Sprintf("k-%d", i), entry("v", "1"))
		rec, err := txn.Commit()
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = rec
	}
	i := 0
	got := testing.AllocsPerRun(n, func() {
		if err := slave.ApplyReplicated(recs[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if got > 1 || slave.AppliedCSN() != uint64(len(recs)) {
		t.Errorf("slave ApplyReplicated = %.0f allocs/op (applied through %d of %d), want ≤ 1",
			got, slave.AppliedCSN(), len(recs))
	}
}

// wideRow is a 16-attribute row shaped like a provisioned subscriber.
func wideRow() Entry {
	e := Entry{}
	for i := 0; i < 16; i++ {
		e[fmt.Sprintf("attr%02d", i)] = []string{fmt.Sprintf("value-%d", i)}
	}
	return e
}

// TestTxnModifyCommitAllocs gates a one-row, one-attribute modify of a
// 16-attribute row: the Txn stays on the stack, the record and its op
// share one allocation, and the post-image is a shallow copy that
// re-packs nothing but the replaced attribute.
func TestTxnModifyCommitAllocs(t *testing.T) {
	s := New("r1")
	txn := s.Begin(ReadCommitted)
	txn.Put("k", wideRow())
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	mods := []Mod{{Kind: ModReplace, Attr: "attr07", Vals: []string{"v"}}}
	got := testing.AllocsPerRun(1000, func() {
		txn := s.Begin(ReadCommitted)
		txn.Modify("k", mods...)
		if _, err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("one-row modify commit: %.0f allocs", got)
	if got > 7 {
		t.Errorf("one-row modify commit = %.0f allocs/op, want ≤ 7", got)
	}
}

// TestTxnReadAllocs gates a read-only transaction: Begin, Get and
// Commit share the installed version and allocate nothing.
func TestTxnReadAllocs(t *testing.T) {
	s := New("r1")
	txn := s.Begin(ReadCommitted)
	txn.Put("k", wideRow())
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(1000, func() {
		txn := s.Begin(ReadCommitted)
		if _, _, ok := txn.Get("k"); !ok {
			t.Fatal("missing row")
		}
		if rec, err := txn.Commit(); rec != nil || err != nil {
			t.Fatal(rec, err)
		}
	})
	if got != 0 {
		t.Errorf("read-only txn = %.0f allocs/op, want 0", got)
	}
}
