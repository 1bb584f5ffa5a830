package se

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/subscriber"
	"repro/internal/wal"
)

// call sends msg to an element. A TxnReq travels in a TxnCall
// envelope, and the envelope's *TxnResp comes back.
func call(t *testing.T, n *simnet.Network, to simnet.Addr, msg any) (any, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	from := simnet.MakeAddr("test", "client")
	req, ok := msg.(TxnReq)
	if !ok {
		return n.Call(ctx, from, to, msg)
	}
	c := &TxnCall{Req: req}
	raw, err := n.Call(ctx, from, to, c)
	if err != nil {
		return nil, err
	}
	if raw != any(c) {
		t.Fatalf("element answered %T, not its envelope", raw)
	}
	return &c.Resp, nil
}

func newElement(t *testing.T, n *simnet.Network, id, site string) *Element {
	t.Helper()
	el := New(n, Config{ID: id, Site: site})
	t.Cleanup(el.Stop)
	return el
}

func TestTxnPutGet(t *testing.T) {
	n := simnet.New(simnet.FastConfig())
	el := newElement(t, n, "se-1", "eu")
	if _, err := el.AddReplica("p1", store.Master); err != nil {
		t.Fatal(err)
	}

	resp, err := call(t, n, el.Addr(), TxnReq{
		Partition: "p1",
		Ops: []TxnOp{
			{Kind: TxnPut, Key: "sub-1", Entry: store.Entry{"msisdn": {"34600000001"}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(*TxnResp).CSN != 1 {
		t.Fatalf("csn = %d", resp.(*TxnResp).CSN)
	}

	resp, err = call(t, n, el.Addr(), TxnReq{
		Partition: "p1",
		Ops:       []TxnOp{{Kind: TxnGet, Key: "sub-1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := resp.(*TxnResp)
	if !r.Results[0].Found || r.Results[0].Entry.First("msisdn") != "34600000001" {
		t.Fatalf("get = %+v", r.Results[0])
	}
	if r.Role != store.Master {
		t.Fatalf("role = %v", r.Role)
	}
	if el.Reads.Value() != 1 || el.Writes.Value() != 1 {
		t.Fatalf("reads=%d writes=%d", el.Reads.Value(), el.Writes.Value())
	}
}

func TestTxnAtomicReadModify(t *testing.T) {
	n := simnet.New(simnet.FastConfig())
	el := newElement(t, n, "se-1", "eu")
	el.AddReplica("p1", store.Master)

	call(t, n, el.Addr(), TxnReq{Partition: "p1", Ops: []TxnOp{
		{Kind: TxnPut, Key: "k", Entry: store.Entry{"bar": {"FALSE"}}},
	}})
	resp, err := call(t, n, el.Addr(), TxnReq{Partition: "p1", Ops: []TxnOp{
		{Kind: TxnGet, Key: "k"},
		{Kind: TxnModify, Key: "k", Mods: []store.Mod{{Kind: store.ModReplace, Attr: "bar", Vals: []string{"TRUE"}}}},
		{Kind: TxnGet, Key: "k"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	r := resp.(*TxnResp)
	if r.Results[0].Entry.First("bar") != "FALSE" {
		t.Fatalf("pre-image = %v", r.Results[0].Entry)
	}
	// The third op reads the transaction's own write.
	if r.Results[2].Entry.First("bar") != "TRUE" {
		t.Fatalf("read-your-writes = %v", r.Results[2].Entry)
	}
}

func TestTxnCompare(t *testing.T) {
	n := simnet.New(simnet.FastConfig())
	el := newElement(t, n, "se-1", "eu")
	el.AddReplica("p1", store.Master)
	call(t, n, el.Addr(), TxnReq{Partition: "p1", Ops: []TxnOp{
		{Kind: TxnPut, Key: "k", Entry: store.Entry{"active": {"TRUE"}}},
	}})
	resp, _ := call(t, n, el.Addr(), TxnReq{Partition: "p1", Ops: []TxnOp{
		{Kind: TxnCompare, Key: "k", Attr: "active", Value: "TRUE"},
		{Kind: TxnCompare, Key: "k", Attr: "active", Value: "FALSE"},
		{Kind: TxnCompare, Key: "missing", Attr: "x", Value: "1"},
	}})
	r := resp.(*TxnResp)
	if !r.Results[0].CompareOK || r.Results[1].CompareOK {
		t.Fatalf("compare = %+v", r.Results)
	}
	if r.Results[2].Found {
		t.Fatal("compare on missing row should report not-found")
	}
}

func TestUnknownPartition(t *testing.T) {
	n := simnet.New(simnet.FastConfig())
	el := newElement(t, n, "se-1", "eu")
	_, err := call(t, n, el.Addr(), TxnReq{Partition: "nope"})
	if err == nil || !errors.Is(err, ErrUnknownPartition) {
		t.Fatalf("err = %v", err)
	}
}

func TestSlaveRejectsWriteServesRead(t *testing.T) {
	n := simnet.New(simnet.FastConfig())
	el := newElement(t, n, "se-1", "eu")
	pr, _ := el.AddReplica("p1", store.Slave)
	pr.Store.ApplyReplicated(&store.CommitRecord{CSN: 1, Origin: "m", Ops: []store.Op{
		{Kind: store.OpPut, Key: "k", Entry: store.Entry{"v": {"1"}}},
	}})

	// Read succeeds.
	resp, err := call(t, n, el.Addr(), TxnReq{Partition: "p1", Ops: []TxnOp{{Kind: TxnGet, Key: "k"}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(*TxnResp).Role != store.Slave {
		t.Fatal("role should be slave")
	}
	// Write fails.
	_, err = call(t, n, el.Addr(), TxnReq{Partition: "p1", Ops: []TxnOp{
		{Kind: TxnPut, Key: "k", Entry: store.Entry{"v": {"2"}}},
	}})
	if !errors.Is(err, store.ErrReadOnly) {
		t.Fatalf("err = %v", err)
	}
}

func TestFind(t *testing.T) {
	n := simnet.New(simnet.FastConfig())
	el := newElement(t, n, "se-1", "eu")
	el.AddReplica("p1", store.Master)
	call(t, n, el.Addr(), TxnReq{Partition: "p1", Ops: []TxnOp{
		{Kind: TxnPut, Key: "sub-7", Entry: store.Entry{
			"msisdn": {"34600000007"},
			"impu":   {"sip:+34600000007@ims", "tel:+34600000007"},
		}},
	}})

	resp, err := call(t, n, el.Addr(), FindReq{
		Identity: subscriber.Identity{Type: subscriber.MSISDN, Value: "34600000007"},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := resp.(FindResp)
	if !f.Found || f.SubscriberID != "sub-7" || f.Partition != "p1" {
		t.Fatalf("find = %+v", f)
	}

	// Multi-valued attribute search.
	resp, _ = call(t, n, el.Addr(), FindReq{
		Identity: subscriber.Identity{Type: subscriber.IMPU, Value: "tel:+34600000007"},
	})
	if !resp.(FindResp).Found {
		t.Fatal("IMPU find failed")
	}

	// Miss.
	resp, _ = call(t, n, el.Addr(), FindReq{
		Identity: subscriber.Identity{Type: subscriber.MSISDN, Value: "nope"},
	})
	if resp.(FindResp).Found {
		t.Fatal("found a ghost")
	}
}

func TestFindIndexedMatchesLegacyScan(t *testing.T) {
	n := simnet.New(simnet.FastConfig())
	idxEl := New(n, Config{ID: "se-idx", Site: "eu", IdentityIndex: true})
	scanEl := New(n, Config{ID: "se-scan", Site: "eu"})
	t.Cleanup(idxEl.Stop)
	t.Cleanup(scanEl.Stop)
	for _, el := range []*Element{idxEl, scanEl} {
		pr, err := el.AddReplica("p1", store.Master)
		if err != nil {
			t.Fatal(err)
		}
		if indexed := len(pr.Store.IndexedAttrs()) > 0; indexed != (el == idxEl) {
			t.Fatalf("%s: indexed = %v", el.ID(), indexed)
		}
		call(t, n, el.Addr(), TxnReq{Partition: "p1", Ops: []TxnOp{
			{Kind: TxnPut, Key: "sub-1", Entry: store.Entry{"imsi": {"214010000000001"}}},
			{Kind: TxnPut, Key: "sub-2", Entry: store.Entry{"impu": {"sip:2@ims", "tel:2"}}},
		}})
	}

	probes := []subscriber.Identity{
		{Type: subscriber.IMSI, Value: "214010000000001"},
		{Type: subscriber.IMPU, Value: "tel:2"},
		{Type: subscriber.IMSI, Value: "ghost"},
	}
	for _, id := range probes {
		a, err := call(t, n, idxEl.Addr(), FindReq{Identity: id})
		if err != nil {
			t.Fatal(err)
		}
		b, err := call(t, n, scanEl.Addr(), FindReq{Identity: id})
		if err != nil {
			t.Fatal(err)
		}
		if a.(FindResp) != b.(FindResp) {
			t.Fatalf("id %v: indexed %+v, scan %+v", id, a, b)
		}
	}

	// The index tracks writes: re-pointing an identity moves the
	// answer, deleting the row clears it.
	call(t, n, idxEl.Addr(), TxnReq{Partition: "p1", Ops: []TxnOp{
		{Kind: TxnModify, Key: "sub-1", Mods: []store.Mod{
			{Kind: store.ModReplace, Attr: "imsi", Vals: []string{"214010000000009"}}}},
	}})
	resp, _ := call(t, n, idxEl.Addr(), FindReq{
		Identity: subscriber.Identity{Type: subscriber.IMSI, Value: "214010000000001"}})
	if resp.(FindResp).Found {
		t.Fatal("stale identity still resolvable")
	}
	resp, _ = call(t, n, idxEl.Addr(), FindReq{
		Identity: subscriber.Identity{Type: subscriber.IMSI, Value: "214010000000009"}})
	if f := resp.(FindResp); !f.Found || f.SubscriberID != "sub-1" {
		t.Fatalf("re-pointed identity = %+v", f)
	}
	call(t, n, idxEl.Addr(), TxnReq{Partition: "p1", Ops: []TxnOp{{Kind: TxnDelete, Key: "sub-2"}}})
	resp, _ = call(t, n, idxEl.Addr(), FindReq{
		Identity: subscriber.Identity{Type: subscriber.IMPU, Value: "tel:2"}})
	if resp.(FindResp).Found {
		t.Fatal("deleted row still resolvable through the index")
	}
}

func TestFindSkipsSlaves(t *testing.T) {
	n := simnet.New(simnet.FastConfig())
	el := newElement(t, n, "se-1", "eu")
	pr, _ := el.AddReplica("p1", store.Slave)
	pr.Store.ApplyReplicated(&store.CommitRecord{CSN: 1, Origin: "m", Ops: []store.Op{
		{Kind: store.OpPut, Key: "sub-1", Entry: store.Entry{"msisdn": {"1"}}},
	}})
	resp, _ := call(t, n, el.Addr(), FindReq{
		Identity: subscriber.Identity{Type: subscriber.MSISDN, Value: "1"},
	})
	if resp.(FindResp).Found {
		t.Fatal("find should only consult master replicas")
	}
}

func TestStatus(t *testing.T) {
	n := simnet.New(simnet.FastConfig())
	el := newElement(t, n, "se-1", "eu")
	el.AddReplica("p1", store.Master)
	el.AddReplica("p2", store.Slave)
	resp, err := call(t, n, el.Addr(), StatusReq{})
	if err != nil {
		t.Fatal(err)
	}
	st := resp.(StatusResp)
	if st.ID != "se-1" || len(st.Replicas) != 2 {
		t.Fatalf("status = %+v", st)
	}
	if st.Replicas[0].Partition != "p1" || st.Replicas[0].Role != store.Master {
		t.Fatalf("replica status = %+v", st.Replicas[0])
	}
}

func TestCrashRecoverWithWAL(t *testing.T) {
	n := simnet.New(simnet.FastConfig())
	dir := t.TempDir()
	el := New(n, Config{
		ID: "se-1", Site: "eu",
		WALDir: dir, WALMode: wal.SyncEveryCommit,
	})
	t.Cleanup(el.Stop)
	if _, err := el.AddReplica("p1", store.Master); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 5; i++ {
		if _, err := call(t, n, el.Addr(), TxnReq{Partition: "p1", Ops: []TxnOp{
			{Kind: TxnPut, Key: fmt.Sprintf("k%d", i), Entry: store.Entry{"v": {fmt.Sprint(i)}}},
		}}); err != nil {
			t.Fatal(err)
		}
	}

	el.Crash()
	if !el.Down() {
		t.Fatal("not down")
	}
	if _, err := call(t, n, el.Addr(), TxnReq{Partition: "p1"}); !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("crashed element reachable: %v", err)
	}

	replayed, err := el.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if replayed["p1"] != 5 {
		t.Fatalf("replayed = %v", replayed)
	}
	resp, err := call(t, n, el.Addr(), TxnReq{Partition: "p1", Ops: []TxnOp{{Kind: TxnGet, Key: "k3"}}})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.(*TxnResp).Results[0].Found {
		t.Fatal("data lost across recovery")
	}
}

func TestCrashWithoutWALLosesData(t *testing.T) {
	// RAM-only element: crash loses everything (the §3.1 hazard the
	// WAL exists to mitigate).
	n := simnet.New(simnet.FastConfig())
	el := newElement(t, n, "se-1", "eu")
	el.AddReplica("p1", store.Master)
	call(t, n, el.Addr(), TxnReq{Partition: "p1", Ops: []TxnOp{
		{Kind: TxnPut, Key: "k", Entry: store.Entry{"v": {"1"}}},
	}})
	el.Crash()
	if _, err := el.Recover(); err != nil {
		t.Fatal(err)
	}
	resp, err := call(t, n, el.Addr(), TxnReq{Partition: "p1", Ops: []TxnOp{{Kind: TxnGet, Key: "k"}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(*TxnResp).Results[0].Found {
		t.Fatal("RAM data survived a crash without WAL")
	}
}

func TestRecoverNotCrashed(t *testing.T) {
	n := simnet.New(simnet.FastConfig())
	el := newElement(t, n, "se-1", "eu")
	if _, err := el.Recover(); err == nil {
		t.Fatal("recover on a live element should fail")
	}
}

func TestCapacityEnforced(t *testing.T) {
	n := simnet.New(simnet.FastConfig())
	el := New(n, Config{ID: "se-1", Site: "eu", CapacityPerPartition: 2})
	t.Cleanup(el.Stop)
	el.AddReplica("p1", store.Master)
	for i := 0; i < 2; i++ {
		if _, err := call(t, n, el.Addr(), TxnReq{Partition: "p1", Ops: []TxnOp{
			{Kind: TxnPut, Key: fmt.Sprintf("k%d", i), Entry: store.Entry{"v": {"1"}}},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := call(t, n, el.Addr(), TxnReq{Partition: "p1", Ops: []TxnOp{
		{Kind: TxnPut, Key: "k2", Entry: store.Entry{"v": {"1"}}},
	}})
	if !errors.Is(err, store.ErrStoreFull) {
		t.Fatalf("err = %v", err)
	}
}

func TestPartitionsSorted(t *testing.T) {
	n := simnet.New(simnet.FastConfig())
	el := newElement(t, n, "se-1", "eu")
	el.AddReplica("p-z", store.Master)
	el.AddReplica("p-a", store.Slave)
	ps := el.Partitions()
	if len(ps) != 2 || ps[0] != "p-a" {
		t.Fatalf("partitions = %v", ps)
	}
}

func TestPeriodicSnapshotCompactsWAL(t *testing.T) {
	n := simnet.New(simnet.FastConfig())
	dir := t.TempDir()
	el := New(n, Config{
		ID: "se-1", Site: "eu",
		WALDir: dir, WALMode: wal.SyncEveryCommit,
		CheckpointInterval: 10 * time.Millisecond,
	})
	t.Cleanup(el.Stop)
	if _, err := el.AddReplica("p1", store.Master); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := call(t, n, el.Addr(), TxnReq{Partition: "p1", Ops: []TxnOp{
			{Kind: TxnPut, Key: fmt.Sprintf("k%d", i), Entry: store.Entry{"v": {fmt.Sprint(i)}}},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for el.Checkpoints.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("snapshotter never ran")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Crash and recover: the data must come back from the snapshot
	// (+ any tail), not be lost.
	el.Crash()
	if _, err := el.Recover(); err != nil {
		t.Fatal(err)
	}
	resp, err := call(t, n, el.Addr(), TxnReq{Partition: "p1", Ops: []TxnOp{{Kind: TxnGet, Key: "k15"}}})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.(*TxnResp).Results[0].Found {
		t.Fatal("data lost after snapshot + recover")
	}
}

func TestCheckpointAllManual(t *testing.T) {
	n := simnet.New(simnet.FastConfig())
	el := New(n, Config{
		ID: "se-1", Site: "eu",
		WALDir: t.TempDir(), WALMode: wal.Periodic,
	})
	t.Cleanup(el.Stop)
	el.AddReplica("p1", store.Master)
	el.AddReplica("p2", store.Slave)
	if got := el.CheckpointAll(); got != 2 {
		t.Fatalf("snapshotted %d replicas, want 2", got)
	}
}

// TestTxnObserver pins the server-side op-history hook: the observer
// runs synchronously inside the request handler, sees the client's
// tag, and — crucially for the consistency checker — still receives
// the assigned CSN when a commit applied but its durability wait
// failed (the transaction took effect despite the client-visible
// error).
func TestTxnObserver(t *testing.T) {
	n := simnet.New(simnet.FastConfig())
	el := newElement(t, n, "se-1", "eu")
	pr, err := el.AddReplica("p1", store.Master)
	if err != nil {
		t.Fatal(err)
	}

	type seen struct {
		tag string
		csn uint64
		err error
	}
	var events []seen
	el.SetTxnObserver(func(_ simnet.Addr, req TxnReq, resp TxnResp, err error) {
		events = append(events, seen{req.Tag, resp.CSN, err})
	})

	if _, err := call(t, n, el.Addr(), TxnReq{
		Partition: "p1",
		Tag:       "op-1",
		Ops:       []TxnOp{{Kind: TxnPut, Key: "sub-1", Entry: store.Entry{"v": {"1"}}}},
	}); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].tag != "op-1" || events[0].csn != 1 || events[0].err != nil {
		t.Fatalf("observer events = %+v", events)
	}

	// Durability-wait failure: commit applies, client gets an error,
	// the observer must still see the CSN (attribution for lost acks).
	pipeErr := errors.New("durability wait failed")
	pr.Store.SetCommitPipeline(func(rec *store.CommitRecord) (func() error, error) {
		return func() error { return pipeErr }, nil
	})
	if _, err := call(t, n, el.Addr(), TxnReq{
		Partition: "p1",
		Tag:       "op-2",
		Ops:       []TxnOp{{Kind: TxnPut, Key: "sub-2", Entry: store.Entry{"v": {"2"}}}},
	}); err == nil {
		t.Fatal("durability failure not surfaced to the client")
	}
	if len(events) != 2 || events[1].tag != "op-2" || events[1].csn != 2 || events[1].err == nil {
		t.Fatalf("observer events = %+v", events)
	}
	if _, _, ok := pr.Store.GetCommitted("sub-2"); !ok {
		t.Fatal("commit with failed durability wait should still be applied")
	}
}

// TestReplicaFootprint gates the heap one default element's master
// replica holds per subscriber row, committed the way provisioning
// seeds them. A default element keeps no secondary index, so the cost
// is the rows alone: the gate fails if an index comes back silently.
func TestReplicaFootprint(t *testing.T) {
	const n = 100_000
	net := simnet.New(simnet.FastConfig())
	el := newElement(t, net, "se-1", "eu")
	gen := subscriber.NewGenerator()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	pr, err := el.AddReplica("p1", store.Master)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p := gen.Profile(i)
		txn := pr.Store.Begin(store.ReadCommitted)
		txn.Put(p.ID, p.ToEntry())
		if _, err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perRow := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	if pr.Store.Len() != n || len(pr.Store.IndexedAttrs()) != 0 {
		t.Fatalf("len = %d, indexed %v", pr.Store.Len(), pr.Store.IndexedAttrs())
	}
	t.Logf("%.0f B/row", perRow)
	if perRow > 2140 {
		t.Fatalf("replica costs %.0f B/row, want ≤ 2140", perRow)
	}
	runtime.KeepAlive(pr)
}

// TestTxnGetEntryMetaConsistent: a TxnGet's entry and meta describe
// one row version even while commits land on the key. A writer keeps
// replacing v with the CSN its commit will get; every read must return
// v equal to its meta's CSN. Reading the entry and then the meta in two
// lookups tears under this load (an old image with a newer CSN), which
// an FE cache would install over the PoA's own write-through.
func TestTxnGetEntryMetaConsistent(t *testing.T) {
	n := simnet.New(simnet.FastConfig())
	el := newElement(t, n, "se-1", "eu")
	pr, err := el.AddReplica("p1", store.Master)
	if err != nil {
		t.Fatal(err)
	}
	write := func() error {
		v := fmt.Sprint(pr.Store.CSN() + 1) // the only writer: the next CSN is ours
		var resp TxnResp
		return el.applyTxnInner("", &TxnReq{Partition: "p1", Ops: []TxnOp{{
			Kind: TxnModify, Key: "k",
			Mods: []store.Mod{{Kind: store.ModReplace, Attr: "v", Vals: []string{v}}},
		}}}, &resp)
	}
	if err := write(); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if err := write(); err != nil {
				done <- err
				return
			}
		}
	}()
	const reads = 200_000
	torn := 0
	get := TxnReq{Partition: "p1", Ops: []TxnOp{{Kind: TxnGet, Key: "k"}}}
	var resp TxnResp
	for i := 0; i < reads; i++ {
		if err := el.applyTxnInner("", &get, &resp); err != nil {
			t.Fatal(err)
		}
		res := resp.Results[0]
		if !res.Found || res.Entry.First("v") != fmt.Sprint(res.Meta.CSN) {
			torn++
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if torn > 0 {
		t.Fatalf("%d of %d reads paired an entry with another version's meta", torn, reads)
	}
}

// TestTxnCallReadAllocs gates a single-op read through a reused
// envelope: the request and the response travel by pointer and the
// result in the envelope's inline slot, so the hop allocates nothing.
func TestTxnCallReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	n := simnet.New(simnet.FastConfig())
	el := newElement(t, n, "se-1", "eu")
	if _, err := el.AddReplica("p1", store.Master); err != nil {
		t.Fatal(err)
	}
	if _, err := call(t, n, el.Addr(), TxnReq{Partition: "p1", Ops: []TxnOp{
		{Kind: TxnPut, Key: "k", Entry: store.Entry{"v": {"1"}}}}}); err != nil {
		t.Fatal(err)
	}
	ctx, from := context.Background(), simnet.MakeAddr("eu", "client")
	ops := []TxnOp{{Kind: TxnGet, Key: "k"}}
	c := new(TxnCall)
	got := testing.AllocsPerRun(1000, func() {
		c.Req = TxnReq{Partition: "p1", Ops: ops}
		raw, err := n.Call(ctx, from, el.Addr(), c)
		if err != nil || raw != any(c) || !c.Resp.Results[0].Found {
			t.Fatalf("read: %v %+v", err, c.Resp)
		}
	})
	if got != 0 {
		t.Errorf("envelope read = %.0f allocs/op, want 0", got)
	}
}

// TestTxnCallEnvelopeReuse: one envelope carries a multi-op
// transaction, then single-op ones. Each response is complete, and
// the multi-op results array the caller kept is its own: reusing the
// envelope neither overwrites nor recycles it.
func TestTxnCallEnvelopeReuse(t *testing.T) {
	n := simnet.New(simnet.FastConfig())
	el := newElement(t, n, "se-1", "eu")
	if _, err := el.AddReplica("p1", store.Master); err != nil {
		t.Fatal(err)
	}
	ctx, from := context.Background(), simnet.MakeAddr("eu", "client")
	c := new(TxnCall)
	do := func(ops ...TxnOp) []OpResult {
		t.Helper()
		c.Req = TxnReq{Partition: "p1", Ops: ops}
		if _, err := n.Call(ctx, from, el.Addr(), c); err != nil {
			t.Fatal(err)
		}
		if len(c.Resp.Results) != len(ops) {
			t.Fatalf("%d results for %d ops", len(c.Resp.Results), len(ops))
		}
		return c.Resp.Results
	}
	do(TxnOp{Kind: TxnPut, Key: "a", Entry: store.Entry{"v": {"a"}}},
		TxnOp{Kind: TxnPut, Key: "b", Entry: store.Entry{"v": {"b"}}})
	multi := do(TxnOp{Kind: TxnGet, Key: "a"}, TxnOp{Kind: TxnGet, Key: "b"})
	for _, key := range []string{"b", "a", "missing"} {
		r := do(TxnOp{Kind: TxnGet, Key: key})[0]
		if want := key != "missing"; r.Found != want || (want && r.Entry.First("v") != key) {
			t.Fatalf("get %s = %+v", key, r)
		}
	}
	if multi[0].Entry.First("v") != "a" || multi[1].Entry.First("v") != "b" {
		t.Fatalf("kept multi-op results changed under envelope reuse: %+v", multi)
	}
}
